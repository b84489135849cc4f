"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each traced public function of cdgraph at
every module attribute that refers to it, which are exactly the
attributes through which one layer calls another (``enumeration.
canonical_form``, ``checks.run_battery``, ``gr.bfs_distances`` inside
``lewis``...). Each wrapper counts calls and records inclusive and self
time; self time is the span's duration minus the time of the traced
spans it encloses. ``remove`` restores the originals.

The battery's checks are called through a private dispatch table, so
their per-check times are measured by ``replay_checks`` instead.
"""

from __future__ import annotations

import functools
import importlib
import time

from oracle import CHECK_IDS

LAYERS = ("enumeration", "canonical", "formats", "checks", "graph", "lewis", "cli")

TRACED = {
    "enumeration": ("verify_section_3",),
    "canonical": ("canonical_form", "refined_colors", "is_isomorphic"),
    "formats": (
        "decode_graph6",
        "decode_edgelist",
        "encode_graph6",
        "encode_edgelist",
        "graph6_bytes_from_rows",
    ),
    "checks": ("run_battery", "infer_fitting_height"),
    "graph": (
        "all_degrees_even",
        "all_degrees_odd",
        "bfs_distances",
        "block_decomposition",
        "connected_components",
        "cut_vertices",
        "degree_multiset",
        "diameter",
        "eccentricity",
        "induced_subgraph",
        "is_block",
        "is_complete",
        "is_connected",
        "is_eulerian",
        "is_regular",
    ),
    "lewis": (
        "check_regular_odd",
        "check_theorem_2_5",
        "check_theorem_2_7",
        "check_theorem_3_2",
        "check_theorem_3_3",
        "enumerate_lewis_partitions",
        "even_cross_degrees",
        "first_valid_partition",
        "lewis_partition",
        "partition_report",
        "rho23_predicate",
        "validate_partition",
    ),
    "cli": ("main",),
}


class Tracer:
    def __init__(self) -> None:
        # span name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = {}
        # "module.attribute" -> calls made through that attribute
        self.sites: dict[str, int] = {}
        self.classes: set[bytes] = set()
        self.battery_graphs: list = []
        self.admissible = 0
        self._stack = [0.0]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"cdgraph.{layer}") for layer in LAYERS}
        span_of = {}
        for layer, names in TRACED.items():
            for name in names:
                fn = getattr(modules[layer], name)
                span_of[id(fn)] = (fn, f"{layer}.{name}")
        modules["cdgraph"] = importlib.import_module("cdgraph")
        for site_module, module in modules.items():
            for attr, value in list(vars(module).items()):
                entry = span_of.get(id(value))
                if entry is None or entry[0] is not value:
                    continue
                site = f"{site_module}.{attr}"
                setattr(module, attr, self._wrap(value, entry[1], site))
                self._patched.append((module, attr, value))

    def remove(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, span: str, site: str):
        stats = self.spans.setdefault(span, [0, 0.0, 0.0])
        self.sites.setdefault(site, 0)
        sites = self.sites
        stack = self._stack
        clock = time.perf_counter
        keep_class = site == "enumeration.canonical_form"
        keep_battery = span == "checks.run_battery"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = stack.pop()
                stack[-1] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - inner
                sites[site] += 1
            if keep_class:
                self.classes.add(result)
            elif keep_battery:
                self.battery_graphs.append(args[0])
                self.admissible += result.overall
            return result

        return traced

    def replay_checks(self) -> dict[str, float]:
        """Seconds each public ``check_*`` function takes over every graph
        the traced run passed to ``run_battery``."""
        checks = importlib.import_module("cdgraph.checks")
        out = {}
        if not self.battery_graphs:
            return out
        for check in CHECK_IDS:
            fn = getattr(checks, "check_" + check.replace("-", "_"))
            start = time.perf_counter()
            for g in self.battery_graphs:
                fn(g)
            out[check] = time.perf_counter() - start
        return out

    def metrics(self, check_seconds: dict[str, float]) -> dict[str, float]:
        def calls(span):
            return self.spans.get(span, [0, 0.0, 0.0])[0]

        def total(*spans):
            return sum(self.spans.get(s, [0, 0.0, 0.0])[1] for s in spans)

        def layer_self(layer):
            return sum(v[2] for k, v in self.spans.items() if k.startswith(layer + "."))

        candidates = self.sites.get("enumeration.canonical_form", 0)
        canon_calls = calls("canonical.canonical_form")
        canon_s = total("canonical.canonical_form")
        refine_s = total("canonical.refined_colors")
        m = {
            "enumeration.candidates": candidates,
            "enumeration.classes": len(self.classes),
            "enumeration.useful_ratio": len(self.classes) / candidates if candidates else 0.0,
            "enumeration.self_s": layer_self("enumeration"),
            "canonical.calls": canon_calls,
            "canonical.time_s": canon_s,
            "canonical.us_per_call": 1e6 * canon_s / canon_calls if canon_calls else 0.0,
            "canonical.refine_s": refine_s,
            "canonical.search_s": canon_s - refine_s,
            "formats.decode.calls": calls("formats.decode_graph6") + calls("formats.decode_edgelist"),
            "formats.decode_s": total("formats.decode_graph6", "formats.decode_edgelist"),
            "formats.encode_s": total(
                "formats.encode_graph6", "formats.encode_edgelist", "formats.graph6_bytes_from_rows"
            ),
            "checks.battery.calls": calls("checks.run_battery"),
            "checks.battery_s": total("checks.run_battery"),
            "checks.admissible": self.admissible,
            "checks.self_s": layer_self("checks"),
            "graph.bfs_distances.calls": calls("graph.bfs_distances"),
            "graph.diameter.calls": calls("graph.diameter"),
            "graph.block_decomposition.calls": calls("graph.block_decomposition"),
            "graph.is_connected.calls": calls("graph.is_connected"),
            "graph.bfs_s": total("graph.bfs_distances"),
            "graph.self_s": layer_self("graph"),
            "lewis.partition_report.calls": calls("lewis.partition_report"),
            "lewis.partition_report_s": total("lewis.partition_report"),
            "lewis.lewis_partition.calls": calls("lewis.lewis_partition"),
            "lewis.validate_partition.calls": calls("lewis.validate_partition"),
            "lewis.self_s": layer_self("lewis"),
            "trace.wrapped_calls": sum(v[0] for v in self.spans.values()),
        }
        for check in CHECK_IDS:
            m[f"checks.{check}_s"] = check_seconds.get(check, 0.0)
        return m
