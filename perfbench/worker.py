"""One cold repetition of an in-process workload, in a fresh interpreter.

Reads a JSON request on stdin, imports cdgraph (timed: the program's
set-up), runs every operation once with a per-operation clock and with
host speed probes interleaved (speed.py), and writes one JSON object on
stdout: the import time, the operation times, raw and at the reference
speed, the peak resident memory, the outputs to be checked and, when
traced, the per-layer figures.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the package sources.
"""

import time

_start = time.perf_counter()
import cdgraph  # noqa: E402
import cdgraph.cli  # noqa: E402

SETUP_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402
from cdgraph import canonical, checks, enumeration, formats, lewis  # noqa: E402
from cdgraph import graph as gr  # noqa: E402

clock = time.perf_counter

# Passes of in-process ``cli.main`` whose median gives ``cli.main_ms``.
CLI_PASSES = 5


def timed(sampler, spans):
    """Raw and reference-speed seconds of each (start, end) span."""
    pairs = [sampler.normalize(start, end) for start, end in spans]
    return [raw for raw, _ in pairs], [ref for _, ref in pairs]


def run_ops(op, items):
    """Apply op to each item under its own clock; an exception marks that
    operation failed and the run goes on."""
    spans, errors, values = [], [], []
    with speed.Sampler() as sampler:
        for item in items:
            start = clock()
            try:
                value = op(item)
            except Exception:
                value = None
                errors.append(traceback.format_exc(limit=-3))
            else:
                errors.append(None)
            spans.append((start, clock()))
            values.append(value)
    raw, times = timed(sampler, spans)
    return raw, times, errors, values


# Operations look functions up through the module attributes at call
# time, so that a traced run goes through the tracer's wrappers.


def survey_op(n):
    return enumeration.verify_section_3(n)


def check_op(text):
    g = formats.decode_graph6(text)
    report = checks.run_battery(g)
    partition = None
    if gr.is_connected(g) and gr.diameter(g) == 3:
        partition = lewis.partition_report(g)
    return report, partition


def canon_op(g):
    return canonical.canonical_form(g)


def survey_outputs(items, values):
    n, summary = items[0], values[0]
    if summary is None:
        return None
    return {
        "summary": summary.to_dict(),
        "level_counts": [
            sum(1 for _ in enumeration.enumerate_nonisomorphic(k)) for k in range(1, n + 1)
        ],
        "forms": [
            formats.encode_graph6(g).decode("ascii")
            for g in enumeration.enumerate_nonisomorphic(n)
        ],
    }


def check_outputs(items, values):
    return [None if v is None else {"report": v[0].to_dict(), "lewis": v[1]} for v in values]


def canon_outputs(items, values):
    fixed = {}
    for form in values:
        if form is not None and form not in fixed:
            fixed[form] = canonical.canonical_form(formats.decode_graph6(form))
    return {
        "forms": [None if f is None else f.decode("ascii") for f in values],
        "fixed": {k.decode("ascii"): v.decode("ascii") for k, v in fixed.items()},
    }


WORKLOADS = {
    "survey": (survey_op, survey_outputs),
    "check": (check_op, check_outputs),
    "canon": (canon_op, canon_outputs),
}


def cli_pass(inputs):
    """``cli.main`` on each input, stdin and stdout swapped for in-memory
    buffers: one ``cdgraph check`` without interpreter start and import."""
    spans, codes, outs = [], [], []
    with speed.Sampler() as sampler:
        for item in inputs:
            argv = ["check", "--output", "json"] + (["--g6", item["g6"]] if "g6" in item else ["-"])
            out = io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(item.get("stdin", ""))
            try:
                with contextlib.redirect_stdout(out):
                    start = clock()
                    codes.append(cdgraph.cli.main(argv))
                    spans.append((start, clock()))
            finally:
                sys.stdin = saved
            outs.append(out.getvalue())
    return timed(sampler, spans)[1], codes, outs


def cli_traced(inputs):
    from tracer import Tracer

    plain = [cli_pass(inputs)[0] for _ in range(CLI_PASSES)]
    tracer = Tracer()
    tracer.install()
    times, codes, outs = cli_pass(inputs)
    tracer.remove()
    metrics = tracer.metrics(tracer.replay_checks())
    metrics["cli.import_ms"] = 1e3 * SETUP_S
    metrics["cli.main_ms"] = 1e3 * statistics.median(t for p in plain for t in p)
    metrics["trace.overhead_pct"] = 100 * (sum(times) / statistics.median(sum(p) for p in plain) - 1)
    return {"codes": codes, "outs": outs, "metrics": metrics}


def peak_rss_mb() -> float:
    """High-water resident memory of this process image. ``ru_maxrss``
    would also count the spawning process, whose size the child inherits
    at fork."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    request = json.load(sys.stdin)
    workload, payload = request["workload"], request["payload"]
    probes = [speed.probe() for _ in range(speed.EDGE_PROBES)]
    result: dict = {"setup_s": SETUP_S, "setup_ref_s": SETUP_S * speed.scale(probes)}
    if workload == "cli":
        result.update(cli_traced(payload))
    elif workload in WORKLOADS:
        op, outputs = WORKLOADS[workload]
        items = payload
        if workload == "canon":
            items = [formats.decode_graph6(text) for text in payload]
        tracer = None
        if request["trace"]:
            # Imported only here, so that its memory stays out of
            # untraced runs' peak_rss_mb.
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        raw, times, errors, values = run_ops(op, items)
        result["rss_mb"] = peak_rss_mb()
        if tracer:
            tracer.remove()
            result["metrics"] = tracer.metrics(tracer.replay_checks())
        result.update(raw=raw, times=times, errors=errors, outputs=outputs(items, values))
    elif workload != "import":
        raise SystemExit(f"unknown workload {workload!r}")
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
