"""Correctness checks of each workload's outputs.

Every function returns a list of error strings, empty when the outputs
are right. Expected values come from ``oracle`` and from published
counts, never from a stored copy of an earlier run.
"""

from __future__ import annotations

import json

import oracle as o


def expected_candidates(n: int) -> int:
    """Canonical-form calls of the extend-every-parent generator: each
    class on k-1 vertices is extended in 2^(k-1) ways, k = 2..n."""
    return sum(o.A000088[k - 1] << (k - 1) for k in range(2, n + 1))


def expected_classes(n: int) -> int:
    """Distinct canonical forms the generator meets on levels 2..n."""
    return sum(o.A000088[2 : n + 1])


def survey(n: int, outputs: dict | None) -> list[str]:
    if outputs is None:
        return ["the survey produced no output"]
    errors = []
    want_counts = list(o.A000088[1 : n + 1])
    if outputs["level_counts"] != want_counts:
        errors.append(f"class counts {outputs['level_counts']}, expected A000088 {want_counts}")
    forms = outputs["forms"]
    if len(set(forms)) != len(forms):
        errors.append("repeated class representatives")
    palfy = sum(not o.independent_triple(o.decode_graph6(f)) for f in forms)
    if palfy != o.A006785[n]:
        errors.append(f"{palfy} Pálfy-passing classes, expected A006785 {o.A006785[n]}")
    want = o.survey(forms)
    got = outputs["summary"]
    for key, value in want.items():
        if got.get(key) != value:
            errors.append(f"summary {key}: {got.get(key)!r}, expected {value!r}")
    return errors


def survey_trace(n: int, metrics: dict) -> list[str]:
    errors = []
    if metrics["enumeration.candidates"] != expected_candidates(n):
        errors.append(f"{metrics['enumeration.candidates']} candidates, expected {expected_candidates(n)}")
    if metrics["enumeration.classes"] != expected_classes(n):
        errors.append(f"{metrics['enumeration.classes']} classes, expected {expected_classes(n)}")
    return errors


def check_stream(corpus: list[str], outputs: list) -> list[str]:
    errors = []
    for text, out in zip(corpus, outputs):
        if out is None:  # a failed operation, counted separately
            continue
        adj = o.decode_graph6(text)
        found = o.check_report(adj, out["report"]) + o.check_lewis(adj, out["lewis"])
        if out["report"]["graph"] != text:
            found.append(f"report labels the graph {out['report']['graph']!r}")
        errors += [f"{text}: {e}" for e in found]
    return errors


def check_stream_trace(metrics: dict) -> list[str]:
    """The battery and the Lewis report never need a canonical form."""
    if metrics["canonical.calls"] != 0:
        return [f"{metrics['canonical.calls']} canonical_form calls, expected 0"]
    return []


def canon(groups: list[tuple[str, list[str]]], outputs: dict) -> list[str]:
    errors = []
    forms = iter(outputs["forms"])
    fixed = outputs["fixed"]
    owner: dict[str, tuple[str, tuple]] = {}
    for name, texts in groups:
        got = {f for f in (next(forms) for _ in texts) if f is not None}
        if not got:
            continue
        if len(got) > 1:
            errors.append(f"{name}: {len(got)} different forms across relabelings")
        adj = o.decode_graph6(texts[0])
        inv = o.invariant(adj)
        for form in sorted(got):
            if fixed.get(form) != form:
                errors.append(f"{name}: form {form} is not a fixed point")
            decoded = o.decode_graph6(form)
            if sorted(o.degrees(decoded)) != sorted(o.degrees(adj)):
                errors.append(f"{name}: form changes n, edge count or degrees")
            if form in owner and owner[form][1] != inv:
                errors.append(f"{name} and {owner[form][0]} differ but share form {form}")
            owner.setdefault(form, (name, inv))
    return errors


def cli(adjs: list[list[int]], codes: list[int | None], outs: list[str]) -> list[str]:
    errors = []
    for i, (adj, code, out) in enumerate(zip(adjs, codes, outs)):
        if code not in (0, 1):  # a failed operation, counted separately
            continue
        ok = o.admissible(o.battery(o.Profile(adj)))
        if code != (0 if ok else 1):
            errors.append(f"input {i}: exit code {code}, expected {0 if ok else 1}")
        try:
            overall = json.loads(out)["overall"]
        except (ValueError, KeyError, TypeError):
            errors.append(f"input {i}: output is not a JSON report")
            continue
        if overall != ("admissible" if ok else "inadmissible"):
            errors.append(f"input {i}: overall {overall!r}")
    return errors
