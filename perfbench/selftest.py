"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs each workload's operations on tiny inputs, shows that the checks in
verify.py accept the program's real outputs, and that each rejects a
deliberately corrupted copy: an off-by-one class count, a flipped
verdict, a wrong witness, a wrong rho set, a canonical_form call on the
check stream, a relabeling-dependent form, a wrong exit code. Exits
with 1 if any check misses a corruption.
"""

from __future__ import annotations

import copy
import json
import sys

import corpus
import oracle
import run
import verify

SURVEY_N = 5
failures: list[str] = []


def expect(name: str, errors: list[str], rejected: bool) -> None:
    ok = bool(errors) == rejected
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {errors[0] if errors else 'accepted'}")
    if not ok:
        failures.append(name)


def corrupted(value, change):
    out = copy.deepcopy(value)
    change(out)
    return out


def in_process(workload: str, payload, trace: bool = False) -> dict:
    reply, problem = run.worker({"workload": workload, "payload": payload, "trace": trace})
    if reply is None:
        raise SystemExit(f"{workload} worker failed: {problem}")
    return reply


def survey() -> None:
    reply = in_process("survey", [SURVEY_N], trace=True)
    out, metrics = reply["outputs"], reply["metrics"]
    expect("survey: real outputs", verify.survey(SURVEY_N, out), False)
    expect("survey: real counts", verify.survey_trace(SURVEY_N, metrics), False)

    def off_by_one(o):
        o["level_counts"][-1] += 1

    def drop_class(o):
        o["forms"].pop()

    def admissible(o):
        o["summary"]["admissible"] += 1

    def discrepancy(o):
        o["summary"]["theorem_3_2_discrepancies"]["standard"].append(o["forms"][0])

    expect("survey: off-by-one class count", verify.survey(SURVEY_N, corrupted(out, off_by_one)), True)
    expect("survey: missing class", verify.survey(SURVEY_N, corrupted(out, drop_class)), True)
    expect("survey: admissible count", verify.survey(SURVEY_N, corrupted(out, admissible)), True)
    expect("survey: extra discrepancy", verify.survey(SURVEY_N, corrupted(out, discrepancy)), True)
    bad = dict(metrics, **{"enumeration.candidates": metrics["enumeration.candidates"] - 1})
    expect("survey: candidate count", verify.survey_trace(SURVEY_N, bad), True)


def check_stream() -> None:
    texts = corpus.check_stream(seed=1, count=40)
    reply = in_process("check", texts, trace=True)
    out, metrics = reply["outputs"], reply["metrics"]
    expect("check-stream: real outputs", verify.check_stream(texts, out), False)
    expect("check-stream: real counts", verify.check_stream_trace(metrics), False)
    bad = dict(metrics, **{"canonical.calls": 1})
    expect("check-stream: canonical_form called", verify.check_stream_trace(bad), True)
    failing = next(i for i, o in enumerate(out) if o["report"]["overall"] == "inadmissible")
    passing = next(i for i, o in enumerate(out) if o["report"]["overall"] == "admissible")
    lewis = next(i for i, o in enumerate(out) if o["lewis"] is not None)

    def flip(o):
        check = o[passing]["report"]["checks"][0]
        check["verdict"] = "fail" if check["verdict"] == "pass" else "pass"

    def overall(o):
        o[passing]["report"]["overall"] = "inadmissible"

    def witness(o):
        check = next(c for c in o[failing]["report"]["checks"] if c["verdict"] == "fail")
        check["witness"] = [0, 0, 0]

    def rho(o):
        part = o[lewis]["lewis"]["partition"]
        part["rho1"], part["rho2"] = part["rho2"], part["rho1"]

    def validity(o):
        flags = o[lewis]["lewis"]["validity"]
        flags["rho12_complete"] = not flags["rho12_complete"]

    for name, change in [
        ("flipped verdict", flip),
        ("flipped overall", overall),
        ("bad witness", witness),
        ("swapped rho sets", rho),
        ("flipped validity flag", validity),
    ]:
        expect(f"check-stream: {name}", verify.check_stream(texts, corrupted(out, change)), True)


def canon() -> None:
    # C6 and two triangles share n, edge count and degrees, but not the
    # triangle counts in the invariant.
    c6 = corpus.cycle(6)
    two_triangles = corpus.disjoint(corpus.clique(3), corpus.clique(3))
    groups = corpus.canon_relabel(seed=1, sizes=1, relabelings=3)
    groups += [("C6", [oracle.encode_graph6(c6)]), ("2K3", [oracle.encode_graph6(two_triangles)])]
    texts = [t for _, group in groups for t in group]
    out = in_process("canon", texts)["outputs"]
    expect("canon-relabel: real outputs", verify.canon(groups, out), False)
    other = next(f for f in out["forms"] if f != out["forms"][0])

    def relabel_dependent(o):
        o["forms"][1] = other

    def not_fixed(o):
        o["fixed"][o["forms"][0]] = other

    def shared(o):
        o["forms"][-1] = o["forms"][-2]

    for name, change in [
        ("relabeling-dependent form", relabel_dependent),
        ("form not a fixed point", not_fixed),
        ("two different graphs share a form", shared),
    ]:
        expect(f"canon-relabel: {name}", verify.canon(groups, corrupted(out, change)), True)


def cli() -> None:
    bench = run.CliCheck(seed=1)
    r = bench.round(traced=False)
    expect("cli-check: real outputs", bench.check(r), False)
    admissible = r.outputs["codes"].index(0)

    def exit_code(o):
        o["codes"][admissible] = 1

    def overall(o):
        report = json.loads(o["outs"][admissible])
        report["overall"] = "inadmissible"
        o["outs"][admissible] = json.dumps(report)

    for name, change in [("wrong exit code", exit_code), ("wrong overall", overall)]:
        expect(f"cli-check: {name}", verify.cli(bench.adjs, **corrupted(r.outputs, change)), True)


def main() -> int:
    survey()
    check_stream()
    canon()
    cli()
    print(f"{len(failures)} check(s) missed a corruption" if failures else "all checks reject corrupted results")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
