"""cdgraph benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload check-stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``); standard library only. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment of the run and the raw wall
time figures. With ``--trace 0`` the metrics are the end-to-end ones,
measured untraced, with every time given at the reference speed of the
host speed probe (speed.py); with ``--trace 1`` they are the per-layer
ones from a traced repetition, named and with units as in
BENCHMARK.json. See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import oracle
import speed
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SURVEY_N = 8
CHECK_GRAPHS = 1000
CANON_SIZES = 30
CANON_RELABELINGS = 3
# Import-only interpreters started per run, besides the workers, for setup_s.
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 75
CLI_TIMEOUT_S = 20

clock = time.perf_counter


ENV = dict(os.environ, PYTHONPATH=str(SRC))


def worker(request: dict) -> tuple[dict | None, str]:
    """One fresh worker interpreter; its reply, or None and the reason."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(request).encode(),
            capture_output=True,
            timeout=WORKER_TIMEOUT_S,
            cwd=ROOT,
            env=ENV,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, proc.stderr.decode(errors="replace")[-400:] or f"exit code {proc.returncode}"
    return json.loads(proc.stdout), ""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


@dataclass
class Round:
    attempted: int
    # Operations that did not fail, at the reference speed and raw.
    times: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    failed: int = 0
    outputs: object = None
    setup: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    metrics: dict | None = None
    problem: str = ""


class InProcess:
    """A workload whose repetition is one fresh worker interpreter."""

    def __init__(self, kind: str, payload: list, tail: float, graphs_per_op: int) -> None:
        self.kind, self.payload, self.tail, self.graphs_per_op = kind, payload, tail, graphs_per_op
        self.ops = len(payload)

    def round(self, traced: bool) -> Round:
        request = {"workload": self.kind, "payload": self.payload, "trace": traced}
        res, problem = worker(request)
        if res is None:
            return Round(self.ops, failed=self.ops, problem=problem)
        ok = [e is None for e in res["errors"]]
        return Round(
            attempted=self.ops,
            times=[t for t, good in zip(res["times"], ok) if good],
            raw=[t for t, good in zip(res["raw"], ok) if good],
            failed=ok.count(False),
            outputs=res["outputs"],
            setup=[res["setup_ref_s"]],
            rss=[res["rss_mb"]],
            metrics=res.get("metrics"),
            problem="; ".join(e for e in res["errors"] if e)[:400],
        )

    def check_trace(self, metrics: dict) -> list[str]:
        return []


class Survey(InProcess):
    def __init__(self, seed: int) -> None:
        # Exhaustive: the same for every seed.
        super().__init__("survey", [SURVEY_N], 1.0, oracle.A000088[SURVEY_N])

    def check(self, r: Round) -> list[str]:
        return verify.survey(SURVEY_N, r.outputs)

    def check_trace(self, metrics: dict) -> list[str]:
        return verify.survey_trace(SURVEY_N, metrics)


class CheckStream(InProcess):
    def __init__(self, seed: int) -> None:
        super().__init__("check", corpus.check_stream(seed, CHECK_GRAPHS), 0.99, 1)

    def check(self, r: Round) -> list[str]:
        return verify.check_stream(self.payload, r.outputs)

    def check_trace(self, metrics: dict) -> list[str]:
        return verify.check_stream_trace(metrics)


class CanonRelabel(InProcess):
    def __init__(self, seed: int) -> None:
        self.groups = corpus.canon_relabel(seed, CANON_SIZES, CANON_RELABELINGS)
        super().__init__("canon", [t for _, texts in self.groups for t in texts], 0.99, 1)

    def check(self, r: Round) -> list[str]:
        return verify.canon(self.groups, r.outputs)


class CliCheck:
    """Closed loop, one client: one ``cdgraph check`` process at a time,
    started through launcher.py, which times it, reads its peak memory
    and probes the host's speed before it."""

    tail = 0.90
    graphs_per_op = 1

    def __init__(self, seed: int) -> None:
        inputs = corpus.cli_inputs(seed)
        self.adjs = [item.pop("adj") for item in inputs]
        self.inputs = inputs
        self.ops = len(inputs)

    def round(self, traced: bool) -> Round:
        if traced:
            return self.traced_round()
        r = Round(self.ops, outputs={"codes": [], "outs": []})
        sampler = speed.Sampler()
        spans = []
        launcher = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=ENV,
        )
        try:
            for item in self.inputs:
                argv = [sys.executable, "-m", "cdgraph.cli", "check", "--output", "json"]
                argv += ["--g6", item["g6"]] if "g6" in item else ["-"]
                request = {"argv": argv, "stdin": item.get("stdin", ""), "timeout": CLI_TIMEOUT_S}
                launcher.stdin.write(json.dumps(request) + "\n")
                launcher.stdin.flush()
                child = json.loads(launcher.stdout.readline())
                sampler.starts += child["probes"][0]
                sampler.seconds += child["probes"][1]
                if child["code"] in (0, 1):
                    spans.append((child["start"], child["end"]))
                    r.rss.append(child["rss_mb"])
                else:
                    r.failed += 1
                    r.problem = child["err"]
                r.outputs["codes"].append(child["code"])
                r.outputs["outs"].append(child["out"])
        finally:
            launcher.stdin.close()
            launcher.wait()
        for start, end in spans:
            raw, ref = sampler.normalize(start, end)
            r.raw.append(raw)
            r.times.append(ref)
        return r

    def traced_round(self) -> Round:
        res, problem = worker({"workload": "cli", "payload": self.inputs, "trace": True})
        if res is None:
            return Round(self.ops, failed=self.ops, problem=problem)
        return Round(self.ops, outputs={"codes": res["codes"], "outs": res["outs"]}, metrics=res["metrics"])

    def check(self, r: Round) -> list[str]:
        return verify.cli(self.adjs, r.outputs["codes"], r.outputs["outs"])

    def check_trace(self, metrics: dict) -> list[str]:
        return []


WORKLOADS = {
    "survey-n8": Survey,
    "check-stream": CheckStream,
    "canon-relabel": CanonRelabel,
    "cli-check": CliCheck,
}


def environment() -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = git.stdout.strip() or commit
        except OSError:  # no git program
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": commit,
        "loadavg_before": os.getloadavg(),
    }


def setup_probes() -> list[float]:
    """Import times, at the reference speed, of import-only interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        res, problem = worker({"workload": "import", "payload": None, "trace": False})
        if res is None:
            raise SystemExit(f"import probe failed: {problem}")
        samples.append(res["setup_ref_s"])
    return samples


def time_metrics(bench, times: list[float]) -> dict:
    return {
        "graphs_per_s": (bench.graphs_per_op * len(times) / sum(times), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(times), "ms"),
        "op_ms_tail": (1e3 * percentile(times, bench.tail), "ms"),
    }


def untraced(bench, seconds: float) -> tuple[list[Round], dict]:
    """Whole repetitions until the next one would end past ``seconds``."""
    setup = setup_probes()
    rounds: list[Round] = []
    start = clock()
    while True:
        began = clock()
        rounds.append(bench.round(traced=False))
        took = clock() - began
        if clock() - start + took > seconds:
            break
    times = [t for r in rounds for t in r.times]
    if not times:
        return rounds, {}
    metrics = {
        "setup_s": (statistics.median(setup + [s for r in rounds for s in r.setup]), "s"),
        "peak_rss_mb": (statistics.median(m for r in rounds for m in r.rss), "MB"),
        **time_metrics(bench, times),
    }
    return rounds, metrics


def traced(bench) -> tuple[list[Round], dict]:
    """An untraced and a traced repetition, whatever ``--seconds`` says;
    per-layer figures come from the traced one, and their time difference
    at the reference speed is the tracing overhead."""
    if isinstance(bench, CliCheck):
        r = bench.round(traced=True)
        return [r], r.metrics or {}
    plain = bench.round(traced=False)
    r = bench.round(traced=True)
    if r.metrics is None or not plain.times:
        return [plain, r], {}
    metrics = dict(r.metrics)
    metrics["trace.overhead_pct"] = 100 * (sum(r.times) / sum(plain.times) - 1)
    metrics["cli.import_ms"] = metrics["cli.main_ms"] = 0.0
    return [plain, r], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cdgraph" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a cdgraph checkout", file=sys.stderr)
        return 2

    # Per-layer metric names and units, as BENCHMARK.json declares them.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    per_layer = {m["name"]: m["unit"] for m in declared}
    info = environment()
    info["pinned_cpu"] = speed.pin()
    # Byte-compile once, as an installed package would be.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "cdgraph")], check=True)
    bench = WORKLOADS[args.workload](args.seed)
    rounds, metrics = traced(bench) if args.trace else untraced(bench, args.seconds)

    errors = []
    first = next((r for r in rounds if r.outputs is not None), None)
    if first is None:
        errors.append("no repetition produced output: " + "; ".join(r.problem for r in rounds))
    else:
        # Later repetitions, the traced one too, must repeat the checked outputs.
        errors += bench.check(first)
        want = digest(first.outputs)
        errors += [
            f"repetition {i} differs from the first"
            for i, r in enumerate(rounds)
            if r.outputs is not None and digest(r.outputs) != want
        ]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        missing = [name for name in per_layer if name not in metrics]
        if missing:
            errors.append(f"per-layer metrics missing: {missing}")
        else:
            errors += bench.check_trace(metrics)
        metrics = {name: (metrics.get(name, 0.0), unit) for name, unit in per_layer.items()}
    elif not metrics:
        errors.append("no operation succeeded")
    else:
        raw = [t for r in rounds for t in r.raw]
        info["raw_wall"] = {name: value for name, (value, _) in time_metrics(bench, raw).items()}

    info.update(
        loadavg_after=os.getloadavg(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        repetitions=len(rounds),
        attempted=attempted,
        failed=failed,
        problems=[r.problem for r in rounds if r.problem][:3],
        errors=errors[:20],
    )
    print(json.dumps({"run": info}))
    for line in errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
