"""End-to-end and per-layer benchmark of mqcdyn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition ("round") of the workload
runs in a fresh Python process (`worker.py`); rounds follow one another, so
the benchmark and one worker, each single-threaded, are all that run.

``--trace 0`` makes as many whole rounds as fit in ``--seconds`` (at least
one), samples set-up time before and after them in `SETUP_SAMPLES` processes
that stop at the first time step, and reports the medians of the end-to-end
metrics.  ``--trace 1`` makes one untraced round and then traced rounds, and
reports per-layer metrics derived from the traced rounds' spans, plus the
tracing overhead.  Every round's outputs are checked (`checks.py`).  The last
line of standard output is one JSON object; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, here and in every worker, which inherits the environment:
# this script and one worker are then the only two threads.  Set before numpy
# is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks                                   # noqa: E402
from spans import PER_LAYER, layer_metrics, read_spans      # noqa: E402
from workloads import WORKLOADS                             # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "mqcdyn"
OUT = ROOT / "perfbench-out"

#: set-up-only processes per untraced run, half before the rounds and half
#: after, on top of the rounds' own set-up
SETUP_SAMPLES = 8
#: threads of this script and one worker together
THREAD_LIMIT = 2
#: every process must have ended by then, counted from the start
DEADLINE_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Bench:
    def __init__(self, workload: str, seed: int, started: float):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.started = started
        self.dir = OUT / "runs" / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, list[str]] = {}

    def launch(self, mode: str, name: str) -> dict:
        """Run one worker process to its end and return its result."""
        out = self.dir / name
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload.name, "--seed", str(self.seed),
               "--out", str(out), "--mode", mode, "--launched"]
        timeout = self.started + DEADLINE_S - now()
        if timeout <= 0:
            raise TimeoutError("no time left for another worker")
        launched = now()
        subprocess.run(cmd + [repr(launched)], cwd=ROOT,
                       stdin=subprocess.DEVNULL, timeout=timeout, check=True)
        with open(out / "result.json") as fh:
            result = json.load(fh)
        result["wall_s"] = now() - launched
        result["dir"] = out
        return result

    def round(self, mode: str, name: str) -> dict:
        """One repetition of the workload, with its outputs checked."""
        res = self.launch(mode, name)
        ops = res["ops"]
        self.attempted += len(ops)
        self.failed += sum(not op["ok"] for op in ops)
        threads = checks.thread_count() + res["threads"]
        if threads > THREAD_LIMIT:
            self.problems.append(f"{name}: {threads} threads with the worker's")
        series = {}
        for op in ops:
            if not op["ok"]:
                log(f"{name}: {op['op']} {op.get('label', '')} failed: {op['error']}")
                continue
            if op["op"] == "run":
                run_dir = Path(op["dir"])
                self.problems += [f"{name}/{op['label']}: {p}" for p in
                                  checks.check_run_dir(run_dir)]
                path = run_dir / "timeseries.csv"
                series[op["label"]] = checks.read_timeseries(path)
                self.digests.setdefault(op["label"], []).append(checks.digest(path))
            else:
                a, b = (series[lbl] for lbl in op["labels"])
                self.problems += [f"{name}/compare: {p}" for p in
                                  checks.check_compare(a, b, op["max_abs_dp1"])]
        log(f"{name} [{mode}]: run_s {res['run_s']:.3f}, "
            f"{len(ops)} operations, wall {res['wall_s']:.2f} s")
        return res

    def check_repetitions(self) -> None:
        """Every repetition with this seed and program source writes the same
        time series: within this invocation, and against earlier ones."""
        for label, found in self.digests.items():
            self.problems += checks.check_identical(found, f"{label}/timeseries.csv")
        source = hashlib.sha256()
        for path in sorted(SRC.glob("*.py")):
            source.update(path.name.encode() + b"\0" + path.read_bytes())
        store = OUT / "digests" / (f"{self.workload.name}-seed{self.seed}-"
                                   f"{source.hexdigest()[:16]}.json")
        mine = {label: found[0] for label, found in self.digests.items()}
        if store.exists():
            earlier = json.loads(store.read_text())
            for label in sorted(set(earlier) & set(mine)):
                self.problems += checks.check_identical(
                    [earlier[label], mine[label]],
                    f"{label}/timeseries.csv against an earlier invocation")
        else:
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(mine, indent=1, sort_keys=True) + "\n")


def fits(started: float, seconds: float, rounds: list) -> bool:
    longest = max(r["wall_s"] for r in rounds)
    return now() - started + longest <= seconds


def end_to_end(bench: Bench, seconds: float) -> dict:
    def sample_setup(ks) -> list:
        return [bench.launch("setup", f"setup{k}")["setup_s"] for k in ks]

    # set-up takes ~0.5 s, so its samples are spread over the run to meet
    # more than one phase of the host's load
    half = SETUP_SAMPLES // 2
    setup = sample_setup(range(half))
    rounds = [bench.round("run", "round0")]
    while fits(bench.started, seconds, rounds):
        rounds.append(bench.round("run", f"round{len(rounds)}"))
    setup += sample_setup(range(half, SETUP_SAMPLES))
    setup += [r["setup_s"] for r in rounds]
    setup = [s for s in setup if s is not None]    # None: no step was reached
    return {
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "setup_s": statistics.median(setup),
        "steps_per_s": statistics.median(r["steps"] / r["propagate_s"]
                                         for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    base = bench.round("run", "untraced")
    traced = [bench.round("trace", "traced0")]
    while fits(bench.started, seconds, [base] + traced):
        traced.append(bench.round("trace", f"traced{len(traced)}"))
    found = []
    for res in traced:
        m = layer_metrics(read_spans(res["dir"] / "spans.csv"))
        m["runner.artifact_bytes"] = sum(op.get("artifact_bytes", 0)
                                         for op in res["ops"])
        m["trace.overhead_s"] = res["run_s"] - base["run_s"]
        found.append(m)
    return {name: statistics.median(m[name] for m in found) for name in PER_LAYER}


def _layer_unit(name: str) -> str:
    quantity = name.rsplit(".", 1)[1]
    if name.startswith("regularization.box_nodes"):
        return "nodes"
    return {"s": "s", "self_s": "s", "overhead_s": "s", "calls": "count",
            "spans": "count", "ms_p50": "ms", "ms_tail": "ms",
            "ns_per_particle_node": "ns", "artifact_bytes": "bytes"}[quantity]


def main(argv=None) -> int:
    started = now()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "__init__.py").is_file():
        log(f"no mqcdyn sources at {SRC}; run from the root of a checkout")
        return 2

    bench = Bench(args.workload, args.seed, started)
    if args.trace:
        values = per_layer(bench, args.seconds)
        units = {name: _layer_unit(name) for name in values}
    else:
        values = end_to_end(bench, args.seconds)
        units = END_TO_END_UNITS
    bench.check_repetitions()
    for problem in bench.problems:
        log(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
