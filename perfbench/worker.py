"""One repetition of a workload, in a fresh Python process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR \
        --launched T --mode run|trace|setup

``run.py`` starts this script once per repetition and reads the
``result.json`` it writes into ``DIR``.  ``--launched`` is the
``CLOCK_MONOTONIC`` reading taken just before the process was started; on
Linux that clock is system-wide, so set-up time counts interpreter start and
every import.

Modes:

* ``run``: the workload's operations, untraced.  Only `dynamics.propagate`
  and `soft.propagate_soft` are wrapped, once per run, to time them, and the
  first time step is noted by a wrapper that removes itself on its first call.
* ``trace``: the same operations with every function in `spans.TRACED`
  wrapped; the spans are written to ``DIR/spans.csv``.
* ``setup``: stops at the first time step of the first run, to sample
  set-up time alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from checks import thread_count             # noqa: E402
from spans import SpanRecorder, rebind      # noqa: E402
from workloads import WORKLOADS             # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(BaseException):
    """Raised at the first time step of a ``setup`` repetition.

    A `BaseException`, so `runner.run` lets it pass without recording a
    failed run.
    """


class FirstStep:
    """Notes when the first RK4 or Strang step begins, then unwraps itself."""

    def __init__(self, modules: dict, stop: bool):
        self.at = None
        self.stop = stop
        self.bound = []
        for module, func in (("dynamics", "rk4_step"), ("soft", "strang_step")):
            original = getattr(modules[module], func)
            probe = self._probe(original)
            rebind(original, probe)
            self.bound.append((probe, original))

    def _probe(self, original):
        def probe(*args, **kwargs):
            if self.at is None:
                self.at = now()
                for wrapper, orig in self.bound:
                    rebind(wrapper, orig)
                if self.stop:
                    raise SetupDone
            return original(*args, **kwargs)
        return probe


class PropagateTimer:
    """Time spent in, and steps made by, each propagation call."""

    def __init__(self, modules: dict):
        self.seconds = 0.0
        self.steps = 0
        for module, func in (("dynamics", "propagate"), ("soft", "propagate_soft")):
            original = getattr(modules[module], func)
            rebind(original, self._timed(original))

    def _timed(self, original):
        def timed(*args, **kwargs):
            start = now()
            out = original(*args, **kwargs)
            self.seconds += now() - start
            # Trajectory for particles, (records, snapshots, edge) for soft
            records = out.records if hasattr(out, "records") else out[0]
            self.steps += len(records) - 1
            return out
        return timed


def artifact_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    args = ap.parse_args(argv)

    import mqcdyn
    from mqcdyn import (backreaction, config, diagnostics, dynamics, ensemble,
                        models, regularization, runner, sampling, soft)
    if Path(mqcdyn.__file__).resolve().parent != SRC / "mqcdyn":
        raise SystemExit(f"imported mqcdyn from {mqcdyn.__file__}, not {SRC}")
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
        backreaction, config, diagnostics, dynamics, ensemble, models,
        regularization, runner, sampling, soft)}

    workload = WORKLOADS[args.workload]
    timer = PropagateTimer(modules)
    first = None
    recorder = None
    if args.mode == "trace":
        recorder = SpanRecorder()
        recorder.install(modules)
    else:
        first = FirstStep(modules, stop=args.mode == "setup")

    args.out.mkdir(parents=True, exist_ok=True)
    configs = [config.load_config(None, preset=r.preset,
                                  overrides=r.config_overrides(args.seed))
               for r in workload.runs]
    ops = []
    start = now()
    try:
        for r, cfg in zip(workload.runs, configs):
            run_dir = args.out / r.label
            op = {"op": "run", "label": r.label, "ok": False}
            ops.append(op)
            try:
                runner.run(cfg, run_dir)
            except Exception as err:          # counted as a failed operation
                op["error"] = f"{type(err).__name__}: {err}"
                continue
            op.update(ok=True, dir=str(run_dir))
        if workload.compare:
            op = {"op": "compare", "labels": list(workload.compare), "ok": False}
            ops.append(op)
            try:
                report = runner.compare([args.out / lbl for lbl in workload.compare])
            except Exception as err:
                op["error"] = f"{type(err).__name__}: {err}"
            else:
                op.update(ok=True, max_abs_dp1=report.max_abs_dp1)
    except SetupDone:
        ops = []
    run_s = now() - start
    for op in ops:
        if op["op"] == "run" and op["ok"]:
            op["artifact_bytes"] = artifact_bytes(Path(op["dir"]))

    result = {
        "mode": args.mode,
        "setup_s": first.at - args.launched if first and first.at else None,
        "run_s": run_s,
        "propagate_s": timer.seconds,
        "steps": timer.steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": thread_count(),
        "ops": ops,
    }
    if recorder is not None:
        recorder.write(args.out / "spans.csv")
    with open(args.out / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
