"""Cost of one coupling-kernel call, with its box, at chosen times of a run.

    python3 tools/kernel_calls.py [CONFIG] [--preset NAME] [--method M] \
        [--set KEY=VALUE ...] --at T1,T2,...

Run from anywhere inside a checkout.  The config is given as ``mqcdyn run``
takes it: an INI file, a preset, or both, with ``--method`` and ``--set``
overrides on top; the method must be koopmon or bohmion.  The run is
propagated as `runner.run` propagates it, but only to the last requested
time, and writes no artifacts; the state at the step nearest each time is
kept.  For each kept state the box of `dynamics.rhs` is built anew
(`build_grid` for koopmon, `build_grid_1d` for bohmion) and the method's
kernel call (`koopmon_terms` or `bohmion_terms`) is timed on it.

Printed to standard output as one JSON document: ``method``, ``n_particles``,
and ``states``, one entry per time with ``t``, the ``box`` shape, its
``nodes``, ``ms_median``, the median wall time of `CALLS` calls after one
warm-up call, and ``traced_peak_mb``, the tracemalloc peak of one more call
in MiB.  Times depend on the host and its BLAS threads; set
``OPENBLAS_NUM_THREADS=1`` to compare trees.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mqcdyn.backreaction import bohmion_terms, koopmon_terms  # noqa: E402
from mqcdyn.cli import add_config_arguments, config_from_args  # noqa: E402
from mqcdyn.config import ConfigError  # noqa: E402
from mqcdyn.dynamics import MethodKind, propagate  # noqa: E402
from mqcdyn.models import make_model  # noqa: E402
from mqcdyn.regularization import (GridParams, KernelSpec,  # noqa: E402
                                   build_grid, build_grid_1d)
from mqcdyn.runner import _particle_setup  # noqa: E402

#: Timed calls per state.
CALLS = 7


def kernel_call(kind: MethodKind, e, model, spec: KernelSpec,
                params: GridParams):
    """The box of `dynamics.rhs` for ``e`` and a no-argument function that
    makes the method's kernel call on it."""
    if kind is MethodKind.KOOPMON:
        grid = build_grid(e.q, e.p, spec, params)
        return grid.shape, lambda: koopmon_terms(e, model, grid, spec)
    grid = build_grid_1d(e.q, spec, params)
    return (grid.nodes.size,), lambda: bohmion_terms(e, model.mass, grid, spec)


def measure(call) -> tuple[float, float]:
    """Median ms of `CALLS` calls after a warm-up, and the traced peak MiB
    of one more."""
    call()
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return 1e3 * statistics.median(times), peak / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    add_config_arguments(parser)
    parser.add_argument("--at", required=True, metavar="T1,T2,...",
                        help="comma-separated times of the states to measure")
    args = parser.parse_args(argv)
    times = sorted(float(t) for t in args.at.split(","))
    if times[0] < 0.0:
        parser.error("--at times must be nonnegative")
    try:
        cfg = config_from_args(args)
    except ConfigError as err:
        parser.error(str(err))
    if cfg.method not in ("koopmon", "bohmion"):
        parser.error("the method must be koopmon or bohmion")

    model = make_model(cfg.model, **dict(cfg.model_params))
    kind, spec, params, e0 = _particle_setup(cfg, model)
    t_final = cfg.dt * math.ceil(times[-1] / cfg.dt)
    traj = propagate(kind, e0, model, spec, cfg.dt, t_final,
                     snapshot_times=times, grid_params=params,
                     energy_tol=cfg.energy_tol)

    states = []
    for t, e in traj.snapshots:
        box, call = kernel_call(kind, e, model, spec, params)
        ms, peak = measure(call)
        states.append({"t": t, "box": list(box), "nodes": math.prod(box),
                       "ms_median": ms, "traced_peak_mb": peak})
    json.dump({"method": kind.value, "n_particles": cfg.n_particles,
               "states": states}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
