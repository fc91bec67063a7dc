"""Spans recorded around calls into `mqcdyn`, and the per-layer metrics
derived from them.

Nothing here edits the program: `rebind` points every `mqcdyn` module global
that holds a function at a wrapper, so calls made through a module attribute
(``backreaction.koopmon_terms``) and through a name imported into another
module (``runner.propagate``) both pass the wrapper.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import sys
import time

import numpy as np

#: (module, function) pairs wrapped in a traced run.  The model's callables
#: are wrapped separately, through `make_model`, as ``models.hamiltonian``.
TRACED = (
    ("config", "load_config"),
    ("sampling", "init_ensemble"),
    ("regularization", "build_grid"),
    ("regularization", "build_grid_1d"),
    ("backreaction", "koopmon_terms"),
    ("backreaction", "bohmion_terms"),
    ("dynamics", "propagate"),
    ("dynamics", "rk4_step"),
    ("dynamics", "rhs"),
    ("dynamics", "energy"),
    ("diagnostics", "particle_diagnostics"),
    ("diagnostics", "smoothed_cloud"),
    ("diagnostics", "wigner"),
    ("diagnostics", "waterfall"),
    ("soft", "propagate_soft"),
    ("soft", "strang_step"),
    ("soft", "observables"),
    ("soft", "potential_matrix_fields"),
    ("models", "adiabatic_basis"),
    ("ensemble", "write_snapshot"),
    ("runner", "run"),
    ("runner", "write_density"),
    ("runner", "compare"),
)

HAMILTONIAN_CALLABLES = ("classical", "d_classical_q", "d_classical_p",
                         "interaction", "d_interaction")

PER_LAYER = (
    "config.load_config.s",
    "sampling.init_ensemble.s",
    "regularization.build_grid.calls",
    "regularization.build_grid.s",
    "regularization.build_grid_1d.calls",
    "regularization.build_grid_1d.s",
    "regularization.box_nodes.mean",
    "regularization.box_nodes.max",
    "regularization.box_nodes.total",
    "backreaction.koopmon_terms.calls",
    "backreaction.koopmon_terms.s",
    "backreaction.koopmon_terms.ns_per_particle_node",
    "backreaction.bohmion_terms.calls",
    "backreaction.bohmion_terms.s",
    "dynamics.rk4_step.calls",
    "dynamics.rk4_step.ms_p50",
    "dynamics.rk4_step.ms_tail",
    "dynamics.rhs.self_s",
    "dynamics.energy.calls",
    "dynamics.energy.s",
    "dynamics.propagate.self_s",
    "models.hamiltonian.calls",
    "models.hamiltonian.s",
    "models.adiabatic_basis.calls",
    "models.adiabatic_basis.s",
    "diagnostics.particle_diagnostics.s",
    "diagnostics.smoothed_cloud.s",
    "diagnostics.wigner.s",
    "diagnostics.waterfall.s",
    "soft.strang_step.calls",
    "soft.strang_step.s",
    "soft.observables.s",
    "soft.potential_matrix_fields.s",
    "ensemble.write_snapshot.s",
    "runner.run.self_s",
    "runner.write_density.s",
    "runner.artifact_bytes",
    "runner.compare.s",
    "trace.spans",
    "trace.overhead_s",
)


def rebind(original, replacement) -> None:
    """Point every `mqcdyn` module global bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name != "mqcdyn" and not name.startswith("mqcdyn."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _grid_nodes(grid) -> int:
    return len(grid.nodes) if hasattr(grid, "nodes") else \
        len(grid.q_nodes) * len(grid.p_nodes)


#: span name -> size recorded with the span, from (args, result)
_SIZES = {
    "regularization.build_grid": lambda args, out: _grid_nodes(out),
    "regularization.build_grid_1d": lambda args, out: _grid_nodes(out),
    # koopmon_terms(e, h, grid, spec): particles x box nodes
    "backreaction.koopmon_terms": lambda args, out: args[0].n * _grid_nodes(args[2]),
}


class SpanRecorder:
    """Spans (name, start, end, parent, size) kept in memory in call order."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.sizes: list[int] = []
        self._open = [-1]

    def wrap(self, name: str, fn):
        size_of = _SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1])
            self.ends.append(float("nan"))
            self.sizes.append(0)
            self._open.append(i)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[i] = time.perf_counter()
                self._open.pop()
            if size_of is not None:
                self.sizes[i] = size_of(args, out)
            return out

        return traced

    def install(self, mqcdyn_modules: dict) -> None:
        """Wrap every `TRACED` function and the callables of each model that
        `make_model` returns."""
        for module, func in TRACED:
            current = getattr(mqcdyn_modules[module], func)
            rebind(current, self.wrap(f"{module}.{func}", current))

        models = mqcdyn_modules["models"]
        make_model = models.make_model

        def traced_make_model(*args, **kwargs):
            h = make_model(*args, **kwargs)
            return dataclasses.replace(h, **{
                c: self.wrap("models.hamiltonian", getattr(h, c))
                for c in HAMILTONIAN_CALLABLES})

        rebind(make_model, traced_make_model)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "name", "start_s", "end_s", "size"))
            for i, row in enumerate(zip(self.parents, self.names, self.starts,
                                        self.ends, self.sizes)):
                out.writerow((i, *row))


def read_spans(path) -> dict:
    """Columns of a span file written by `SpanRecorder.write`."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "parent": np.array([int(r["parent"]) for r in rows], dtype=int),
        "name": np.array([r["name"] for r in rows], dtype=object),
        "start": np.array([float(r["start_s"]) for r in rows]),
        "end": np.array([float(r["end_s"]) for r in rows]),
        "size": np.array([int(r["size"]) for r in rows], dtype=np.int64),
    }


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest order statistic with at
    least ten samples above it (the maximum when there are fewer than 11)."""
    return n - 11 if n >= 11 else n - 1


def layer_metrics(spans: dict) -> dict:
    """Per-layer metrics of one traced round (see `PER_LAYER`).

    ``s`` is inclusive time; ``self_s`` subtracts the time of direct child
    spans (the program is single-threaded, so children never overlap).
    A layer that did no work in the round reads 0.
    """
    names, parents = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    child_time = np.zeros(len(dur))
    has_parent = parents >= 0
    np.add.at(child_time, parents[has_parent], dur[has_parent])
    self_time = dur - child_time

    def pick(name):
        return names == name

    def calls(name):
        return int(np.count_nonzero(pick(name)))

    def total(name, values=dur):
        return float(np.sum(values[pick(name)]))

    grids = pick("regularization.build_grid") | pick("regularization.build_grid_1d")
    nodes = spans["size"][grids]
    kt = pick("backreaction.koopmon_terms")
    particle_nodes = int(np.sum(spans["size"][kt]))
    steps_ms = np.sort(dur[pick("dynamics.rk4_step")]) * 1e3

    m = {
        "config.load_config.s": total("config.load_config"),
        "sampling.init_ensemble.s": total("sampling.init_ensemble"),
        "regularization.build_grid.calls": calls("regularization.build_grid"),
        "regularization.build_grid.s": total("regularization.build_grid"),
        "regularization.build_grid_1d.calls": calls("regularization.build_grid_1d"),
        "regularization.build_grid_1d.s": total("regularization.build_grid_1d"),
        "regularization.box_nodes.mean": float(nodes.mean()) if nodes.size else 0.0,
        "regularization.box_nodes.max": int(nodes.max()) if nodes.size else 0,
        "regularization.box_nodes.total": int(nodes.sum()),
        "backreaction.koopmon_terms.calls": calls("backreaction.koopmon_terms"),
        "backreaction.koopmon_terms.s": total("backreaction.koopmon_terms"),
        "backreaction.koopmon_terms.ns_per_particle_node":
            total("backreaction.koopmon_terms") * 1e9 / particle_nodes
            if particle_nodes else 0.0,
        "backreaction.bohmion_terms.calls": calls("backreaction.bohmion_terms"),
        "backreaction.bohmion_terms.s": total("backreaction.bohmion_terms"),
        "dynamics.rk4_step.calls": int(steps_ms.size),
        "dynamics.rk4_step.ms_p50": float(np.median(steps_ms)) if steps_ms.size else 0.0,
        "dynamics.rk4_step.ms_tail":
            float(steps_ms[tail_index(steps_ms.size)]) if steps_ms.size else 0.0,
        "dynamics.rhs.self_s": total("dynamics.rhs", self_time),
        "dynamics.energy.calls": calls("dynamics.energy"),
        "dynamics.energy.s": total("dynamics.energy"),
        "dynamics.propagate.self_s": total("dynamics.propagate", self_time),
        "models.hamiltonian.calls": calls("models.hamiltonian"),
        "models.hamiltonian.s": total("models.hamiltonian"),
        "models.adiabatic_basis.calls": calls("models.adiabatic_basis"),
        "models.adiabatic_basis.s": total("models.adiabatic_basis"),
        "diagnostics.particle_diagnostics.s": total("diagnostics.particle_diagnostics"),
        "diagnostics.smoothed_cloud.s": total("diagnostics.smoothed_cloud"),
        "diagnostics.wigner.s": total("diagnostics.wigner"),
        "diagnostics.waterfall.s": total("diagnostics.waterfall"),
        "soft.strang_step.calls": calls("soft.strang_step"),
        "soft.strang_step.s": total("soft.strang_step"),
        "soft.observables.s": total("soft.observables"),
        "soft.potential_matrix_fields.s": total("soft.potential_matrix_fields"),
        "ensemble.write_snapshot.s": total("ensemble.write_snapshot"),
        "runner.run.self_s": total("runner.run", self_time),
        "runner.write_density.s": total("runner.write_density"),
        "runner.compare.s": total("runner.compare"),
        "trace.spans": int(len(names)),
    }
    return m
