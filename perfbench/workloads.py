"""The benchmark's workloads: which runs one round makes, and with what inputs.

A round is the workload's operations in order: one `runner.run` per entry of
``runs``, then one `runner.compare` over ``compare`` when it is set.  Every
round of a workload makes the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seeds reach the particle runs as ``init.sobol_skip = 1 + seed % SKIP_PERIOD``.
#: Skip 0 would keep the Sobol origin, which the inverse normal CDF maps to
#: -inf; the period keeps the Python-level Sobol walk short for any seed.
SKIP_PERIOD = 1024


def sobol_skip(seed: int) -> int:
    return 1 + seed % SKIP_PERIOD


@dataclass(frozen=True)
class Run:
    """One `runner.run` call: a preset, a method and overrides on top."""

    label: str            # directory of the run's artifacts inside the round
    preset: str
    method: str
    overrides: tuple = ()  # (config key, value) pairs

    def config_overrides(self, seed: int) -> dict:
        out = {"run.method": self.method, **dict(self.overrides)}
        if self.method != "soft":          # the wavefunction has no particles
            out["init.sobol_skip"] = sobol_skip(seed)
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple
    compare: tuple = ()   # labels of the runs that `runner.compare` aligns


# tully3 branches after t ~ 1100: the single box grows from ~4.2k nodes to
# ~18k at t = 1400, so the last steps of the run cost several times the first.
TULLY3_T_FINAL = 1400.0

WORKLOADS = {w.name: w for w in (
    Workload(
        name="tully3-koopmon-branching",
        runs=(Run("koopmon", "tully3", "koopmon", (
            ("run.n_particles", 200),
            ("run.t_final", TULLY3_T_FINAL),
            ("run.snapshot_times", (0.0, 1000.0, TULLY3_T_FINAL)),
        )),),
    ),
    Workload(
        name="rabi_ds-methods",
        runs=(Run("koopmon", "rabi_ds", "koopmon"),
              Run("bohmion", "rabi_ds", "bohmion")),
    ),
    Workload(
        name="tully1-reference",
        runs=(Run("soft", "tully1", "soft"),
              Run("ehrenfest", "tully1", "ehrenfest")),
        compare=("soft", "ehrenfest"),
    ),
)}
