"""Run configuration: INI-style config files, built-in presets, validation.

A config file is a flat key-value document with sections, e.g.::

    [run]
    preset = tully1
    method = koopmon

    [init]
    rho0 = ground

Unknown sections or keys are rejected.  Values from a named preset are
applied first, then the file, then programmatic overrides (CLI ``--set``),
so a preset plus a handful of overrides is the normal way to run.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import numbers
from dataclasses import dataclass

from .dynamics import _step_plan
from .models import make_model
from .regularization import GridParams
from .soft import SpatialGrid1D

PRESET_PROVENANCE = {
    "tully1": "single avoided crossing, low momentum; final time 3000",
    "tully2": "dual avoided crossing, low momentum; final time 2000",
    "tully3": "extended coupling with reflection; figures end at 3500, "
              "the preset runs to 4000 to cover the purity recovery",
    "rabi_us": "driven spin, ultrastrong coupling (gamma=0.29, C0=0.35)",
    "rabi_ds": "driven spin, deep strong coupling (gamma=1.85, C0=0.1)",
}

_SQRT2 = math.sqrt(2.0)

PRESETS: dict[str, dict] = {
    "tully1": {
        "run.model": "tully1", "run.n_particles": 1000, "run.alpha": 0.325,
        "run.dt": 2.0, "run.t_final": 3000.0,
        "run.snapshot_times": (0.0, 1280.0, 2130.0, 3000.0),
        "init.mu_q": -8.0, "init.mu_p": 10.0,
        "init.sigma_q_from_momentum": True, "init.rho0": "ground",
        "soft.r_min": -30.0, "soft.r_max": 40.0,
        "soft.n_points": 4096, "soft.dt": 1.0,
    },
    "tully2": {
        "run.model": "tully2", "run.n_particles": 1000, "run.alpha": 0.325,
        "run.dt": 2.0, "run.t_final": 2000.0,
        "run.snapshot_times": (0.0, 860.0, 1140.0, 2000.0),
        "init.mu_q": -8.0, "init.mu_p": 16.0,
        "init.sigma_q_from_momentum": True, "init.rho0": "ground",
        "soft.r_min": -30.0, "soft.r_max": 40.0,
        "soft.n_points": 4096, "soft.dt": 1.0,
    },
    "tully3": {
        "run.model": "tully3", "run.n_particles": 1000, "run.alpha": 0.325,
        "run.dt": 2.0, "run.t_final": 4000.0,
        "run.snapshot_times": (0.0, 1500.0, 2000.0, 3500.0),
        "init.mu_q": -15.0, "init.mu_p": 20.0,
        "init.sigma_q_from_momentum": True, "init.rho0": "ground",
        # transmitted parts accelerate on the lower surface, so the quantum
        # reference needs a wider box than the other scattering presets
        "soft.r_min": -64.0, "soft.r_max": 64.0,
        "soft.n_points": 8192, "soft.dt": 1.0,
    },
    "rabi_us": {
        "run.model": "rabi_us", "run.n_particles": 500, "run.alpha": 0.5,
        "run.dt": 0.05, "run.t_final": 25.0,
        "run.snapshot_times": (0.0, 10.5, 17.5, 25.0),
        "init.mu_q": 0.0, "init.mu_p": 4.0,
        "init.sigma_q": 1.0 / _SQRT2, "init.rho0": "excited",
        "soft.r_min": -15.0, "soft.r_max": 15.0,
        "soft.n_points": 2048, "soft.dt": 0.01,
    },
    "rabi_ds": {
        "run.model": "rabi_ds", "run.n_particles": 500, "run.alpha": 0.5,
        "run.dt": 0.05, "run.t_final": 15.0,
        "run.snapshot_times": (0.0, 4.0, 6.0, 8.0, 15.0),
        "init.mu_q": 0.0, "init.mu_p": 0.0,
        "init.sigma_q": 1.0 / _SQRT2, "init.rho0": "excited",
        "soft.r_min": -15.0, "soft.r_max": 15.0,
        "soft.n_points": 2048, "soft.dt": 0.01,
    },
}


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one simulation run: the value of each
    `_SCHEMA` key in its field (see `_field`), and the ``model.*`` keys."""

    method: str
    model: str
    n_particles: int
    alpha: float
    dt: float
    t_final: float
    snapshot_times: tuple
    energy_tol: float
    # a worker-count hint, recorded in the manifest; no code reads it, and
    # results do not depend on it
    workers: int
    # quadrature box
    n_q: int
    n_p: int
    j_q: int
    j_p: int
    # initial conditions
    mu_q: float
    mu_p: float
    sigma_q: float
    rho0: str
    sobol_skip: int
    # quantum reference solver
    soft_r_min: float
    soft_r_max: float
    soft_n_points: int
    soft_dt: float
    # visualization
    delta: float
    wigner_nodes: int
    waterfall_nodes: int
    model_params: tuple = ()

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["snapshot_times"] = list(self.snapshot_times)
        d["model_params"] = dict(self.model_params)
        return d


_METHODS = ("koopmon", "ehrenfest", "bohmion", "soft")
_RHO0_NAMES = ("ground", "excited", "plus")

# section.key -> (type, default); REQUIRED means no default
_REQUIRED = object()
_BOX = GridParams()

_SCHEMA: dict[str, tuple] = {
    "run.preset": (str, None),
    "run.method": (str, _REQUIRED),
    "run.model": (str, _REQUIRED),
    "run.n_particles": (int, _REQUIRED),
    "run.alpha": (float, _REQUIRED),
    "run.dt": (float, _REQUIRED),
    "run.t_final": (float, _REQUIRED),
    "run.snapshot_times": ("floats", ()),
    "run.energy_tol": (float, 1e-2),
    "run.workers": (int, 0),
    "grid.n_q": (int, _BOX.n_q),
    "grid.n_p": (int, _BOX.n_p),
    "grid.j_q": (int, _BOX.j_q),
    "grid.j_p": (int, _BOX.j_p),
    "init.mu_q": (float, _REQUIRED),
    "init.mu_p": (float, _REQUIRED),
    "init.sigma_q": (float, None),
    "init.sigma_q_from_momentum": (bool, False),
    "init.rho0": (str, _REQUIRED),
    "init.sobol_skip": (int, 1),
    "soft.r_min": (float, -30.0),
    "soft.r_max": (float, 40.0),
    "soft.n_points": (int, 4096),
    "soft.dt": (float, 1.0),
    "viz.delta": (float, 0.25),
    "viz.wigner_nodes": (int, 256),
    "viz.waterfall_nodes": (int, 512),
}


#: What a value that is not text must be an instance of, per kind of key
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, "floats": numbers.Real,
            bool: bool, str: str}


def _field(key: str) -> str:
    """The `RunConfig` field of a `_SCHEMA` key: ``soft.x`` is ``soft_x``,
    any other key the name within its section."""
    section, name = key.split(".")
    return f"soft_{name}" if section == "soft" else name


def _coerce(key: str, kind, raw):
    """``raw`` as a value of the key's type ``kind``.

    Text, from a config file or ``--set``, is parsed.  Any other value must
    be of the key's type and is kept as given, except that an int is taken
    for a float and a bare number for ``floats``; None only for a key whose
    default is None.  Anything else raises `ConfigError` naming the key.
    """
    if not isinstance(raw, str):
        if raw is None and _SCHEMA.get(key, (kind, _REQUIRED))[1] is None:
            return None
        floats = kind == "floats"
        items = raw if floats and isinstance(raw, (tuple, list)) else (raw,)
        if not all(isinstance(x, _ACCEPTS[kind])
                   and isinstance(x, bool) == (kind is bool) for x in items):
            raise ConfigError(f"key {key!r}: expected "
                              f"{getattr(kind, '__name__', kind)}, got {raw!r}")
        return tuple(float(x) for x in items) if floats else kind(raw)
    text = raw.strip()
    try:
        if kind is bool:
            low = text.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(text)
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind == "floats":
            if not text:
                return ()
            return tuple(float(x) for x in text.replace(",", " ").split())
        return text
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse value {raw!r}") from None


def read_config_file(path: str) -> dict:
    """Parse an INI config file into a flat ``section.key -> raw`` mapping.

    Raises `ConfigError` for syntax problems (with the parser's line number).
    Keys are not checked here: `resolve_config` rejects unknown sections and
    keys among all the values it merges.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from None

    return {f"{section}.{key}": value for section in parser.sections()
            for key, value in parser.items(section)}


def resolve_config(file_values: dict | None = None, preset: str | None = None,
                   overrides: dict | None = None) -> RunConfig:
    """Merge preset, file and override values into a validated `RunConfig`.

    Precedence (low to high): preset, config file, overrides.
    """
    file_values = dict(file_values or {})
    overrides = dict(overrides or {})

    preset = preset or overrides.pop("run.preset", None) \
        or file_values.pop("run.preset", None)
    merged: dict = {}
    if preset is not None:
        preset = str(preset)
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: "
                              f"{sorted(PRESETS)}")
        merged.update(PRESETS[preset])
    merged.update(file_values)
    merged.update(overrides)

    bad = [k for k in merged
           if k not in _SCHEMA and not k.startswith("model.")]
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")

    values = {}
    missing = []
    for dotted, (kind, default) in _SCHEMA.items():
        if dotted == "run.preset":
            continue
        if dotted in merged:
            values[dotted] = _coerce(dotted, kind, merged[dotted])
        elif default is _REQUIRED:
            missing.append(dotted)
        else:
            values[dotted] = default
    if missing:
        raise ConfigError(f"missing required config keys: {sorted(missing)}")

    model_params = tuple(sorted(
        (k.split(".", 1)[1], _coerce(k, float, v))
        for k, v in merged.items() if k.startswith("model.")))

    problems = []
    if values["run.method"] not in _METHODS:
        problems.append(f"run.method must be one of {_METHODS}")
    if values["init.rho0"] not in _RHO0_NAMES:
        problems.append(f"init.rho0 must be one of {_RHO0_NAMES}")
    for key in ("run.n_particles", "run.alpha", "run.dt", "viz.delta",
                "grid.n_q", "grid.n_p", "grid.j_q", "grid.j_p",
                "soft.dt", "run.energy_tol", "init.sobol_skip",
                "viz.wigner_nodes", "viz.waterfall_nodes"):
        if not values[key] > 0:
            problems.append(f"{key} must be positive")
    if values["run.t_final"] < 0:
        problems.append("run.t_final must be nonnegative")

    sigma_q_from_momentum = values.pop("init.sigma_q_from_momentum")
    sigma_q = values["init.sigma_q"]
    if sigma_q is None:
        if sigma_q_from_momentum:
            if values["init.mu_p"] == 0.0:
                problems.append("init.sigma_q_from_momentum requires mu_p != 0")
            else:
                sigma_q = 20.0 / (_SQRT2 * values["init.mu_p"])
        else:
            problems.append("one of init.sigma_q or "
                            "init.sigma_q_from_momentum is required")
    if sigma_q is not None and not sigma_q > 0:
        problems.append("init.sigma_q must be positive")
    if problems:
        raise ConfigError("; ".join(problems))

    # the time loop's, the quantum grid's and the model's own checks, before
    # the run starts
    dt_key = "soft.dt" if values["run.method"] == "soft" else "run.dt"
    dt, t_final = values[dt_key], values["run.t_final"]
    key = dt_key
    try:
        _step_plan(dt, t_final, ())
        key = "run.snapshot_times"
        _step_plan(dt, t_final, values["run.snapshot_times"])
        key = "soft.r_min, soft.r_max, soft.n_points"
        if values["run.method"] == "soft":
            SpatialGrid1D(values["soft.r_min"], values["soft.r_max"],
                          values["soft.n_points"])
        key = "run.model, model.*"
        make_model(values["run.model"], **dict(model_params))
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from None

    values["init.sigma_q"] = sigma_q
    return RunConfig(model_params=model_params,
                     **{_field(k): v for k, v in values.items()})


def load_config(path: str | None, preset: str | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Load and validate a run configuration from a file and/or preset."""
    file_values = read_config_file(path) if path is not None else {}
    return resolve_config(file_values, preset=preset, overrides=overrides)
