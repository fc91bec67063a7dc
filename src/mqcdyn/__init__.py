"""Mixed quantum-classical particle dynamics.

Coupled-trajectory particle methods for nonadiabatic two-level dynamics
(koopmon, multi-trajectory Ehrenfest, bohmion) together with a fully quantum
split-operator reference solver, quasi-random Wigner-distribution
initialization, and the standard two-level scattering / driven-spin
benchmark models.  Atomic units, hbar = 1.
"""

__version__ = "0.1.0"

from . import _heap  # noqa: F401  (keeps freed work arrays in the heap)
from .config import PRESETS, ConfigError, RunConfig, load_config, resolve_config
from .diagnostics import (DensityField, DiagnosticsRecord, particle_diagnostics,
                          smoothed_cloud, waterfall, wigner)
from .dynamics import (EnergyDriftError, EnsembleDerivative, MethodKind,
                       energy, propagate, rhs, rk4_step)
from .ensemble import Ensemble2D, ParticleEnsemble, validate
from .models import HybridHamiltonian, make_model, model_names
from .regularization import (GridParams, KernelSpec, Lattice, QuadratureGrid,
                             build_grid, build_grid_1d, quadrature)
from .runner import CompareReport, compare, run
from .sampling import InitSpec, init_ensemble, sobol_2d
from .soft import (SpatialGrid1D, WavepacketState, init_wavepacket,
                   observables, propagate_soft, strang_step)
