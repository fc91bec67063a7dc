"""Mixed quantum-classical particle dynamics.

Coupled-trajectory particle methods for nonadiabatic two-level dynamics
(koopmon, multi-trajectory Ehrenfest, bohmion) together with a fully quantum
split-operator reference solver, quasi-random Wigner-distribution
initialization, and the standard two-level scattering / driven-spin
benchmark models.  Atomic units, hbar = 1.
"""

__version__ = "0.1.0"

from . import _heap  # noqa: F401  (keeps freed work arrays in the heap)
from .backreaction import (PairIntegralTable, bohmion_pairs,
                           bohmion_pairs_factorized_2dof, koopmon_pairs,
                           koopmon_pairs_factorized_2dof)
from .config import PRESETS, ConfigError, RunConfig, load_config, resolve_config
from .diagnostics import (DensityField, DiagnosticsRecord, particle_diagnostics,
                          smoothed_cloud, waterfall, wigner)
from .dynamics import (EnergyDriftError, EnsembleDerivative, MethodKind,
                       energy, propagate, rhs, rk4_step)
from .ensemble import (Ensemble2D, ParticleEnsemble, aggregate_density,
                       validate)
from .models import (HybridHamiltonian, SpectralData, make_model, make_rabi,
                     make_tully, model_names, nac, spectral)
from .pauli import PauliVector
from .regularization import (GridParams, KernelSpec, QuadratureGrid,
                             build_grid, build_grid_1d, kernel_1d,
                             kernel_1d_deriv, trapezoid_1d, trapezoid_2d)
from .runner import CompareReport, compare, run
from .sampling import InitSpec, init_ensemble, sobol_2d
from .soft import (SpatialGrid1D, WavepacketState, init_wavepacket,
                   observables, propagate_soft, strang_step)
