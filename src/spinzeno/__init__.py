"""Survival probability and Zeno/anti-Zeno decay rates of a repeatedly
measured spin-boson system, computed with a polaron-frame second-order
perturbative method plus an exact-evolution validation oracle (matrix-free
Chebyshev propagation on a truncated Fock space)."""

from .bath import BathKernel, DiscreteBath, SpectralDensity
from .config import RunConfig, parse_config, sweep_cells
from .tables import Row, emit_csv, emit_json
from .errors import (ConfigError, DegenerateSystemError, DimensionBudgetError,
                     DivergentKernelError, DomainError,
                     NonFiniteIntegrandError, OutOfRegimeError,
                     QuadratureError, SpinZenoError, TruncationError)
from .oracle import (ExactEvolution, LabHamiltonian, TruncatedBathSpec,
                     initial_vector_lab)
from .polaron import PolaronParams, SystemParams, renormalize, rot_coeffs
from .regimes import (RegimeLabel, RegimeReport, classify, sample_curve,
                      tau_grid)
from .survival import (DecayCurve, SurvivalMode, integrate_triangle,
                       survival_prob, validity_value)

__version__ = "0.1.0"
