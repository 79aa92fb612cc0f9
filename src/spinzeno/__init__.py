"""Survival probability and Zeno/anti-Zeno decay rates of a repeatedly
measured spin-boson system, computed with a polaron-frame second-order
perturbative method plus an exact-diagonalization validation oracle."""

from .bath import (BathKernel, DiscreteBath, KernelTable, SpectralDensity,
                   ZERO_TEMPERATURE)
from .config import RunConfig, apply_sweep, parse_config
from .tables import ResultTable, emit_csv, emit_json, parse_json
from .errors import (ConfigError, DegenerateSystemError, DimensionBudgetError,
                     DivergentKernelError, DomainError, QuadratureError,
                     SpinZenoError, TruncationError)
from .oracle import (ExactEvolution, TruncatedBathSpec, build_lab_hamiltonian,
                     discretize_bath, initial_vector_lab)
from .polaron import (PolaronParams, SystemParams, renormalize, rot_coeffs,
                      u_s_matrix)
from .quadrature import integrate_semiinfinite, integrate_triangle
from .regimes import (DecayCurve, RegimeLabel, RegimeReport, classify,
                      sample_curve)
from .survival import (SurvivalMode, SurvivalResult, survival_prob,
                       validity_value)

__version__ = "0.1.0"
