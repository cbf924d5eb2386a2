"""Numerical exact controllability for semilinear wave equations.

Distributed controls for y_tt - Lap y + g(y) = f 1_omega computed by a
globally convergent damped-Newton least-squares iteration, with a
minimal-norm linear-control kernel (conjugate gradient on the adjoint
Gramian), baseline linearization methods, and a batch CLI.
"""

from .baselines import newton_classic_solve, picard_solve, variant_solve
from .errors import BlowupError, ConfigError, InsufficientRecords
from .fields import (SpaceTimeField, StatePair, h_norm, l2_qt, linf_l1, linf_lp,
                     linf_v, v_norm)
from .grids import (ControlRegion, GeometryReport, SpaceTimeGrid,
                    check_geometric_condition, interval_region, rectangle_region,
                    sides_region)
from .least_squares import (IterateRecord, LSConfig, LSResult, OrderEstimate, compute_E,
                            descent_direction, estimate_order, line_search, ls_solve)
from .linear_control import (ControlSolution, LinearControlProblem, dense_oracle_control,
                             gramian_apply, hum_pairing, solve_null_control)
from .nonlinearity import (GrowthCheck, Nonlinearity, beta_star, builtin,
                           check_growth_H2, holder_seminorm_sample)
from .profiles import build_state, sample_profile
from .solver import (discrete_energy, initial_state, residual_field, solve_backward,
                     solve_forward, terminal_state)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
