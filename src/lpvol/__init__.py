"""lpvol: exact intrinsic volumes, surface moments, curvature measures,
asymptotics, and limit laws of coordinate-weighted p-balls."""

# the one version string: pyproject.toml reads it, the CLI manifest too
__version__ = "0.1.0"

from .errors import (ConvergenceFailure, DegenerateInput, DomainError,
                     LpvolError, OverflowGuard, QuadratureFailure)
from .logspace import LogValue
from .specfun import (DEFAULT_CONFIG, IJKL, QuadConfig, as_exponent,
                      f_family, f_family_at_zero, f_family_at_zero_log,
                      f_family_large_t, f_family_log, f_family_log_table,
                      ijkl, kappa, log_kappa)
from .exactvol import (ExactResult, MomentRequest, PBallSpec,
                       intrinsic_volume, intrinsic_volume_weighted,
                       key_integral, kubota_projection_factor,
                       mean_projection_volume, mixed_moment,
                       steiner_polynomial, surface_moment, volume)
from .oracles import (McConfig, ball_vj, crosspolytope_vj, cube_vj,
                      ellipsoid_vj, project_lp_ball, steiner_mc_volume)
from .asymptotics import (PhasePoint, ProfilePoint, ProfileReferences,
                          bulk_asymptotic, exp_profile, face_index,
                          growth_law, left_edge_asymptotic, phase,
                          phase_maximizer, phase_second_derivative,
                          profile_references, right_edge_asymptotic,
                          surface_area_asymptotic, unit_volume_surface_area)
from .curvature import (BoundaryPoint, boundary_point, curvature_density,
                        gauss_curvature, gauss_map, inverse_gauss_map,
                        principal_curvatures, sigma_curvatures,
                        support_function)
from .maxwell import (ConvergenceRow, EmpiricalSample, LimitLaw,
                      convergence_table, finite_n_moment_ratio,
                      kolmogorov_distance, lambda0, limit_density,
                      limit_moment, nu_1_cdf, nu_inf_cdf,
                      sample_crosspolytope_skeleton, sample_cube_skeleton)
