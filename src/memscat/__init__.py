"""Multipole solver for 2D multiple scattering of Helmholtz waves by
disjoint sound-soft circular cylinders, with a convergence-analysis harness
measuring truncation error against closed-form decay envelopes."""

from .analysis import (BreakdownReport, ConvergenceReport, RateFit,
                       approximation_error, breakdown_check,
                       convergence_sweep, fit_rate, gamma1, gamma2,
                       onset_truncation, sigma_series_raw,
                       theorem_slack, write_bounds_csv, write_report_csv)
from .assembly import (NORM_L0, NORM_LHALF, BlockOperator, CoefficientVector,
                       assemble_raw, assemble_system, dump_system,
                       load_system_dump, mode_range, mode_weights,
                       pairing_block_quadrature)
from .errors import (CapabilityError, InsufficientPointsError,
                     InteriorPointError, NonConvergenceError,
                     SceneValidationError, SingularSystemError)
from .field import (boundary_residual, far_field_amplitude, incident_field,
                    scattered_field, single_layer_field_quadrature,
                    total_field, total_field_grid, write_field_csv,
                    write_plot_script)
from .presets import DEFAULT_SOURCE, PRESET_NAMES, PRESET_RADII, preset_scene
from .scene import (Cylinder, PairGeometry, PlaneWave, PointSource, Scene,
                    dumps_scene, load_scene, loads_scene, pairwise_geometry,
                    require_valid, validate_scene)
from .solver import SolveResult, solve

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
