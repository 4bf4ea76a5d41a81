"""Movable-antenna frequency-hopping MIMO radar toolbox.

Ambiguity-function evaluation for frequency-hopped waveforms with movable
transmit antennas, closed-form main-lobe/sidelobe theory, Riemann-sum
objectives with analytic gradients, a gradient-projection optimizer with a
genetic-algorithm baseline, and Monte Carlo detection metrics.
"""

from .ambiguity import (AmbiguityQuery, AmbiguitySlice, af_slice, chi,
                        chi_mag_sq, chi_oracle, chi_r)
from .ga import GaParams, GaResult, ga_optimize
from .metrics import (BoundGap, DetectionCurve, LobeReport, bound_gap,
                      detection_probability, measure_lobes)
from .model import (AntennaLayout, DetectionParams, FhCode, RadarConfig,
                    ValidationError, equidistant_layout, generate_fh_code,
                    load_config, load_fh_code, parse_config,
                    random_feasible_layout, save_fh_code)
from .objective import (ObjectiveEvaluator, ObjectiveGrid, build_grid,
                        finite_diff_grad)
from .output import __version__
from .rgpm import (FeasiblePolytope, IterRecord, RgpmResult, rgpm_multistart,
                   rgpm_optimize)
from .theory import (TheoryBound, b_min, delay_lower_bound,
                     doppler_lower_bound, mmlwd_layout)

__all__ = [
    "AmbiguityQuery", "AmbiguitySlice", "af_slice", "chi", "chi_mag_sq",
    "chi_oracle", "chi_r",
    "GaParams", "GaResult", "ga_optimize",
    "BoundGap", "DetectionCurve", "LobeReport", "bound_gap",
    "detection_probability", "measure_lobes",
    "AntennaLayout", "DetectionParams", "FhCode", "RadarConfig",
    "ValidationError", "equidistant_layout", "generate_fh_code",
    "load_config", "load_fh_code", "parse_config", "random_feasible_layout",
    "save_fh_code",
    "ObjectiveEvaluator", "ObjectiveGrid", "build_grid", "finite_diff_grad",
    "FeasiblePolytope", "IterRecord", "RgpmResult", "rgpm_multistart",
    "rgpm_optimize",
    "TheoryBound", "b_min", "delay_lower_bound", "doppler_lower_bound",
    "mmlwd_layout",
    "__version__",
]
