"""Desk-scale simulator for fiber photon-pair sources with Raman noise
and mode-matched spectral-temporal filtering."""

from .config import RunConfig, load_config, parse_config
from .distill import purified_fidelity
from .errors import (DomainError, InfeasibleError, NumericalError, ParseError,
                     PhysicalityError)
from .filters import (FilterModes, FilterSearchResult, SearchSpace,
                      SpectralProfile, filter_modes, ideal_matched_filter,
                      kappa_gaussian_shutter, open_filter, optimize_filter,
                      practical_filter, shutter_gaussian, shutter_trace,
                      super_gaussian)
from .numerics import (Grid, ModeDecomposition, decompose_kernel, integrate,
                       interpolate_modes, make_band_grid, mode_overlap)
from .sfwm import (ExperimentParams, RamanModel, band_coincidence_integral,
                   calibrate_raman, default_raman_model, load_raman_table,
                   params_for_pair_probability, sfwm_modes,
                   unfiltered_pair_probability, xi)
from .units import binary_entropy, detuning_to_angular, thermal_occupation
from .visibility import (RateModel, UnfilteredBudget, VisibilityReport,
                         coincidence_term, evaluate_operating_point,
                         key_fraction, overall_gain, pair_term, qber_from_visibility,
                         raman_term, saturated_visibility_filtered,
                         saturated_visibility_open, tpi_visibility,
                         unfiltered_budget, visibility_open)

__version__ = "0.1.0"
