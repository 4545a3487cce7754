"""Lens-array downlink simulator.

Wave-optics focusing through a dielectric lens, correlated Rayleigh channels
modulated by the focused power profile, limited-feedback codebook
quantization, and zero-forcing / matched precoding sum rates, end to end.
"""

from .channel import (UserConfig, apply_lens, correlation_matrix, draw_channel,
                      laplacian_pas, matrix_sqrt, power_correlation_matrix)
from .errors import ConfigError, DomainError, LensMimoError
from .feedback import (GaussianProfileModel, Shaping, fit_gaussian_model,
                       gaussian_profile, random_codebook, real_block, select_codeword)
from .linklevel import (ScenarioConfig, SimResult, build_scenario_profiles,
                        fit_sector_model, mrt_precoder, parse_quantizer,
                        received_sinr, run_monte_carlo, sum_rate, zf_precoder)
from .profile_cache import ProfileTable, build_profile_table
from .waveoptics import (ArraySpec, FieldHistory, LensSpec, PropagationGrid,
                         antenna_power_profile, extract_power_profile,
                         find_focal_peak, fresnel_transfer, lens_phase_profile,
                         propagate)

__version__ = "0.1.0"
