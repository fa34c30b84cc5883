"""Rates, outage and throughput of quantize-forward relaying over the
half-duplex two-source relay network, under static Gaussian channels and
block-Rayleigh fading."""

from .channel import (
    BLOCK_SIZE,
    FADING,
    STATIC,
    ChannelState,
    FadingProfile,
    PowerConfig,
    sample_fading_block,
)
from .info import (
    DegenerateCovarianceError,
    GaussianSystem,
    JointPMF,
    LabelError,
    entropy_discrete,
    mutual_info_discrete,
    mutual_info_gaussian,
)
from .outage import (
    IndividualOutageEstimate,
    OutageEstimate,
    common_outage_mc,
    expected_sum_rate_common,
    expected_sum_rate_indiv,
    individual_outage_mc,
    optimize_ru_grid,
    outage_flags,
)
from .rates import (
    FeasibilityError,
    GaussianFamily,
    GqfBounds,
    MarcPmfFamily,
    RateRegion,
    RateTarget,
    cf_region,
    gqf_bounds,
    gqf_min_terms_gaussian,
    gqf_region,
    quantizer_index_rate,
    region,
    sigma_q2_for_fixed_ru,
    sigma_q2_opt_sum,
)

__version__ = "0.1.0"
