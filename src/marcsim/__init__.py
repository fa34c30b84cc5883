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
    draw_states,
    ru_for_sigma_q2,
    sample_fading,
    sample_fading_block,
    sigma_q2_for_fixed_ru,
    slot1_system,
    slot2_system,
    substream,
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
    RateTarget,
    RegionOutcome,
    classify_region,
    common_outage_mc,
    expected_sum_rate_common,
    expected_sum_rate_indiv,
    gqf_outage_indicator,
    individual_outage_mc,
    optimize_ru_grid,
    outage_flags,
)
from .rates import (
    FeasibilityError,
    GqfBounds,
    MarcPmfFamily,
    RateRegion,
    af_region,
    cf_region_discrete,
    cf_region_gaussian,
    csit_region,
    df_region,
    direct_mac_region,
    gqf_bounds_discrete,
    gqf_bounds_gaussian,
    gqf_min_terms_gaussian,
    gqf_region,
    gqf_region_discrete,
    nonwz_cf_region_fading,
    optimize_sigma_beta_grid,
    quantizer_index_rate,
    quantizer_index_rate_discrete,
    sigma_q2_opt_indiv,
    sigma_q2_opt_sum,
)

__version__ = "0.1.0"
