"""Uplink multiple access with heterogeneous blocklength and reliability
constraints: layered discrete signaling with treating-interference-as-noise
decoding, evaluated at finite blocklength."""

from .config import ChannelConfig, UserSpec, bit_levels, db_to_linear
from .detmac import (
    DetConfig,
    F2Matrix,
    achievability_holds,
    achieved_rates,
    allocation_feasible,
    build_generator,
    component_generators,
    det_mutual_info,
    random_full_rank,
    rank_f2,
    shift_matrix,
    verify_region,
)
from .fblrate import (
    BenchmarkRegion,
    RateReport,
    SweepResult,
    berry_esseen_constant,
    build_rate_report,
    epsilon_bound,
    fbl_rate,
    gaussian_sic_region,
    gaussian_tin_rates,
    lambda_threshold,
    q_function,
    q_inv,
    rate_region_sweep,
    refined_epsilon,
)
from .infodensity import (
    MI_GAP_BITS,
    DensityStats,
    estimate_stats,
    gaussian_tin_mi,
    information_density,
    mi_lower_bound,
)
from .pipeline import (
    BitAllocation,
    CodeParams,
    enumerate_allocations,
    select_code_params,
)
from .signaling import (
    Constellation,
    SchemeSignaling,
    build_scheme,
    regular_qam,
    superimpose,
    verify_lemma2,
    write_constellation_csv,
)

__version__ = "0.1.0"
