"""Uplink multiple access with heterogeneous blocklength and reliability
constraints: layered discrete signaling with treating-interference-as-noise
decoding, evaluated at finite blocklength."""

import os

# hetmac makes no BLAS call, and OpenBLAS's worker pool, started when numpy loads, only spins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import ChannelConfig, UserSpec, bit_levels, db_to_linear
from .detmac import (
    achieved_rates,
    allocation_feasible,
    random_full_rank,
    rank_f2,
    verify_region,
)
from .fblrate import (
    BenchmarkRegion,
    RateReport,
    SweepResult,
    build_rate_report,
    epsilon_bound,
    fbl_rate,
    gaussian_sic_region,
    gaussian_tin_rates,
    q_function,
    q_inv,
    rate_region_sweep,
)
from .infodensity import (
    MI_GAP_BITS,
    DensityStats,
    estimate_stats,
    gaussian_tin_mi,
)
from .pipeline import (
    BitAllocation,
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
