"""Performance bounds and simulation for window flow control with random service."""

from .algebra import (
    BivariateFunction,
    ClosureNonConvergence,
    convolve,
    make_delta,
    make_delta_plus_w,
    pointwise_min,
    subadditive_closure,
)
from .bounds import (
    BoundResult,
    FeedbackParams,
    LogMgfCurve,
    ThetaGrid,
    backlog_bound,
    best_effcap_lower,
    block_curve,
    effcap_apriori,
    effcap_lower_blocks,
    effcap_lower_series,
    feedback_mgf_blocks_iid,
    feedback_mgf_blocks_markov,
    per_slot_curve,
    series_curve,
    statistical_service_curve,
    steady_state_backlog_bound,
)
from .models import (
    DeterministicService,
    ExponentialArrivals,
    ExponentialVbrService,
    LeftoverService,
    MarkovModulated2Service,
    MmooService,
    erlang_quantile,
)
from .oracle import (
    SamplePath,
    apriori_envelope,
    equivalent_service_batch,
    equivalent_service_closure,
    equivalent_service_dp,
    equivalent_service_dp_row,
)
from .simulator import (
    SimConfig,
    SimRun,
    backlog_quantile,
    run_flow_control,
)

__version__ = "0.1.0"
