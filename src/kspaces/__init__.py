"""Gauge integration, infinite-dimensional box measures, and the
Kuelbs-Steadman K^p norms, inner product and Fourier transform."""

from .boxes import (
    BoxSet,
    ElementaryProduct,
    MeasureValue,
    TailFamily,
    box_intersect,
    box_union,
    j_interval,
    mu_b,
    vjn_measure,
)
from .errors import (
    DimensionCapExceeded,
    EvaluationError,
    KSError,
    MissingAbsoluteBound,
    NotCauchy,
    ParseError,
    PartitionBudgetExceeded,
    TailFamilyMismatch,
    ToleranceNotMet,
    UnresolvedTail,
)
from .expr import compile_expression, parse_expression, pretty_print
from .fourier import (
    BoundReport,
    FourierValue,
    FrequencyPoint,
    fourier_bound_check,
    fourier_tame,
    fourier_tame_result,
    sinc_tail,
)
from .gauge import (
    Gauge,
    IntegralResult,
    Interval,
    TaggedPartition,
    cousin_partition,
    hk_integrate,
    hk_integrate_many,
    integrate_boxes,
    integrate_nd_result,
    is_delta_fine,
    riemann_sum,
    uniform_partition,
)
from .infinite import (
    ConvergenceReport,
    TailMeasureConfig,
    integrate_limit,
    integrate_tame,
)
from .kp import (
    DualityFamily,
    EmbeddingReport,
    Functionals,
    KpConfig,
    NormResult,
    WeightSequence,
    compute_functionals,
    geometric_weights,
    k2_inner,
    kp_norm,
    lq_norm,
    verify_embedding,
)
from .tame import TameFunction

__version__ = "0.1.0"
