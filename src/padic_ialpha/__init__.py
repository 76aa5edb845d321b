"""Fractional integration of radial functions over the p-adic numbers.

The operator acts on radial profiles f(|y|_p) through a kernel built from
the distance |x - y|_p; on each sphere the ultrametric inequality collapses
the kernel to a constant, so operator values reduce to certified sphere
sums.  The package pairs that evaluator with closed-form coefficient
engines for the operator's expansions at the origin and at infinity, decay
checks for the associated tail integrals, and a Haar-measure Monte Carlo
oracle over truncated p-adic digit expansions.
"""

from .asymptotics import (
    AsymptoticPrediction,
    b_coefficient,
    gen_binomial,
    omega,
    omega_tilde,
    phi_sum,
    predict_infinity,
    predict_infinity_beta1,
    predict_origin,
    series_B,
)
from .core import (
    EXACT_ZERO,
    ZERO,
    AlphaOutOfRange,
    BetaOutOfRange,
    DivergentInnerSum,
    HypothesisMismatch,
    LogBase,
    LogDomain,
    MissingTail,
    NumericContext,
    NumericModeError,
    PadicApprox,
    ParamOutOfRange,
    ParseError,
    PrecisionExhausted,
    QOutOfRange,
    RandomStream,
    TailMismatch,
    UndefinedAtZero,
    ball_power_integral,
    haar_sample_ball,
    padic_sub_abs,
    prefactor,
    sphere_measure,
    unit_kernel_integral,
)
from .ialpha import (
    OperatorValue,
    ialpha_eval,
    ialpha_monomial_exact,
    mc_ialpha_eval,
    smallball_kernel_integral,
)
from .radial import (
    Indicator,
    LinearCombo,
    LogPower,
    Monomial,
    OuterTail,
    PowerTail,
    RadialFunction,
    Table,
    ZeroTail,
    cumulative_ball_integral,
    eval_sphere,
    origin_expansion,
    outer_expansion,
)
from .verify import (
    ResidualReport,
    ResidualRow,
    lemma_decay_check,
    ratio_bound_check,
    residual_scan,
)

__version__ = "0.1.0"
