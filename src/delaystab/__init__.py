"""Simulation and exponential-stability tests for scalar linear delay
difference equations x(n+1) - x(n) = -sum_l a_l(n) x(h_l(n)) + f(n)."""

from .seqexpr import (
    DelaySpec,
    SeqEvalError,
    SeqExpr,
    SeqSyntaxError,
    classify,
    evaluate,
    eval_range,
    parse,
)
from .equation import (
    Equation,
    InitialData,
    Term,
    merge_same_delay,
    prefix_modify,
    subset_equation,
    validate,
)
from .simulator import (
    Kernel,
    KernelMemoryError,
    Trajectory,
    cauchy_apply,
    fundamental,
    kernel,
    lemma6_sum,
    pituk_sum,
    product_bound,
    representation_check,
    simulate,
)
from .limits import (
    AsymptoticEstimate,
    limsup_product,
)
from .criteria import (
    Outcome,
    PositivityCertificate,
    PositivityRefutation,
    Verdict,
    certify_positivity,
    positivity_scan,
    run_all,
    stable_verdicts,
)
from .oracle import (
    DecayFit,
    SpectralReport,
    companion_radius,
    decay_fit,
    exact_stable,
    fit_decay,
    random_equation,
    tail_equivalence_test,
)

__version__ = "0.1.0"

# No compiled kernel path exists; perfbench/run.py reports this flag.
NUMBA_ENABLED = False
