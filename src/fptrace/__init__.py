"""fptrace: certified verification of frame-proof codes, traceability
schemes, and the parameter bounds claimed for them.

The package verifies combinatorial collusion-security properties exactly
(coalition enumeration with deterministic witnesses) and compares
transcendental bound expressions through rational interval enclosures with
directed rounding, so every True/False verdict is machine-certified.
"""

from .rigor import (
    BudgetExceededError,
    Certainty,
    DomainError,
    Enclosure,
    binom,
    certify_less,
    entropy_enclosure,
    log2_enclosure,
    sqrt_enclosure,
)
from .fpcode import (
    Code,
    CodeFormatError,
    FeasibleDefinition,
    FrameproofVerdict,
    construct_identity_concat,
    is_frameproof,
    min_distance,
    parse_code,
    weight_set,
)
from .tascheme import (
    KeyScheme,
    SchemeFormatError,
    TAVerdict,
    TraceResult,
    is_traceable_exact,
    is_traceable_structural_disjoint,
    make_disjoint_scheme,
    parse_scheme,
    sample_traceability,
    trace,
)
from .bounds import (
    BoundReport,
    Thm6Params,
    Thm7Params,
    contradiction_report_thm6,
    contradiction_report_thm7,
    is_prime_power,
    sigma_constraint,
    ssw_upper,
    sw_upper_bound,
    thm6_lower,
    thm7_lower,
)
from .paramscan import (
    CaseTag,
    DeltaWindow,
    EitherOr,
    ScanMode,
    ScanReport,
    candidate_filter,
    delta_window,
    either_or_classify,
    f_value,
    scan_infeasibility,
    sigma_construction,
    theorem10_statement_collapse,
    verify_cases,
)

__version__ = "0.1.0"
