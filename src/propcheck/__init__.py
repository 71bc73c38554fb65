"""Property-based differential testing for constraint filtering algorithms."""

from .checkers import Checker, all_different, sum_equals
from .comparator import (
    AssertionBuilder,
    ComparisonMode,
    Failure,
    Filter,
    FilterAssertionError,
    TestReport,
    assert_that,
    check,
    stronger,
)
from .domains import (
    INCONSISTENT,
    Assignment,
    ContractViolationError,
    Domain,
    Filtered,
    FilterOutcome,
    Instance,
    is_fixed,
    is_leaf,
    pointwise_equal,
    pointwise_subset,
)
from .generator import (
    DEFAULT_SHRINK_BUDGET,
    GenConfig,
    ShrinkResult,
    SplitMix64,
    generate_instance,
    shrink,
)
from .minisolver import (
    AllDifferentAC,
    AllDifferentFC,
    BugId,
    Inconsistency,
    Recipe,
    Solver,
    SumEqualsBC,
    all_different_ac,
    all_different_fc,
    as_filter,
    as_filter_with_state,
    sum_equals_bc,
    with_bug,
)
from .reference import (
    DEFAULT_CAP,
    ConsistencyLevel,
    EnumerationCapExceeded,
    arc_filter,
    bound_d_filter,
    bound_z_filter,
    make_reference,
    range_filter,
    solutions,
)
from .stateful import (
    POP,
    PUSH,
    BranchOp,
    DiveConfig,
    FilterWithState,
    IncrementalFiltering,
    Pop,
    Push,
    RestrictDomain,
    apply_restriction,
    dive_campaign,
    dives,
    random_restriction,
    replay,
)

__version__ = "0.1.0"
