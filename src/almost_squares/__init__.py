"""Almost-squares: exact membership, counting, ranking, and remainder analysis.

The integers whose optimal integer-sided rectangle sets or ties the
record for the area-to-semiperimeter ratio.  The core and oracle APIs
are re-exported here; the floating-point analysis names load lazily on
first use so that pure-integer work never imports numpy.
"""

from .core import (
    AlmostSquareRecord,
    FlockId,
    RatioValue,
    Rectangle,
    count_at_square,
    count_le,
    count_triangular_le,
    enumerate_range,
    flock_members,
    floor_almost_square,
    is_almost_square,
    isqrt,
    nth,
    pioneer,
    seq_a,
    seq_b,
    tri_decompose,
    triangular,
)
from .oracle import (
    DEFAULT_SCAN_CAP,
    DivisorPair,
    RecordSet,
    brute_divisor_pair,
    brute_is_member,
    brute_record_set,
    brute_semiperimeter,
    factorial_membership_scan,
)

__version__ = "1.0.0"

_ANALYSIS_NAMES = frozenset(
    {
        "AnalysisSample",
        "BTerms",
        "SamplingPlan",
        "b_value",
        "emit_series",
        "g_func",
        "h_func",
        "kite_region_contains",
        "limit_probe",
        "remainder",
        "tri_product_grid",
        "z_bracket",
    }
)

__all__ = [
    "AlmostSquareRecord",
    "FlockId",
    "RatioValue",
    "Rectangle",
    "count_at_square",
    "count_le",
    "count_triangular_le",
    "enumerate_range",
    "flock_members",
    "floor_almost_square",
    "is_almost_square",
    "isqrt",
    "nth",
    "pioneer",
    "seq_a",
    "seq_b",
    "tri_decompose",
    "triangular",
    "DEFAULT_SCAN_CAP",
    "DivisorPair",
    "RecordSet",
    "brute_divisor_pair",
    "brute_is_member",
    "brute_record_set",
    "brute_semiperimeter",
    "factorial_membership_scan",
    *sorted(_ANALYSIS_NAMES),
]


def __getattr__(name: str):
    if name in _ANALYSIS_NAMES:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
