"""Almost-squares: exact membership, counting, ranking, and remainder analysis.

The integers whose optimal integer-sided rectangle sets or ties the
record for the area-to-semiperimeter ratio.  The core and oracle APIs
are re-exported here; the floating-point analysis names load lazily on
first use, so that importing the package or its CLI for integer work
does not load the analysis module.  The package has no runtime
dependencies beyond the standard library.
"""

from . import core, oracle
from .core import *
from .oracle import *

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

__all__ = [*core.__all__, *oracle.__all__, *sorted(_ANALYSIS_NAMES)]


def __getattr__(name: str):
    # Every `import almost_squares.cli` runs this package first; an eager
    # analysis import here made it 29.4 -> 36.0 ms (median, fresh interpreters).
    if name in _ANALYSIS_NAMES:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
