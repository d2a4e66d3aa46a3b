"""Almost-squares: exact membership, counting, ranking, and remainder analysis.

The integers whose optimal integer-sided rectangle sets or ties the
record for the area-to-semiperimeter ratio.  The core and oracle APIs
are re-exported here.  The analysis names are not: import them from
almost_squares.analysis, so that importing the package or its CLI for
integer work does not load the analysis module.  The per-n trial
division that the tests hold the oracle's sieve against is not in the
package at all: it lives in the test suite, in tests/brute.py.
The package has no runtime dependencies beyond the standard library.
"""

from . import core, oracle
from .core import *
from .oracle import *

__version__ = "5.0.0"

__all__ = [*core.__all__, *oracle.__all__]
