"""Range-analysis substrates: interval, affine and Taylor-model arithmetic.

These are both baselines in the paper's comparison (Table 1) and the
per-cell kernel of the Symbolic Noise Analysis algorithm: each histogram
bin is an interval, and every Cartesian combination of bins is evaluated
with plain interval arithmetic.
"""

from repro.intervals.affine import AffineContext, AffineForm
from repro.intervals.interval import Interval
from repro.intervals.taylor import TaylorModel

__all__ = [
    "Interval",
    "AffineForm",
    "AffineContext",
    "TaylorModel",
]
