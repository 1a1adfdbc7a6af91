"""Range-analysis substrates: interval, affine and Taylor-model arithmetic.

These are the baselines in the paper's comparison (Table 1).  The
affine forms are also the propagation algebra of the Symbolic Noise
Analysis method (``pna``): its noise symbols are an affine form's.
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
