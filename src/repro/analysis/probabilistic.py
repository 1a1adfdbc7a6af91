"""Probabilistic noise analysis ("pna") and confidence-bounded noise power.

The worst-case methods answer "how bad can the output error *ever* be";
this module answers "how bad is it with probability ``confidence``".  The
method propagates the same affine error forms as AA — the shared noise
symbols are the dependency tracking, so correlated reconvergent paths
combine symbolically instead of being treated as independent — and only
at the very end reads the form probabilistically: each remaining symbol
``eps_i`` is an independent uniform on ``[-1, 1]`` (the standard AA noise
model), so the output error is the convolution of per-symbol uniforms
``U(-|c_i|, +|c_i|)`` shifted by the center.  One fused loop performs
the convolution: it does the float operations of the histogram algebra's
``uniform().add()`` composition, bit for bit, without building and
re-validating a histogram object per symbol, and it can resume from the
prefix of steps it shares with the previous read (:class:`UniformChain`).

Two consumers:

* :meth:`DatapathNoiseAnalyzer.report` attaches the convolved PDF to
  the report (``NoiseReport.error_pdf``) so pipelines and tables can show
  distribution-level results next to the worst-case rows.
* :func:`confidence_noise_power` turns ``OptimizeConfig(confidence=...)``
  into the noise measure the SNR constraint judges: the squared
  ``confidence``-quantile of ``|error|`` (``confidence=1.0`` degrades to
  the squared worst-case enclosure magnitude, which every method can
  supply).
"""

from __future__ import annotations

import math
import sys
from typing import Any, List

import numpy as np

from repro.errors import HistogramError, NoiseModelError
from repro.histogram.arithmetic import _spread_core
from repro.histogram.pdf import HistogramPDF
from repro.intervals.affine import AffineForm
from repro.noisemodel.analyzer import PDF_METHODS, _enclosure_of

__all__ = [
    "PDF_METHODS",
    "UniformChain",
    "affine_error_pdf",
    "confidence_noise_power",
]


class UniformChain:
    """The steps of the last uniform convolution, kept to resume the next one.

    :func:`affine_error_pdf` convolves strictly left to right, so a call
    whose ``center``, ``bins`` and leading sorted radii all equal the
    previous call's (bit for bit) can start from the histogram the
    previous call had after that shared prefix.  A word-length search
    re-reads forms that differ only in the narrow tail of their symbols
    constantly, which makes one chain enough.  It holds at most
    ``len(radii)`` histograms of ``bins`` bins; the owner decides how long
    it lives (see :meth:`DatapathNoiseAnalyzer.effective_noise_power`).
    """

    __slots__ = ("key", "radii", "states")

    def __init__(self) -> None:
        self.key: tuple | None = None
        #: ``states[i]`` is the convolution of ``U(radii[0])`` .. ``U(radii[i])``.
        self.radii: List[float] = []
        self.states: List[HistogramPDF] = []

    def resume(self, key: tuple, radii: List[float]) -> int:
        """Drop every step past the prefix shared with ``key``/``radii``; its length."""
        if key != self.key:
            self.key = key
            self.radii.clear()
            self.states.clear()
            return 0
        shared = 0
        for kept, radius in zip(self.radii, radii):
            if kept != radius:
                break
            shared += 1
        del self.radii[shared:]
        del self.states[shared:]
        return shared


#: Radii outside ``[_TINY, _HUGE]`` take the composed step: below the
#: normal range ``np.linspace`` loses its strictly increasing edges, and
#: near the top ``2 * radius`` overflows.
_TINY = sys.float_info.min
_HUGE = sys.float_info.max / 4.0


def _add_uniform(
    pdf: HistogramPDF, radius: float, ramp: np.ndarray, mass: np.ndarray
) -> HistogramPDF:
    """``pdf.add(HistogramPDF.uniform(-radius, radius, bins), bins=bins)``, fused.

    Performs the same float operations in the same order as that
    composition — ``np.linspace``'s edges, the pairwise ``add`` grid, the
    pair masses, the hull and its equal-width edges, the scatter and the
    normalization — without building the uniform or re-validating it.
    ``ramp`` is ``0.0 .. bins`` (``np.linspace``'s and the combine
    kernel's ramp) and ``mass`` the uniform's ``1 / bins`` bin masses.
    The caller guarantees ``bins >= 2``, a ``pdf`` of more than one bin
    and ``_TINY <= radius <= _HUGE``; the uniform's edges are then finite
    and strictly increasing, exactly what its constructor would check.
    A degenerate (point-mass) result takes the composed path.
    """
    bins = mass.size
    # np.linspace(-radius, radius, bins + 1): y = arange * step + start.
    uniform = ramp * ((radius - -radius) / bins)
    uniform += -radius
    uniform[-1] = radius
    edges_a = pdf.edges
    flat_lo = np.add.outer(edges_a[:-1], uniform[:-1]).ravel()
    flat_hi = np.add.outer(edges_a[1:], uniform[1:]).ravel()
    flat_prob = (pdf.probs[:, None] * mass).ravel()
    if flat_prob.min() <= 0.0:
        keep = flat_prob > 0.0
        flat_lo = flat_lo[keep]
        flat_hi = flat_hi[keep]
        flat_prob = flat_prob[keep]
    if flat_lo.size == 0:
        return _add_uniform_composed(pdf, radius, bins)
    hull_lo = float(flat_lo.min())
    hull_hi = float(flat_hi.max())
    if hull_hi <= hull_lo:
        return _add_uniform_composed(pdf, radius, bins)
    edges = ramp * ((hull_hi - hull_lo) / bins) + hull_lo
    edges[-1] = hull_hi
    return HistogramPDF._trusted(edges, _spread_core(flat_lo, flat_hi, flat_prob, edges))


def _add_uniform_composed(pdf: HistogramPDF, radius: float, bins: int) -> HistogramPDF:
    """The validated composition :func:`_add_uniform` fuses (and its errors)."""
    return pdf.add(HistogramPDF.uniform(-radius, radius, bins=bins), bins=bins)


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise HistogramError(f"cannot read an error distribution from {what} {value!r}")
    return value


def affine_error_pdf(
    error: "AffineForm | float", bins: int = 32, *, chain: UniformChain | None = None
) -> HistogramPDF:
    """The error distribution encoded by an affine form.

    Reads ``center + sum(c_i * eps_i)`` under the AA noise model
    (``eps_i`` i.i.d. uniform on ``[-1, 1]``): the result is the
    convolution of independent uniforms ``U(-|c_i|, +|c_i|)`` shifted by
    ``center``.  Symbols shared between reconvergent paths have already
    been summed coefficient-wise during propagation, so no independence
    is assumed where the algebra proved dependence.

    Convolving widest-first keeps the running support dominated by the
    real spread instead of ping-ponging through near-degenerate bins.

    The result depends on ``error`` and ``bins`` alone.  ``chain`` only
    lets a caller that reads many similar forms resume from the prefix
    of steps this call shares with the previous one on the same chain;
    without it every call convolves from scratch.
    """
    if not isinstance(error, AffineForm):
        return HistogramPDF.point(_finite(float(error), "a non-finite constant error"))
    center = _finite(float(error.center), "an affine form with non-finite center")
    radii = []
    for symbol, coeff in error.terms.items():
        if coeff != 0.0:
            radii.append(abs(_finite(coeff, f"an affine form whose {symbol!r} coefficient is")))
    radii.sort(reverse=True)
    if not radii:
        return HistogramPDF.point(center)
    bins = int(bins)
    chain = UniformChain() if chain is None else chain
    # The sign of a zero center is part of the key: "bit for bit".
    done = chain.resume((center, math.copysign(1.0, center), bins), radii)
    if done == 0:
        first = radii[0]
        start = HistogramPDF.uniform(center - first, center + first, bins=bins)
        chain.radii.append(first)
        chain.states.append(start)
        done = 1
    pdf = chain.states[-1]
    # bins >= 1 here: the first step's HistogramPDF.uniform validated it.
    ramp = np.arange(bins + 1, dtype=float)
    mass = np.full(bins, 1.0 / bins)
    for radius in radii[done:]:
        if bins >= 2 and pdf.probs.size > 1 and _TINY <= radius <= _HUGE:
            pdf = _add_uniform(pdf, radius, ramp, mass)
        else:
            pdf = _add_uniform_composed(pdf, radius, bins)
        chain.radii.append(radius)
        chain.states.append(pdf)
    return pdf.copy()


def _error_distribution(
    method: str, error: Any, bins: int, chain: UniformChain | None = None
) -> HistogramPDF:
    """The propagated error as a distribution, for quantile evaluation."""
    if isinstance(error, HistogramPDF):
        return error
    if isinstance(error, (AffineForm, int, float)):
        return affine_error_pdf(error, bins=bins, chain=chain)
    raise NoiseModelError(
        f"method {method!r} propagates {type(error).__name__} errors, which carry "
        f"no distribution; fractional confidence levels need a PDF-producing "
        f"method ({', '.join(PDF_METHODS)}) — or confidence=1.0 for the "
        f"worst-case reading"
    )


def confidence_noise_power(
    method: str,
    error: Any,
    confidence: float,
    bins: int = 32,
    *,
    chain: UniformChain | None = None,
) -> float:
    """The noise measure of an SNR floor held with probability ``confidence``.

    ``confidence=1.0`` is the worst case: the squared magnitude of a
    sound enclosure of the error, available for every method.  A
    fractional confidence is the squared ``confidence``-quantile of
    ``|error|`` read from the propagated error distribution — so a design
    is accepted exactly when ``P(|error| <= e_floor) >= confidence`` for
    the error magnitude ``e_floor`` the SNR floor allows.  ``chain`` is
    handed to :func:`affine_error_pdf`.
    """
    if not 0.0 < confidence <= 1.0:
        raise NoiseModelError(f"confidence must be in (0, 1], got {confidence!r}")
    if confidence == 1.0:
        magnitude = _enclosure_of(error).magnitude
        return magnitude * magnitude
    quantile = abs(_error_distribution(method, error, bins, chain)).quantile(confidence)
    return quantile * quantile
