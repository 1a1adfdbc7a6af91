"""Probabilistic noise analysis ("pna") and confidence-bounded noise power.

The worst-case methods answer "how bad can the output error *ever* be";
this module answers "how bad is it with probability ``confidence``".  The
method propagates the same affine error forms as AA — the shared noise
symbols are the dependency tracking, so correlated reconvergent paths
combine symbolically instead of being treated as independent — and only
at the very end reads the form probabilistically: each remaining symbol
``eps_i`` is an independent uniform on ``[-1, 1]`` (the standard AA noise
model), so the output error is ``c + sum(r_i * eps_i)``.

The readout is closed-form: :meth:`DatapathNoiseAnalyzer.report` reads
the moments from ``_MOMENTS``, and :func:`confidence_noise_power` turns
``OptimizeConfig(confidence=...)`` into the noise measure the SNR
constraint judges.  ``confidence=1.0`` is the squared worst-case
enclosure magnitude, which every method can supply.  A fractional
confidence reads an affine error through a Chernoff bound on the
``confidence``-quantile of ``|error|`` (Chernoff 1952, Hoeffding 1963)
with the exact uniform moment-generating function ``sinh(x) / x``: an
O(symbols) solve that is never below the true quantile.  No analysis
builds a histogram; :func:`affine_error_pdf` discretizes the error
distribution on request.
"""

from __future__ import annotations

import math
from typing import Any, List, Tuple

from repro.errors import NoiseModelError, NonFiniteError
from repro.histogram.pdf import HistogramPDF
from repro.intervals.affine import AffineForm
from repro.noisemodel.analyzer import PDF_METHODS, _enclosure_of
from repro.utils.mathutils import fsum_or_inf

__all__ = [
    "PDF_METHODS",
    "affine_error_pdf",
    "confidence_noise_power",
]


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NonFiniteError(f"cannot read an error distribution from {what} {value!r}")
    return value


def _center_and_radii(error: AffineForm) -> Tuple[float, List[float]]:
    """``error``'s center and its non-zero ``|c_i|``, widest first; all finite."""
    center = _finite(float(error.center), "an affine form with non-finite center")
    radii = [abs(coeff) for coeff in error.terms.values() if coeff != 0.0]
    if not all(map(math.isfinite, radii)):
        for symbol, coeff in error.terms.items():
            _finite(coeff, f"an affine form whose {symbol!r} coefficient is")
    radii.sort(reverse=True)
    return center, radii


def affine_error_pdf(error: "AffineForm | float", bins: int = 32) -> HistogramPDF:
    """The error distribution encoded by an affine form, as a histogram.

    Reads ``center + sum(c_i * eps_i)`` under the AA noise model
    (``eps_i`` i.i.d. uniform on ``[-1, 1]``): the result is the
    convolution of independent uniforms ``U(-|c_i|, +|c_i|)`` shifted by
    ``center``.  Symbols shared between reconvergent paths have already
    been summed coefficient-wise during propagation, so no independence
    is assumed where the algebra proved dependence.

    Convolving widest-first keeps the running support dominated by the
    real spread instead of ping-ponging through near-degenerate bins.
    No analysis calls this; the readouts are closed-form.
    """
    if not isinstance(error, AffineForm):
        return HistogramPDF.point(_finite(float(error), "a non-finite constant error"))
    center, radii = _center_and_radii(error)
    if not radii:
        return HistogramPDF.point(center)
    pdf = HistogramPDF.uniform(center - radii[0], center + radii[0], bins=bins)
    for radius in radii[1:]:
        pdf = pdf.add(HistogramPDF.uniform(-radius, radius, bins=bins), bins=bins)
    return pdf


# --------------------------------------------------------------------- #
# the Chernoff read of a confidence quantile
# --------------------------------------------------------------------- #
#: Newton steps of the Chernoff solve; a safeguarded step converges in a
#: handful, and the cap keeps every result a fixed function of its input.
_NEWTON_STEPS = 50


def _log_mgf(lam: float, center: float, radii: List[float]) -> Tuple[float, float, float]:
    """``G(lam)``, ``lam * G'(lam)`` and ``lam**2 * G''(lam)``, where
    ``G(lam) = sum(psi(lam * r_i)) + ln(2 cosh(lam * c))``.

    ``exp(G(lam))`` is ``E[exp(lam * E)] + E[exp(-lam * E)]`` for the
    error ``E = c + sum(r_i * eps_i)``; ``center`` is ``|c|``.
    ``psi(x) = ln(sinh(x) / x)`` is the log moment-generating function of
    a uniform on ``[-1, 1]``; with ``x = lam * r_i`` each symbol adds
    ``psi(x)``, ``x psi'(x)`` and ``x**2 psi''(x)``.  The Taylor branch
    avoids the cancellation of ``sinh(x) / x`` near 1 (it stops after a
    positive term, so it never reads ``psi`` low), and the asymptotic
    branch avoids ``sinh``'s overflow.
    """
    y = lam * center
    slope = math.tanh(y)
    value = y + math.log1p(math.exp(-2.0 * y))
    first = y * slope
    second = y * y * (1.0 - slope * slope)
    for radius in radii:
        x = lam * radius
        if x < 0.02:
            x2 = x * x
            value += x2 * (1.0 / 6.0 - x2 * (1.0 / 180.0 - x2 / 2835.0))
            first += x2 * (1.0 / 3.0 - x2 * (1.0 / 45.0 - x2 * (2.0 / 945.0)))
            second += x2 * (1.0 / 3.0 - x2 * (1.0 / 15.0 - x2 * (2.0 / 189.0)))
        elif x < 20.0:
            ratio = x / math.sinh(x)
            value -= math.log(ratio)
            first += x / math.tanh(x) - 1.0
            second += 1.0 - ratio * ratio
        else:
            value += x - math.log(2.0 * x) + math.log1p(-math.exp(-2.0 * x))
            first += x - 1.0
            second += 1.0
    return value, first, second


def _chernoff_quantile(center: float, radii: List[float], confidence: float) -> float:
    """An upper bound on the ``confidence``-quantile of ``|c + sum(r_i * eps_i)|``.

    ``eps_i`` are independent uniforms on ``[-1, 1]`` and ``radii`` the
    positive ``r_i``, widest first.  With ``delta = 1 - confidence`` the
    two one-sided Chernoff tails give, for every ``lam > 0``,
    ``P(|E| >= t) <= exp(G(lam) - lam * t)`` (:func:`_log_mgf`), so
    ``t(lam) = (G(lam) + ln(1 / delta)) / lam`` bounds the quantile at any
    ``lam``; the solve only picks a good one.  It runs safeguarded Newton
    steps in ``ln(lam)`` on the stationarity condition
    ``H(lam) = lam * G'(lam) - G(lam) = ln(1 / delta)`` (``H`` rises, as
    ``H' = lam * G'' >= 0``) from the sub-Gaussian guess, and returns the
    least ``t`` it evaluated, capped at the worst case ``|c| + sum(r_i)``
    (the enclosure magnitude ``confidence=1.0`` reads).
    """
    worst = abs(center) + fsum_or_inf(radii)
    # Scaled to the widest of |c| and the radii, so no square overflows.
    scale = max(abs(center), radii[0])
    c = abs(center) / scale
    rs = [radius / scale for radius in radii]
    variance = math.fsum(r * r for r in rs) / 3.0
    if variance == 0.0:  # the spread underflows next to the center
        return worst
    target = -math.log(1.0 - confidence)
    lam = math.sqrt(2.0 * (target + math.log(2.0)) / variance)
    lo, hi = 0.0, math.inf
    best = math.inf
    for _ in range(_NEWTON_STEPS):
        value, first, curvature = _log_mgf(lam, c, rs)
        best = min(best, (value + target) / lam)
        excess = first - value - target
        if excess == 0.0:
            break
        if excess < 0.0:
            lo = lam
        else:
            hi = lam
        # dH / d(ln lam) = lam**2 * G''; a step leaving the bracket of the
        # root (or a zero slope) doubles or bisects instead.
        step = lam * math.exp(-excess / curvature) if curvature > 0.0 else math.nan
        if not lo < step < hi:
            step = 2.0 * lam if hi == math.inf else 0.5 * (lo + hi)
        if abs(step - lam) <= 1e-9 * lam:
            break
        lam = step
    return min(best * scale, worst)


def _quantile(method: str, error: Any, confidence: float) -> float:
    """An upper bound on the ``confidence``-quantile of ``|error|``."""
    if isinstance(error, AffineForm):
        center, radii = _center_and_radii(error)
        return _chernoff_quantile(center, radii, confidence) if radii else abs(center)
    if isinstance(error, (int, float)):
        return abs(_finite(float(error), "a non-finite constant error"))
    raise NoiseModelError(
        f"method {method!r} propagates {type(error).__name__} errors, which carry "
        f"no distribution; fractional confidence levels need a PDF-producing "
        f"method ({', '.join(PDF_METHODS)}) — or confidence=1.0 for the "
        f"worst-case reading"
    )


def confidence_noise_power(method: str, error: Any, confidence: float) -> float:
    """The noise measure of an SNR floor held with probability ``confidence``.

    ``confidence=1.0`` is the worst case: the squared magnitude of a
    sound enclosure of the error, available for every method.  A
    fractional confidence is the squared ``confidence``-quantile of
    ``|error|``, bounded from above by :func:`_chernoff_quantile` for an
    affine error — so a design is accepted only when
    ``P(|error| <= e_floor) >= confidence`` for the error magnitude
    ``e_floor`` the SNR floor allows.  A float error ``v`` reads ``v * v``.
    """
    if not 0.0 < confidence <= 1.0:
        raise NoiseModelError(f"confidence must be in (0, 1], got {confidence!r}")
    if confidence == 1.0:
        magnitude = _enclosure_of(error).magnitude
        return magnitude * magnitude
    quantile = _quantile(method, error, confidence)
    return quantile * quantile
