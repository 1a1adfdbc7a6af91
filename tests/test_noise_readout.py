"""The analyzer's one noise readout: reports, noise powers and SNR.

``DatapathNoiseAnalyzer.report`` turns a propagated output error into a
``NoiseReport`` for every method, and ``noise_power_of`` reads the same
noise power without building one.  The digest below pins every report
field, ``contributions`` included, so a change to the readout that moves
any float fails here.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.dfg.range_analysis import infer_ranges
from repro.analysis.probabilistic import affine_error_pdf
from repro.histogram.pdf import HistogramPDF
from repro.noisemodel.analyzer import (
    ANALYSIS_METHODS,
    DatapathNoiseAnalyzer,
    propagation_algebra,
)
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage
from repro.utils.mathutils import snr_db

HORIZON = 5
WORD_LENGTH = 12

#: SHA-256 of every report field of the 11 circuits x 4 methods at a
#: uniform 12-bit word length (horizon 5); see ``_report_fields``.
#: Re-recorded when AA radii and variances became ``math.fsum``
#: reductions: aa/pna bounds, variances, noise powers, contributions and
#: pna PDFs moved in the last ulp on four circuits.  Re-recorded when the
#: histogram-propagating ``sna`` method was deleted: the digest of the
#: previous code over the four remaining methods is this one.
#: Re-recorded when the report lost its pna error PDF: the previous
#: code's digest over the remaining fields is this one.
READOUT_DIGEST = "f271743cfe4e0fb678c620bd507d43499fabf8ac6764ef7842a71c0200b31b37"


def _analyzer(circuit_name: str) -> tuple[DatapathNoiseAnalyzer, str | None]:
    circuit = get_circuit(circuit_name)
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    design = ensure_range_coverage(
        WordLengthAssignment.uniform(circuit.graph, WORD_LENGTH, ranges), ranges
    )
    analyzer = DatapathNoiseAnalyzer(circuit.graph, design, circuit.input_ranges, horizon=HORIZON)
    return analyzer, circuit.output


def _report_fields(report) -> str:
    fields = [
        report.method,
        report.output,
        repr(report.bounds.lo),
        repr(report.bounds.hi),
        repr(report.mean),
        repr(report.variance),
        repr(report.noise_power),
        str(report.source_count),
        repr(sorted(report.contributions.items())),
    ]
    return "|".join(fields)


def test_every_report_field_is_unchanged():
    digest = hashlib.sha256()
    for circuit_name in sorted(CIRCUITS):
        analyzer, output = _analyzer(circuit_name)
        for method in ANALYSIS_METHODS:
            digest.update(_report_fields(analyzer.analyze(method, output=output)).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == READOUT_DIGEST


def _point_report(method: str, value: float):
    analyzer, output = _analyzer("iir_biquad")
    target = analyzer._resolve_output(output)
    values, _errors, _context = analyzer._propagate(propagation_algebra(method), target)
    return analyzer, analyzer.report(method, target, value, values)


@pytest.mark.parametrize("method", ANALYSIS_METHODS)
@pytest.mark.parametrize("value", [0.0, 0.25])
def test_float_error_reads_as_a_point(method, value):
    analyzer, report = _point_report(method, value)
    assert (report.bounds.lo, report.bounds.hi) == (value, value)
    assert report.mean == value
    assert report.variance == 0.0
    assert report.noise_power == analyzer.noise_power_of(method, value) == value * value
    assert report.source_count == len(analyzer.sources)


@pytest.mark.parametrize("value", [0.0, 0.25])
def test_pna_float_error_reads_as_the_point_histogram(value):
    # The report reads the float's exact moments, as noise_power_of does;
    # its distribution, discretized on request, is HistogramPDF.point
    # (which spreads its mass over +-1e-12 * max(|v|, 1)).
    analyzer, report = _point_report("pna", value)
    assert (report.bounds.lo, report.bounds.hi) == (value, value)
    assert (report.mean, report.variance) == (value, 0.0)
    assert report.noise_power == analyzer.noise_power_of("pna", value) == value * value
    assert affine_error_pdf(value).edges.tolist() == HistogramPDF.point(value).edges.tolist()
    assert report.source_count == len(analyzer.sources)


@pytest.mark.parametrize("method", ANALYSIS_METHODS)
def test_noise_power_of_equals_the_report(method):
    analyzer, output = _analyzer("fir4")
    target = analyzer._resolve_output(output)
    values, errors, _context = analyzer._propagate(propagation_algebra(method), target)
    report = analyzer.report(method, target, errors[target], values, contributions=False)
    assert report.noise_power == analyzer.noise_power_of(method, errors[target])
    assert report.contributions == {}


def test_pna_reads_aa_moments_and_contributions():
    analyzer, output = _analyzer("iir_biquad")
    aa, pna = analyzer.analyze("aa", output=output), analyzer.analyze("pna", output=output)
    for name in ("bounds", "mean", "variance", "noise_power", "contributions"):
        assert getattr(pna, name) == getattr(aa, name)
    assert pna.contributions


@pytest.mark.parametrize(
    "signal,noise,expected",
    [
        (1.0, 0.0, math.inf),
        (0.0, 0.0, math.inf),
        (1.0, -1.0, math.inf),
        (1.0, math.inf, -math.inf),
        (0.0, 1.0, -math.inf),
        (-1.0, 1.0, -math.inf),
        (100.0, 1.0, 20.0),
        (1.0, 10.0, -10.0),
    ],
)
def test_snr_db(signal, noise, expected):
    assert snr_db(signal, noise) == expected
