"""Probabilistic noise analysis, confidence floors, and MC-validator hygiene."""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from repro.analysis import (
    ALL_METHODS,
    AnalysisConfig,
    NoiseAnalysisPipeline,
    affine_error_pdf,
    confidence_noise_power,
)
from repro.analysis.montecarlo import (
    draw_stimulus,
    monte_carlo_error,
    monte_carlo_error_sharded,
)
from repro.benchmarks.circuits import get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.config import OptimizeConfig
from repro.dfg.range_analysis import infer_ranges
from repro.errors import HistogramError, NoiseModelError, OptimizationError
from repro.histogram.pdf import HistogramPDF
from repro.histogram.sampling import sample_histogram
from repro.intervals.affine import AffineForm
from repro.intervals.interval import Interval
from repro.noisemodel.assignment import WordLengthAssignment
from repro.optimize import OptimizationProblem, get_optimizer
from repro.optimize.strategies import GreedyBitStealingOptimizer


def quadratic_bits(word_length: int = 12):
    circuit = get_circuit("quadratic")
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    assignment = WordLengthAssignment.uniform(circuit.graph, word_length, ranges)
    return circuit, assignment


# --------------------------------------------------------------------- #
# stimulus PDFs vs declared ranges (the validator bugfix)
# --------------------------------------------------------------------- #
class TestStimulusRangeGuard:
    def test_pdf_outside_declared_range_raises(self):
        circuit, assignment = quadratic_bits()
        lo, hi = circuit.input_ranges["x"].lo, circuit.input_ranges["x"].hi
        wide = HistogramPDF.uniform(lo - 1.0, hi + 1.0, bins=16)
        with pytest.raises(NoiseModelError, match="outside the declared"):
            monte_carlo_error(
                circuit.graph,
                assignment,
                circuit.input_ranges,
                samples=64,
                input_pdfs={"x": wide},
                rng=0,
            )

    def test_clip_policy_clips_into_range(self):
        circuit, _ = quadratic_bits()
        interval = circuit.input_ranges["x"]
        wide = HistogramPDF.uniform(interval.lo - 2.0, interval.hi + 2.0, bins=16)
        stimulus = draw_stimulus(
            circuit.graph,
            circuit.input_ranges,
            samples=500,
            steps=1,
            rng=np.random.default_rng(0),
            input_pdfs={"x": wide},
            out_of_range="clip",
        )
        draws = stimulus["x"]
        assert draws.shape == (500, 1)
        assert draws.min() >= interval.lo and draws.max() <= interval.hi
        # the clip must actually bite for a PDF this wide
        assert (draws == interval.lo).any() or (draws == interval.hi).any()

    def test_in_range_pdf_accepted_under_default_policy(self):
        circuit, assignment = quadratic_bits()
        interval = circuit.input_ranges["x"]
        narrow = HistogramPDF.uniform(interval.lo / 2, interval.hi / 2, bins=16)
        result = monte_carlo_error(
            circuit.graph,
            assignment,
            circuit.input_ranges,
            samples=64,
            input_pdfs={"x": narrow},
            rng=0,
        )
        assert result.samples == 64

    def test_unknown_policy_rejected(self):
        circuit, _ = quadratic_bits()
        with pytest.raises(NoiseModelError, match="unknown out_of_range"):
            draw_stimulus(
                circuit.graph,
                circuit.input_ranges,
                samples=8,
                steps=1,
                rng=np.random.default_rng(0),
                out_of_range="ignore",
            )

    def test_sharded_pdf_outside_declared_range_raises_in_the_parent(self):
        circuit, assignment = quadratic_bits()
        lo, hi = circuit.input_ranges["x"].lo, circuit.input_ranges["x"].hi
        wide = HistogramPDF.uniform(lo - 1.0, hi + 1.0, bins=16)
        with pytest.raises(NoiseModelError, match="outside the declared"):
            monte_carlo_error_sharded(
                circuit.graph,
                assignment,
                circuit.input_ranges,
                samples=64,
                input_pdfs={"x": wide},
                workers=2,
            )

    @pytest.mark.parametrize("mc_workers", [None, 1, 2])
    def test_pipeline_reports_bad_stimulus_for_any_mc_workers(self, mc_workers):
        """Bad input is a NoiseModelError, never a pool failure to degrade from."""
        circuit = get_circuit("quadratic")
        interval = circuit.input_ranges["x"]
        wide = HistogramPDF.uniform(interval.lo - 1.0, interval.hi + 1.0, bins=16)
        pipeline = NoiseAnalysisPipeline(
            AnalysisConfig(mc_samples=256, horizon=2, bins=8, mc_workers=mc_workers)
        )
        with pytest.raises(NoiseModelError, match="outside the declared"):
            pipeline.analyze(circuit, method="montecarlo", input_pdfs={"x": wide})
        assert pipeline.degradation_log == []


# --------------------------------------------------------------------- #
# histogram sampling mass guard
# --------------------------------------------------------------------- #
class TestSampleHistogramMassGuard:
    def test_leaky_pdf_refused(self):
        pdf = HistogramPDF.uniform(0.0, 1.0, bins=8)
        pdf.probs *= 0.5  # simulate a mass leak from a buggy kernel
        with pytest.raises(HistogramError, match="leaky"):
            sample_histogram(pdf, 100, rng=0)

    def test_rounding_residue_inside_tolerance_is_renormalized(self):
        pdf = HistogramPDF.uniform(0.0, 1.0, bins=8)
        pdf.probs *= 1.0 - 1e-9
        samples = sample_histogram(pdf, 256, rng=0)
        assert samples.min() >= 0.0 and samples.max() <= 1.0

    def test_nonpositive_count_rejected(self):
        pdf = HistogramPDF.uniform(0.0, 1.0, bins=4)
        with pytest.raises(HistogramError, match="count"):
            sample_histogram(pdf, 0, rng=0)


# --------------------------------------------------------------------- #
# MonteCarloResult immutability
# --------------------------------------------------------------------- #
class TestMonteCarloResultImmutability:
    def test_errors_array_is_read_only(self):
        circuit, assignment = quadratic_bits()
        result = monte_carlo_error(
            circuit.graph, assignment, circuit.input_ranges, samples=64, rng=0
        )
        with pytest.raises(ValueError):
            result.errors[0] = 0.0


# --------------------------------------------------------------------- #
# the pna method
# --------------------------------------------------------------------- #
class TestPnaMethod:
    def test_pna_is_part_of_the_default_sweep(self):
        assert "pna" in ALL_METHODS
        pipeline = NoiseAnalysisPipeline(
            AnalysisConfig(word_length=10, horizon=2, bins=16, mc_samples=800, seed=0)
        )
        report = pipeline.analyze(get_circuit("quadratic"))
        assert "pna" in report.results
        assert report.enclosure["pna"], (
            f"pna bounds {report.result('pna').bounds} do not enclose "
            f"[{report.result('montecarlo').lower}, {report.result('montecarlo').upper}]"
        )

    def test_affine_error_pdf_support_matches_enclosure(self):
        form = AffineForm(0.5, {"e1": 0.25, "e2": -0.125, "e3": 0.0})
        pdf = affine_error_pdf(form, bins=32)
        assert pdf.edges[0] == pytest.approx(0.5 - 0.375)
        assert pdf.edges[-1] == pytest.approx(0.5 + 0.375)

    def test_affine_error_pdf_of_a_constant_is_a_point_mass(self):
        pdf = affine_error_pdf(0.25)
        assert pdf.mean() == pytest.approx(0.25, abs=1e-9)
        assert pdf.edges[-1] - pdf.edges[0] < 1e-6


# --------------------------------------------------------------------- #
# the fused uniform-convolution kernel
# --------------------------------------------------------------------- #
def reference_error_pdf(error, bins):
    """The composed convolution ``affine_error_pdf`` must reproduce bit for bit."""
    if not isinstance(error, AffineForm):
        return HistogramPDF.point(float(error))
    radii = sorted((abs(c) for c in error.terms.values() if c != 0.0), reverse=True)
    if not radii:
        return HistogramPDF.point(error.center)
    pdf = HistogramPDF.uniform(error.center - radii[0], error.center + radii[0], bins=bins)
    for radius in radii[1:]:
        pdf = pdf.add(HistogramPDF.uniform(-radius, radius, bins=bins), bins=bins)
    return pdf


def outcome(read):
    """``("pdf", edges, probs)``, or ``("raises", message)`` for a HistogramError."""
    try:
        pdf = read()
    except HistogramError as exc:
        return ("raises", str(exc))
    return ("pdf", pdf.edges, pdf.probs)


def assert_same_outcome(expected, got):
    assert expected[0] == got[0], (expected, got)
    if expected[0] == "raises":
        assert expected[1] == got[1]
    else:
        assert np.array_equal(expected[1], got[1]), "edges differ"
        assert np.array_equal(expected[2], got[2]), "probs differ"


def random_forms(seed, count):
    """Seeded affine forms: 1-40 symbols, radii 1e-12..1e3, some tied radii."""
    rng = np.random.default_rng(seed)
    forms = []
    for k in range(count):
        terms = int(rng.integers(1, 41))
        coeffs = rng.choice([-1.0, 1.0], size=terms) * 10.0 ** rng.uniform(-12, 3, size=terms)
        if k % 3 == 1:
            coeffs[: max(1, terms // 2)] = coeffs[0]
        center = 0.0 if k % 2 == 0 else float(rng.normal() * 10.0 ** rng.uniform(-6, 2))
        forms.append(AffineForm(center, {f"s{i}": float(c) for i, c in enumerate(coeffs)}))
    return forms


TINY = sys.float_info.min
SPECIAL_FORMS = [
    AffineForm(0.0, {"a": 0.75}),  # one term
    AffineForm(-2.5, {"a": 1e-12}),  # one narrow term off zero
    AffineForm(0.25, {}),  # a constant form
    0.25,  # a plain constant
    AffineForm(0.0, {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}),  # all radii equal
    AffineForm(0.0, {"a": 1.0, "b": TINY, "c": TINY / 2.0}),  # at/below the normal range
    AffineForm(1.0, {"a": 2.0 * TINY, "b": TINY}),  # only tiny radii
    AffineForm(1e6, {"a": 1e-12, "b": 1e-12}),  # center swamps the spread
    AffineForm(0.0, {f"s{i}": 1e307 for i in range(40)}),  # hull overflows
]


class TestFusedKernel:
    @pytest.mark.parametrize("bins", [1, 2, 16, 32, 64])
    def test_bit_identical_to_the_composed_convolution(self, bins):
        forms = SPECIAL_FORMS + random_forms(seed=bins, count=16)
        with np.errstate(all="ignore"):
            for form in forms:
                assert_same_outcome(
                    outcome(lambda: reference_error_pdf(form, bins)),
                    outcome(lambda: affine_error_pdf(form, bins=bins)),
                )

    @pytest.mark.parametrize(
        "error, named",
        [
            (AffineForm(float("nan"), {"e1": 0.5}), "non-finite center nan"),
            (AffineForm(0.0, {"e1": 0.5, "e2": float("inf")}), "'e2' coefficient is inf"),
            (AffineForm(0.0, {"e1": float("-nan")}), "'e1' coefficient is nan"),
            (float("-inf"), "non-finite constant error -inf"),
        ],
    )
    def test_non_finite_forms_are_named(self, error, named):
        with pytest.raises(HistogramError, match=named):
            affine_error_pdf(error, bins=16)

    def test_zero_bins_raise_a_histogram_error(self):
        with pytest.raises(HistogramError, match="bins must be >= 1"):
            affine_error_pdf(AffineForm(0.0, {"e1": 0.5}), bins=0)


#: SHA-256 of [assignment doc, repr(cost), [[action, accepted], ...]] of
#: greedy on mlp_layer:inputs=2,neurons=2 (pna at confidence 0.999, 50 dB,
#: margin 0, horizon 4, 16 bins), recorded with the Chernoff quantile bound
#: (the 16-bin convolution it replaced read 780.54 over 207 iterations).
PNA_GOLDEN = (
    "766.0899999999999",
    170,
    "b7e35e5caca15771af66a5776f30f048ac1bc5f6f848ac48ca22a7f02cf9a2d2",
)


def test_pna_greedy_design_unchanged_on_mlp_layer():
    config = OptimizeConfig(
        snr_floor_db=50.0,
        method="pna",
        confidence=0.999,
        engine="incremental",
        horizon=4,
        bins=16,
        margin_db=0.0,
    )
    problem = OptimizationProblem.from_circuit(
        generate_circuit("mlp_layer:inputs=2,neurons=2"), 50.0, config=config
    )
    result = GreedyBitStealingOptimizer().optimize(problem)
    document = [
        result.assignment.to_doc(),
        repr(result.cost),
        [[record.action, record.accepted] for record in result.iterations],
    ]
    digest = hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()
    assert (repr(result.cost), len(result.iterations), digest) == PNA_GOLDEN


# --------------------------------------------------------------------- #
# confidence-bounded noise power
# --------------------------------------------------------------------- #
class TestConfidenceNoisePower:
    FORM = AffineForm(0.0, {"e1": 0.5, "e2": 0.5})

    def test_full_confidence_is_the_squared_peak(self):
        assert confidence_noise_power("aa", self.FORM, 1.0) == pytest.approx(1.0)

    def test_fractional_confidence_is_cheaper_and_monotone(self):
        q50 = confidence_noise_power("pna", self.FORM, 0.5)
        q99 = confidence_noise_power("pna", self.FORM, 0.99)
        worst = confidence_noise_power("pna", self.FORM, 1.0)
        assert 0.0 < q50 < q99 <= worst

    def test_fractional_confidence_needs_a_pdf_method(self):
        with pytest.raises(NoiseModelError, match="PDF-producing"):
            confidence_noise_power("ia", Interval(-1.0, 1.0), 0.9)

    def test_confidence_domain_is_validated(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(NoiseModelError, match="confidence"):
                confidence_noise_power("pna", self.FORM, bad)


#: Confidence levels of the bound's property test; the last one is out of
#: reach of sampling, so only the cap and the ordering check it.
LEVELS = (0.5, 0.9, 0.999, 1.0 - 1e-9)
SAMPLED = 200_000


def bound_forms():
    """Seeded forms: n in {1, 2, 33, 150, 400}, radii over 9 octaves, centers
    zero, small (3% of the spread) and large (50%), both signs."""
    rng = np.random.default_rng(35)
    forms = []
    for n in (1, 2, 33, 150, 400):
        for share in (0.0, 0.03, 0.5):
            coeffs = rng.choice([-1.0, 1.0], size=n) * 2.0 ** rng.uniform(-9.0, 0.0, size=n)
            coeffs *= 10.0 ** rng.uniform(-6.0, 2.0)
            center = share * float(np.abs(coeffs).sum()) * rng.choice([-1.0, 1.0])
            forms.append(AffineForm(center, {f"s{i}": float(c) for i, c in enumerate(coeffs)}))
    return forms


def sampled_quantiles(form, levels, seed):
    """``levels``-quantiles of ``|form|`` over SAMPLED uniform draws per symbol."""
    rng = np.random.default_rng(seed)
    total = np.full(SAMPLED, form.center)
    for coeff in form.terms.values():
        total += rng.uniform(-abs(coeff), abs(coeff), size=SAMPLED)
    return np.quantile(np.abs(total), levels)


class TestChernoffBound:
    @pytest.mark.parametrize("index", range(15))
    def test_bound_sits_between_the_sampled_quantile_and_the_worst_case(self, index):
        form = bound_forms()[index]
        # confidence=1.0 reads the squared worst case |c| + sum(|r_i|).
        powers = [confidence_noise_power("pna", form, q) for q in LEVELS + (1.0,)]
        assert powers[-1] == (abs(form.center) + form.radius) ** 2
        assert powers == sorted(powers), "the bound must rise with the confidence"
        sampled = sampled_quantiles(form, LEVELS[:-1], seed=index)
        for level, power, quantile in zip(LEVELS, powers, sampled):
            assert math.sqrt(power) >= quantile, f"optimistic at confidence {level}"

    @pytest.mark.parametrize("value", [0.0, 0.25, -3.5])
    @pytest.mark.parametrize("level", LEVELS)
    def test_a_float_or_symbol_free_error_reads_its_square(self, value, level):
        assert confidence_noise_power("pna", value, level) == value * value
        assert confidence_noise_power("pna", AffineForm(value, {}), level) == value * value

    def test_the_bound_depends_on_the_radii_not_their_order_or_signs(self):
        form = bound_forms()[7]
        flipped = AffineForm(form.center, {k: -v for k, v in reversed(form.terms.items())})
        assert confidence_noise_power("pna", form, 0.999) == confidence_noise_power(
            "pna", flipped, 0.999
        )

    @pytest.mark.parametrize(
        "error, named",
        [
            (AffineForm(float("nan"), {"e1": 0.5}), "non-finite center nan"),
            (AffineForm(0.0, {"e1": 0.5, "e2": float("inf")}), "'e2' coefficient is inf"),
            (float("-inf"), "non-finite constant error -inf"),
        ],
    )
    def test_non_finite_forms_are_named(self, error, named):
        with pytest.raises(HistogramError, match=named):
            confidence_noise_power("pna", error, 0.999)

    @pytest.mark.parametrize("level", [0.999, 1.0])
    def test_radii_summing_past_the_float_range_read_inf(self, level):
        form = AffineForm(0.0, {f"e{i}": 1e307 for i in range(40)})
        assert form.radius == math.inf
        assert confidence_noise_power("pna", form, level) == math.inf

# --------------------------------------------------------------------- #
# confidence floors through the optimizer
# --------------------------------------------------------------------- #
class TestConfidenceFloors:
    def test_config_validates_confidence(self):
        with pytest.raises(OptimizationError, match="confidence"):
            OptimizeConfig(snr_floor_db=40.0, confidence=0.0)
        with pytest.raises(OptimizationError, match="confidence"):
            OptimizeConfig(snr_floor_db=40.0, confidence=1.5)

    def test_fractional_confidence_requires_pdf_method(self):
        with pytest.raises(OptimizationError, match="PDF-producing"):
            OptimizationProblem.from_circuit(
                get_circuit("quadratic"),
                40.0,
                config=OptimizeConfig(snr_floor_db=40.0, method="ia", confidence=0.99),
            )

    def test_worst_case_confidence_works_for_every_method(self):
        problem = OptimizationProblem.from_circuit(
            get_circuit("quadratic"),
            40.0,
            config=OptimizeConfig(
                snr_floor_db=40.0, method="ia", confidence=1.0, horizon=2, bins=8
            ),
        )
        evaluation = problem.evaluate(problem.uniform(12))
        assert np.isfinite(evaluation.snr_db)

    def test_probabilistic_floor_is_never_costlier_than_worst_case(self):
        floor = 58.0
        costs = {}
        for method, confidence in (("aa", 1.0), ("pna", 0.999)):
            problem = OptimizationProblem.from_circuit(
                get_circuit("fir4"),
                floor,
                config=OptimizeConfig(
                    snr_floor_db=floor,
                    method=method,
                    confidence=confidence,
                    horizon=4,
                    bins=8,
                    margin_db=1.0,
                ),
            )
            result = get_optimizer("greedy").optimize(problem)
            assert result.feasible
            # MC validation judges the same statistic the constraint used
            assert problem.monte_carlo_snr(result.assignment, samples=2000, seed=0) >= floor
            costs[method] = result.cost
        assert costs["pna"] <= costs["aa"]
