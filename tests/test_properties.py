"""The six property checkers: golden witnesses and logical relationships."""

import ast
import hashlib
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import hvkit.measure as measure_module
import hvkit.properties as properties_module
from hvkit import fixtures
from hvkit.determinize import determinize_empirical, determinize_local
from hvkit.errors import InternalCheckError
from hvkit.fiber import is_fiber_product
from hvkit.fixtures import (
    correlated_coins_model,
    fair_coin_product_model,
    lambda_copies_setting_model,
    pr_box_determinized,
    pr_box_hv,
    rational_singlet_hv,
    signaling_model,
)
from hvkit.measure import FiniteMeasure, FiniteSpace, ProductLayout, conditional, marginal
from hvkit.models import HV_COORDS, HVModel, hv_model
from hvkit.properties import (
    HVProperty,
    PropertyReport,
    Witness,
    check_all,
    check_lambda_independence,
    check_locality,
    check_outcome_independence,
    check_parameter_independence,
    check_strong_determinism,
    check_weak_determinism,
)
from randmodels import rand_dist, rand_empirical, rand_hv_mixed, rand_local_lambda_indep, rand_strategy_mixture

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def point_outcome_model():
    """One deterministic outcome pair whatever the context."""
    weights = {
        ("0", "1", ya, yb, "l0"): QUARTER for ya in "01" for yb in "01"
    }
    return hv_model("01", "01", "01", "01", ("l0",), weights)


class TestLocality:
    def test_point_outcome_model_holds(self):
        assert check_locality(point_outcome_model()).holds

    def test_pr_box_fails_with_golden_witness(self):
        report = check_locality(pr_box_hv())
        assert not report.holds
        w = report.witness
        assert w.as_dict() == {"xa": "0", "xb": "0", "ya": "0", "yb": "0", "lam": "l0"}
        assert (w.lhs, w.rhs) == (HALF, QUARTER)

    def test_strategy_mixture_holds(self):
        rng = random.Random(0)
        for _ in range(10):
            assert check_locality(rand_strategy_mixture(rng)).holds


class TestParameterIndependence:
    def test_party_product_model_holds(self):
        assert check_parameter_independence(point_outcome_model()).holds

    def test_signaling_model_fails_with_golden_witness(self):
        report = check_parameter_independence(signaling_model())
        assert not report.holds
        w = report.witness
        # Bob's setting shifts Alice's conditional away from its own-setting value
        assert w.as_dict() == {"xa": "0", "ya": "0", "yb": "0", "lam": "l0"}
        assert (w.lhs, w.rhs) == (Fraction(1), HALF)

    def test_rational_singlet_holds(self):
        assert check_parameter_independence(rational_singlet_hv()).holds


class TestOutcomeIndependence:
    def test_weakly_deterministic_model_holds(self):
        assert check_outcome_independence(signaling_model()).holds

    def test_correlated_coins_fail(self):
        report = check_outcome_independence(correlated_coins_model())
        assert not report.holds
        assert (report.witness.lhs, report.witness.rhs) == (HALF, QUARTER)

    def test_product_model_holds(self):
        assert check_outcome_independence(fair_coin_product_model()).holds


class TestLambdaIndependence:
    def test_singleton_hidden_space_holds(self):
        assert check_lambda_independence(pr_box_hv()).holds
        assert check_lambda_independence(signaling_model()).holds

    def test_hidden_copy_of_setting_fails(self):
        report = check_lambda_independence(lambda_copies_setting_model())
        assert not report.holds
        assert (report.witness.lhs, report.witness.rhs) == (HALF, QUARTER)

    def test_product_with_any_hidden_dist_holds(self):
        rng = random.Random(1)
        from randmodels import rand_product_model

        for _ in range(10):
            assert check_lambda_independence(rand_product_model(rng)).holds

    def test_verdict_depends_only_on_settings_hidden_marginal(self):
        # relabelling outcomes changes everything except the
        # settings-plus-hidden marginal; the verdict must not move
        rng = random.Random(2)
        from hvkit.measure import FiniteMeasure, marginal, measures_equal

        for _ in range(20):
            a = rand_hv_mixed(rng)
            swapped = {
                ("1" if xa == "0" else "0", xb, ya, yb, lam): w
                for (xa, xb, ya, yb, lam), w in a.measure.weights.items()
            }
            b = hv_model(
                "01", "01", "01", "01", a.space("lam").atoms, swapped
            )
            assert measures_equal(
                marginal(a.measure, ("ya", "yb", "lam")),
                marginal(b.measure, ("ya", "yb", "lam")),
            )
            assert (
                check_lambda_independence(a).holds
                == check_lambda_independence(b).holds
            )


class TestWeakDeterminism:
    def test_strategy_mixture_holds(self):
        rng = random.Random(3)
        for _ in range(10):
            assert check_weak_determinism(rand_strategy_mixture(rng)).holds

    def test_single_fair_coin_fails_at_one_half(self):
        # Alice flips a coin, Bob is constant: first interior joint value 1/2
        weights = {
            (xa, "0", ya, yb, "l0"): Fraction(1, 8)
            for xa in "01"
            for ya in "01"
            for yb in "01"
        }
        coin = hv_model("01", "01", "01", "01", ("l0",), weights)
        report = check_weak_determinism(coin)
        assert not report.holds
        assert report.witness.lhs == HALF

    def test_coin_pair_fails_at_one_quarter(self):
        report = check_weak_determinism(fair_coin_product_model())
        assert not report.holds
        assert report.witness.lhs == QUARTER

    def test_signaling_model_holds(self):
        # determinism given both settings does not forbid signaling
        assert check_weak_determinism(signaling_model()).holds


class TestStrongDeterminism:
    def test_determinized_output_holds(self):
        assert check_strong_determinism(pr_box_determinized()).holds

    def test_signaling_model_fails(self):
        report = check_strong_determinism(signaling_model())
        assert not report.holds
        assert report.witness.lhs == HALF

    def test_point_outcome_model_holds(self):
        assert check_strong_determinism(point_outcome_model()).holds


class TestVennRegions:
    """Constructed fixtures populate the distinguishable regions."""

    def test_pi_without_oi(self):
        m = rational_singlet_hv()
        assert check_parameter_independence(m).holds
        assert not check_outcome_independence(m).holds

    def test_oi_without_pi(self):
        m = signaling_model()
        assert check_outcome_independence(m).holds
        assert not check_parameter_independence(m).holds

    def test_weak_without_strong(self):
        m = signaling_model()
        assert check_weak_determinism(m).holds
        assert not check_strong_determinism(m).holds

    def test_local_lambda_indep_without_weak(self):
        m = fair_coin_product_model()
        assert check_locality(m).holds
        assert check_lambda_independence(m).holds
        assert not check_weak_determinism(m).holds

    def test_strong_without_lambda_indep(self):
        m = pr_box_determinized()
        assert check_strong_determinism(m).holds
        assert not check_lambda_independence(m).holds


def assert_relationships(reports):
    by = {r.property: r.holds for r in reports}
    locality = by[HVProperty.LOCALITY]
    pi = by[HVProperty.PARAMETER_INDEPENDENCE]
    oi = by[HVProperty.OUTCOME_INDEPENDENCE]
    weak = by[HVProperty.WEAK_DETERMINISM]
    strong = by[HVProperty.STRONG_DETERMINISM]

    assert locality == (pi and oi)
    assert strong == (weak and pi)
    assert strong == (weak and locality)
    if strong:
        assert weak
    if weak:
        assert oi


class TestRelationships:
    def test_logical_relationships_on_zoo(self):
        rng = random.Random(4)
        for _ in range(200):
            assert_relationships(check_all(rand_hv_mixed(rng)))

    def test_local_mixtures_are_local_and_independent(self):
        rng = random.Random(5)
        for _ in range(30):
            p = rand_local_lambda_indep(rng)
            assert check_locality(p).holds
            assert check_lambda_independence(p).holds


def bob_signaling_model():
    """Mirror of the signaling fixture: Bob's outcome copies Alice's setting."""
    weights = {("0", ya, ya, yb, "l0"): QUARTER for ya in "01" for yb in "01"}
    return hv_model("01", "01", "01", "01", ("l0",), weights)


def report_line(report):
    w = report.witness
    if w is None:
        return f"{report.property.value} holds"
    atom = ",".join(f"{k}={v}" for k, v in w.assignment)
    return f"{report.property.value} fails {atom} {w.lhs} {w.rhs}"


GOLDEN_REPORTS = {
    fixtures.pr_box_hv: (
        "locality fails xa=0,xb=0,ya=0,yb=0,lam=l0 1/2 1/4",
        "pi holds",
        "oi fails xa=0,xb=0,ya=0,yb=0,lam=l0 1/2 1/4",
        "lambda holds",
        "weakdet fails xa=0,xb=0,ya=0,yb=0,lam=l0 1/2 1/4",
        "strongdet fails xa=0,ya=0,lam=l0 1/2 1/4",
    ),
    fixtures.pr_box_determinized: (
        "locality holds",
        "pi holds",
        "oi holds",
        "lambda fails ya=0,yb=0,lam=0|0 1/8 3/32",
        "weakdet holds",
        "strongdet holds",
    ),
    fixtures.rational_singlet_hv: (
        "locality fails xa=up,xb=up,ya=0,yb=0,lam=l0 0 1/4",
        "pi holds",
        "oi fails xa=up,xb=up,ya=0,yb=0,lam=l0 0 1/4",
        "lambda holds",
        "weakdet fails xa=up,xb=down,ya=0,yb=0,lam=l0 1/2 1/4",
        "strongdet fails xa=up,ya=0,lam=l0 1/2 1/4",
    ),
    fixtures.signaling_model: (
        "locality fails xa=0,xb=0,ya=0,yb=0,lam=l0 1 1/2",
        "pi fails xa=0,ya=0,yb=0,lam=l0 1 1/2",
        "oi holds",
        "lambda holds",
        "weakdet holds",
        "strongdet fails xa=0,ya=0,lam=l0 1/2 1/4",
    ),
    bob_signaling_model: (
        "locality fails xa=0,xb=0,ya=0,yb=0,lam=l0 1 1/2",
        "pi fails xb=0,ya=0,yb=0,lam=l0 1 1/2",
        "oi holds",
        "lambda holds",
        "weakdet holds",
        "strongdet fails xb=0,yb=0,lam=l0 1/2 1/4",
    ),
    fixtures.fair_coin_product_model: (
        "locality holds",
        "pi holds",
        "oi holds",
        "lambda holds",
        "weakdet fails xa=0,xb=0,ya=0,yb=0,lam=l0 1/4 1/16",
        "strongdet fails xa=0,ya=0,lam=l0 1/2 1/4",
    ),
    fixtures.lambda_copies_setting_model: (
        "locality holds",
        "pi holds",
        "oi holds",
        "lambda fails ya=0,yb=0,lam=0 1/2 1/4",
        "weakdet holds",
        "strongdet holds",
    ),
    fixtures.correlated_coins_model: (
        "locality fails xa=0,xb=0,ya=0,yb=0,lam=l0 1/2 1/4",
        "pi holds",
        "oi fails xa=0,xb=0,ya=0,yb=0,lam=l0 1/2 1/4",
        "lambda holds",
        "weakdet fails xa=0,xb=0,ya=0,yb=0,lam=l0 1/2 1/4",
        "strongdet fails xa=0,ya=0,lam=l0 1/2 1/4",
    ),
}


class TestGoldenReports:
    """Full witnesses of all six checkers, pinned as golden values."""

    @pytest.mark.parametrize("builder", list(GOLDEN_REPORTS), ids=lambda b: b.__name__)
    def test_fixture_reports(self, builder):
        lines = tuple(report_line(r) for r in check_all(builder()))
        assert lines == GOLDEN_REPORTS[builder]

    def test_zoo_report_digest(self):
        rng = random.Random(4)
        digest = hashlib.sha256()
        for _ in range(200):
            for report in check_all(rand_hv_mixed(rng)):
                digest.update((report_line(report) + "\n").encode())
        assert digest.hexdigest() == (
            "8e1376202cf91f8f960977899f9c13116d9501d1f9650bb598494a80a51b0ca4"
        )


class TestCrossChecksWired:
    """A wrong second reading must raise, so the cross-checks really run."""

    @pytest.mark.parametrize(
        "checker",
        [check_locality, check_parameter_independence, check_outcome_independence],
        ids=lambda c: c.__name__,
    )
    @pytest.mark.parametrize("builder", [pr_box_hv, fair_coin_product_model], ids=lambda b: b.__name__)
    def test_wrong_fiber_verdict_raises(self, monkeypatch, checker, builder):
        verdict = checker(builder()).holds
        monkeypatch.setattr("hvkit.properties.is_fiber_product", lambda *args: not verdict)
        # a model built anew, since the first one's memo holds its fiber verdicts
        with pytest.raises(InternalCheckError):
            checker(builder())

    @pytest.mark.parametrize("builder", [pr_box_hv, lambda_copies_setting_model], ids=lambda b: b.__name__)
    def test_wrong_product_verdict_raises(self, monkeypatch, builder):
        model = builder()
        verdict = check_lambda_independence(model).holds
        monkeypatch.setattr("hvkit.properties.measures_equal", lambda *args: not verdict)
        with pytest.raises(InternalCheckError):
            check_lambda_independence(model)


def record_tables(monkeypatch):
    """Record every conditional table built from now on, as a hashable value."""
    built = []
    real = measure_module.CondProb

    def recording(target, given, table):
        built.append((target, given, tuple((g, tuple(row.items())) for g, row in table.items())))
        return real(target, given, table)

    monkeypatch.setattr(measure_module, "CondProb", recording)
    return built


class TestOneKernelPerModel:
    """Each conditional table and each fiber identity of a model is built once."""

    def test_check_all_builds_no_conditional_twice(self, monkeypatch):
        built = record_tables(monkeypatch)
        rng = random.Random(3)
        for _ in range(200):
            built.clear()
            check_all(rand_hv_mixed(rng))
            assert built and len(set(built)) == len(built)

    def test_determinize_local_builds_no_conditional_twice(self, monkeypatch):
        built = record_tables(monkeypatch)
        rng = random.Random(4)
        for _ in range(20):
            built.clear()
            determinize_local(rand_local_lambda_indep(rng, small=True))
            assert built and len(set(built)) == len(built)

    def test_check_all_decides_each_fiber_identity_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return is_fiber_product(*args)

        monkeypatch.setattr("hvkit.properties.is_fiber_product", counting)
        rng = random.Random(3)
        for _ in range(200):
            calls.clear()
            check_all(rand_hv_mixed(rng))
            assert 1 <= len(calls) <= 3


    def test_a_model_on_a_marginal_shares_its_roots_verdicts_soundly(self, monkeypatch):
        overs = []

        def counting(*args):
            overs.append(args[3])
            return is_fiber_product(*args)

        monkeypatch.setattr("hvkit.properties.is_fiber_product", counting)
        rng = random.Random(6)
        holds = Counter()
        for _ in range(60):
            small = rand_hv_mixed(rng).measure
            # a sixth coordinate, correlated with the rest, at a random position
            at = rng.randint(0, len(HV_COORDS))
            extra = ("e0", "e1", "e2")
            layout = ProductLayout(small.layout.factors[:at] + (FiniteSpace("e", extra),) + small.layout.factors[at:])
            weights = {}
            for atom, w in small.weights.items():
                for label, share in rand_dist(rng, extra, zero_chance=0.3).items():
                    weights[atom[:at] + (label,) + atom[at:]] = w * share
            big = FiniteMeasure(layout, weights)
            model = HVModel(marginal(big, HV_COORDS))
            boundary = HVModel(FiniteMeasure(model.measure.layout, dict(model.measure.weights)))

            overs.clear()
            reports = check_all(model)
            assert overs and len(set(overs)) == len(overs)  # each fiber identity decided once
            assert reports == check_all(boundary)
            # another marginal of the same root on the HV coordinates reads the shared verdicts
            overs.clear()
            assert check_all(HVModel(marginal(big, HV_COORDS[::-1]))) == reports
            assert overs == []
            holds[reports[0].holds] += 1
        # both locality verdicts occur, so a shared verdict is tested both ways
        assert holds[True] >= 10 and holds[False] >= 10, holds


def kernel_zero_one(kernel):
    """The kernel reading of a zero-one test: the first stored conditional other than 1, as (v, v*v)."""
    coords = kernel.target_coords + kernel.given_coords
    for given, row in kernel.table.items():
        for target, v in row.items():
            if v != 1:
                return Witness(tuple(zip(coords, target + given)), v, v * v)
    return None


def oracle_determinism(p):
    """Strong and weak determinism reports read off full kernels of a copy with no memo."""
    m = FiniteMeasure(p.measure.layout, dict(p.measure.weights))
    strong = kernel_zero_one(conditional(m, ("xa",), ("ya", "lam"))) or kernel_zero_one(
        conditional(m, ("xb",), ("yb", "lam"))
    )
    weak = kernel_zero_one(conditional(m, ("xa", "xb"), ("ya", "yb", "lam")))
    per_party = [kernel_zero_one(conditional(m, (x,), ("ya", "yb", "lam"))) for x in ("xa", "xb")]
    assert (weak is None) == (per_party == [None, None])
    return (
        PropertyReport(HVProperty.STRONG_DETERMINISM, strong is None, strong),
        PropertyReport(HVProperty.WEAK_DETERMINISM, weak is None, weak),
    )


def with_idle_labels(p):
    """The same weights with one more setting for Alice and one more lam label, both of mass zero."""
    labels = [p.space(name).atoms for name in HV_COORDS]
    labels[2] += ("idle",)
    labels[4] += ("idle",)
    return hv_model(*labels, dict(p.measure.weights))


class TestDeterminismOnTheSupport:
    """Both determinism checkers give the kernel reading's verdict and witness."""

    def test_matches_the_kernel_reading(self):
        rng = random.Random(67)
        models = (
            [rand_hv_mixed(rng) for _ in range(150)]
            + [rand_strategy_mixture(rng) for _ in range(40)]
            + [determinize_local(rand_local_lambda_indep(rng, small=True)) for _ in range(30)]
            + [determinize_empirical(rand_empirical(rng)) for _ in range(30)]
            + [with_idle_labels(rand_hv_mixed(rng)) for _ in range(60)]
        )
        verdicts = Counter()
        for p in models:
            strong, weak = oracle_determinism(p)
            assert check_strong_determinism(p) == strong
            assert check_weak_determinism(p) == weak
            verdicts[strong.holds, weak.holds] += 1
        # strong implies weak; each other pair of verdicts occurs often
        assert verdicts[True, False] == 0
        assert min(verdicts[True, True], verdicts[False, True], verdicts[False, False]) >= 20, verdicts

    @pytest.mark.parametrize("checker", [check_strong_determinism, check_weak_determinism], ids=lambda c: c.__name__)
    def test_a_failed_pass_with_no_witness_raises(self, monkeypatch, checker):
        model = pr_box_determinized()
        assert checker(model).holds
        monkeypatch.setattr(properties_module, "_determined", lambda *args: False)
        with pytest.raises(InternalCheckError, match="every conditional is 1"):
            checker(model)

    @pytest.mark.parametrize("builder", [pr_box_determinized, fair_coin_product_model], ids=lambda b: b.__name__)
    def test_weak_readings_that_disagree_raise(self, monkeypatch, builder):
        model, real = builder(), properties_module._determined

        def per_party_flipped(m, outcome_coords, given_coords):
            verdict = real(m, outcome_coords, given_coords)
            return verdict if len(outcome_coords) == 2 else not verdict

        monkeypatch.setattr(properties_module, "_determined", per_party_flipped)
        with pytest.raises(InternalCheckError, match="readings disagree"):
            check_weak_determinism(model)


def test_only_measure_touches_a_measures_memo():
    """Only hvkit.measure names a measure's memo or root; every other module goes through its functions."""
    package = Path(__file__).resolve().parent.parent / "src" / "hvkit"
    named = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "measure.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = (getattr(node, key, None) for key in ("attr", "id", "name", "value"))
            if any(name in ("_memo", "_root") for name in names):
                named.add(path.name)
    assert named == set()


def _labels(n):
    return tuple(str(i) for i in range(n))


class TestSparseWitnessSearch:
    """Witness searches walk the support, not every label combination.

    Each model is sparse over large label sets; walking the full products
    took from seconds to minutes.  The witnesses are the ones the full
    canonical-order search finds.
    """

    BUDGET_S = 5.0

    def timed(self, fn, model):
        started = time.monotonic()
        result = fn(model)
        assert time.monotonic() - started < self.BUDGET_S
        return result

    def test_lambda_witness_over_400_labels_per_coordinate(self):
        n = _labels(400)
        model = hv_model(
            ("0",), ("0",), n, n, n,
            {("0", "0", "398", "399", "398"): HALF, ("0", "0", "399", "398", "399"): HALF},
        )
        report = self.timed(check_lambda_independence, model)
        assert report_line(report) == "lambda fails ya=398,yb=399,lam=398 1/2 1/4"

    def test_all_hold_over_2000_outcomes_per_party(self):
        x = _labels(2000)
        model = hv_model(x, x, ("0",), ("0",), ("l0",), {("1999", "1999", "0", "0", "l0"): Fraction(1)})
        assert all(report.holds for report in self.timed(check_all, model))

    def test_signaling_witnesses_over_2000_outcomes_per_party(self):
        # Alice's outcome follows Bob's setting
        x = _labels(2000)
        weights = {
            ("1999" if yb == "0" else "1998", "1999", ya, yb, "l0"): QUARTER for ya in "01" for yb in "01"
        }
        model = hv_model(x, x, "01", "01", ("l0",), weights)
        lines = tuple(report_line(r) for r in self.timed(check_all, model))
        assert lines == (
            "locality fails xa=1998,xb=1999,ya=0,yb=0,lam=l0 0 1/2",
            "pi fails xa=1998,ya=0,yb=0,lam=l0 0 1/2",
            "oi holds",
            "lambda holds",
            "weakdet holds",
            "strongdet fails xa=1998,ya=0,lam=l0 1/2 1/4",
        )
