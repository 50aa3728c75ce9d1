"""The three determinization constructions and the interval machinery."""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from pathlib import Path

import pytest

import hvkit.determinize
import hvkit.models
from hvkit.cli import load_model_file, main, save_model_file, serialize_model
from hvkit.determinize import (
    MAX_DETERMINIZED_ATOMS,
    determinize_empirical,
    determinize_local,
    interval_partition,
    joint_outcome_tags,
    refined_cells,
    trivial_hv,
)
from hvkit.errors import PreconditionError, ResourceLimitError
from hvkit.fixtures import fair_coin_product_model, pr_box, pr_box_hv
from hvkit.measure import (
    FiniteMeasure,
    FiniteSpace,
    ProductLayout,
    _join_labels,
    conditional,
    marginal,
    product,
    reorder,
)
from hvkit.models import LAM, EmpiricalModel, HVModel, empirical_model, equivalent, hv_model, realizes
from hvkit.properties import (
    HVProperty,
    check_lambda_independence,
    check_locality,
    check_strong_determinism,
)
from hvkit.realizability import enumerate_strategies, local_hvm_exists, strategy_hv_model
from randmodels import rand_dist, rand_empirical, rand_local_lambda_indep, rand_strategy_mixture
from test_fiber import oracle_fiber_product
from test_properties import record_tables

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class Interval:
    """A half-open subinterval [lo, hi) of the unit interval; a partition's last one is closed."""

    outcome: str | None
    lo: Fraction
    hi: Fraction

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains_interval(self, lo: Fraction, hi: Fraction) -> bool:
        return self.lo <= lo and hi <= self.hi

    def label(self, last: bool) -> str:
        close = "]" if last else ")"
        return f"[{self.lo},{self.hi}{close}"


def oracle_interval_side(p, party):
    """One party's cell lengths and its coupling of outcome to (own setting, lam, cell),
    built from interval objects, each cell's outcome found by a containment scan."""
    outcome_coord, setting_coord = {"a": ("xa", "ya"), "b": ("xb", "yb")}[party]
    kernel = conditional(p.measure, (outcome_coord,), (setting_coord, LAM))
    rows = {}
    for given in kernel.given_atoms():
        row = kernel.row(given)
        intervals, cumulative = [], Fraction(0)
        for outcome in p.space(outcome_coord).atoms:
            weight = row.get((outcome,), Fraction(0))
            intervals.append(Interval(outcome, cumulative, cumulative + weight))
            cumulative += weight
        rows[given] = tuple(intervals)
    ordered = sorted({Fraction(0), Fraction(1)} | {i.hi for row in rows.values() for i in row})
    cells = [Interval(None, lo, hi) for lo, hi in zip(ordered, ordered[1:])]
    labels = tuple(c.label(i == len(cells) - 1) for i, c in enumerate(cells))
    cell_space = FiniteSpace(f"cell_{party}", labels)
    lengths = FiniteMeasure(ProductLayout((cell_space,)), {(lbl,): c.length for lbl, c in zip(labels, cells)})

    setting_lam_mass = marginal(p.measure, (setting_coord, LAM))
    weights = {}
    for given, intervals in rows.items():
        mass = setting_lam_mass.weight(given)
        for interval in intervals:
            if interval.length == 0:
                continue
            for label, cell in zip(labels, cells):
                if interval.contains_interval(cell.lo, cell.hi):
                    weights[(interval.outcome,) + given + (label,)] = mass * cell.length
    layout = ProductLayout((p.space(outcome_coord), p.space(setting_coord), p.space(LAM), cell_space))
    return lengths, FiniteMeasure(layout, weights)


def fuse_factors(p, coords, new_name):
    """Merge several coordinates into one whose labels join theirs with ``_join_labels``.

    The fused coordinate lists the full cartesian product of the merged
    factors in canonical order, zero-weight combinations included.
    """
    fused = p.layout.ordered(coords)
    keep = [n for n in p.layout.names if n not in fused]
    fused_pos, keep_pos = p.layout.positions(fused), p.layout.positions(keep)
    labels = tuple(map(_join_labels, cartesian(*(p.layout.space(n).atoms for n in fused))))
    layout = ProductLayout(tuple(p.layout.space(n) for n in keep) + (FiniteSpace(new_name, labels),))
    weights = {
        tuple(atom[i] for i in keep_pos) + (_join_labels(tuple(atom[i] for i in fused_pos)),): w
        for atom, w in p.weights.items()
    }
    return FiniteMeasure(layout, weights)


def rand_sparse_local(rng):
    """A local, lam-independent model with 1-3 settings and 2-4 outcomes per party.

    Response weights are drawn from 0..3, so rows hold zero conditionals
    and different rows often share endpoints.
    """
    ys = tuple(str(i) for i in range(rng.randint(1, 3)))
    xs = tuple(str(i) for i in range(rng.randint(2, 4)))
    lam = tuple(f"l{i}" for i in range(rng.randint(1, 4)))
    lam_dist = rand_dist(rng, lam, max_num=3)
    setting_dist = rand_dist(rng, list(cartesian(ys, ys)), zero_chance=0.2, max_num=3)
    response = {
        (party, y, l): rand_dist(rng, xs, zero_chance=0.3, max_num=3) for party in "ab" for y in ys for l in lam
    }
    weights = {}
    for (ya, yb), l in cartesian(setting_dist, lam):
        for xa, xb in cartesian(xs, xs):
            w = setting_dist[(ya, yb)] * lam_dist[l] * response["a", ya, l][xa] * response["b", yb, l][xb]
            if w:
                weights[(xa, xb, ya, yb, l)] = w
    return hv_model(xs, xs, ys, ys, lam, weights)


def coin_mixture(a_zero, b_zero, idle_lam=0, lam=None):
    """One setting per party; under lam i Alice says 0 with probability
    a_zero[i] and Bob with b_zero[i].  ``idle_lam`` more lam labels carry no
    mass.  ``lam`` gives the labels, ``l0``, ``l1``, ... by default."""
    lam = lam or tuple(f"l{i}" for i in range(len(a_zero) + idle_lam))
    share = Fraction(1, len(a_zero))
    weights = {}
    for l, a, b in zip(lam, a_zero, b_zero):
        for (xa, pa), (xb, pb) in cartesian((("0", a), ("1", 1 - a)), (("0", b), ("1", 1 - b))):
            if pa * pb:
                weights[(xa, xb, "y", "y", l)] = share * pa * pb
    return hv_model("01", "01", ("y",), ("y",), lam, weights)


class Unreached(Exception):
    pass


def unreached(*args, **kwargs):
    raise Unreached


def record_fiber_products(monkeypatch):
    """From now on, record each (q, r, over) that determinize passes to fiber_product."""
    calls, real = [], hvkit.determinize.fiber_product

    def recording(q, r, over):
        calls.append((q, r, over))
        return real(q, r, over)

    monkeypatch.setattr(hvkit.determinize, "fiber_product", recording)
    return calls


class TestTrivialHV:
    def test_realizes_and_ignores_settings(self):
        rng = random.Random(0)
        for _ in range(20):
            e = rand_empirical(rng)
            p = trivial_hv(e)
            assert realizes(p, e)
            assert check_lambda_independence(p).holds
            assert len(p.space("lam")) == 1

    def test_deterministic_input_stays_deterministic(self):
        e = empirical_model(
            "01", "01", "01", "01",
            {("0", "1", ya, yb): Fraction(1, 4) for ya in "01" for yb in "01"},
        )
        assert check_strong_determinism(trivial_hv(e)).holds


class TestDeterminizeEmpirical:
    def test_single_context_hand_values(self):
        e = empirical_model(
            "01", "01", ("y",), ("y",),
            {("0", "0", "y", "y"): HALF, ("1", "1", "y", "y"): HALF},
        )
        p = determinize_empirical(e)
        assert p.measure.weights == {
            ("0", "0", "y", "y", "0|0"): HALF,
            ("1", "1", "y", "y", "1|1"): HALF,
        }
        # given the hidden tag, Alice's outcome is pinned
        from hvkit.measure import conditional

        k = conditional(p.measure, ("xa",), ("lam",))
        assert k.value(("0|0",), ("0",)) == 1

    def test_point_mass(self):
        e = empirical_model(
            "01", "01", ("y",), ("y",), {("1", "0", "y", "y"): Fraction(1)}
        )
        p = determinize_empirical(e)
        assert p.measure.weights == {("1", "0", "y", "y", "1|0"): Fraction(1)}

    def test_pr_box_deterministic_but_setting_correlated(self):
        p = determinize_empirical(pr_box())
        assert realizes(p, pr_box())
        assert check_strong_determinism(p).holds
        assert not check_lambda_independence(p).holds

    def test_hidden_space_is_outcome_copy(self):
        rng = random.Random(1)
        for _ in range(20):
            e = rand_empirical(rng)
            p = determinize_empirical(e)
            # one tag per outcome pair of positive mass, in canonical order
            positive = marginal(e.measure, ("xa", "xb")).weights
            tags = tuple(f"{xa}|{xb}" for xa, xb in cartesian("01", "01") if (xa, xb) in positive)
            assert p.space("lam").atoms == tags
            assert realizes(p, e)
            assert check_strong_determinism(p).holds


    def test_outcome_labels_holding_the_separator_get_distinct_tags(self):
        # ("a|b", "c") and ("a", "b|c") would both be tagged "a|b|c" unescaped
        quarter = Fraction(1, 4)
        xa, xb = ("a|b", "a"), ("c", "b|c")
        e = empirical_model(xa, xb, ("y",), ("y",), {(a, b, "y", "y"): quarter for a in xa for b in xb})
        p = determinize_empirical(e)
        tags = p.space("lam").atoms
        assert len(set(tags)) == 4
        assert tags == joint_outcome_tags(e)
        assert realizes(p, e)
        assert check_strong_determinism(p).holds


    def test_tags_only_the_outcome_support(self):
        # 1,000 outcomes per party and two weights: tagging every outcome
        # pair built a million hidden labels
        x = tuple(str(i) for i in range(1000))
        e = empirical_model(x, x, ("y",), ("y",), {("0", "1", "y", "y"): HALF, ("999", "998", "y", "y"): HALF})
        started = time.monotonic()
        p = determinize_empirical(e)
        assert time.monotonic() - started < 1.0
        assert p.space("lam").atoms == ("0|1", "999|998") == joint_outcome_tags(e)
        assert p.measure.weights == {("0", "1", "y", "y", "0|1"): HALF, ("999", "998", "y", "y", "999|998"): HALF}
        assert realizes(p, e)
        assert check_strong_determinism(p).holds


class TestIntervalPartition:
    def build(self, conditionals):
        """Single setting, single lam, Alice outcomes with the given weights."""
        outcomes = tuple(str(i) for i in range(len(conditionals)))
        weights = {
            (o, "0", "y", "y", "l0"): w for o, w in zip(outcomes, conditionals) if w != 0
        }
        return hv_model(outcomes, "01", ("y",), ("y",), ("l0",), weights)

    def test_even_split(self):
        p = self.build((HALF, HALF))
        assert interval_partition(p, "a") == {("y", "l0"): (HALF, 1)}

    def test_degenerate_first_interval(self):
        p = self.build((Fraction(0), Fraction(1)))
        ((_, ends),) = interval_partition(p, "a").items()
        assert ends == (0, 1)

    def test_partial_sum_endpoints(self):
        p = self.build((THIRD, Fraction(1, 6), HALF))
        ((_, ends),) = interval_partition(p, "a").items()
        assert ends == (THIRD, HALF, Fraction(1))

    def test_row_lengths_sum_to_one(self):
        rng = random.Random(2)
        for _ in range(20):
            p = rand_local_lambda_indep(rng)
            for party in "ab":
                for ends in interval_partition(p, party).values():
                    assert list(ends) == sorted(ends)
                    assert ends[-1] == 1

    def test_refinement_covers_every_row(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_local_lambda_indep(rng)
            rows = interval_partition(p, "a")
            cells = refined_cells("a", rows).cells
            # consecutive positive-length cells from 0 to 1
            assert cells[0][0] == 0 and cells[-1][1] == 1
            assert all(lo < hi for lo, hi in cells)
            assert all(a[1] == b[0] for a, b in zip(cells, cells[1:]))
            # every row endpoint is a cell boundary
            boundaries = {hi for _, hi in cells}
            for ends in rows.values():
                assert set(ends) - {Fraction(0)} <= boundaries


class TestDeterminizeLocal:
    def test_already_deterministic_collapses(self):
        # uniform mixture over two constant outcome pairs
        weights = {}
        for ya in "01":
            for yb in "01":
                weights[("0", "0", ya, yb, "l0")] = Fraction(1, 8)
                weights[("1", "1", ya, yb, "l1")] = Fraction(1, 8)
        p = hv_model("01", "01", "01", "01", ("l0", "l1"), weights)
        out = determinize_local(p)
        assert out.space("lam").atoms == ("l0|[0,1]|[0,1]", "l1|[0,1]|[0,1]")
        assert equivalent(out, p)

    def test_fair_coins_split_at_one_half(self):
        p = fair_coin_product_model()
        out = determinize_local(p)
        assert len(p.space("lam")) == 1
        assert out.space("lam").atoms == (
            "l0|[0,1/2)|[0,1/2)",
            "l0|[0,1/2)|[1/2,1]",
            "l0|[1/2,1]|[0,1/2)",
            "l0|[1/2,1]|[1/2,1]",
        )
        # per context, each (outcome pair, cell pair) carries a quarter
        from hvkit.measure import conditional

        k = conditional(out.measure, ("xa", "xb", "lam"), ("ya", "yb"))
        for given in k.given_atoms():
            assert all(v == Fraction(1, 4) for v in k.row(given).values())

    def test_third_two_thirds_endpoints(self):
        # one party mixes conditionals 1/3 and 2/3 across its two settings
        weights = {}
        for ya in "01":
            flip = THIRD if ya == "0" else Fraction(2, 3)
            for yb in "01":
                weights[("0", "0", ya, yb, "l0")] = flip / 4
                weights[("1", "0", ya, yb, "l0")] = (1 - flip) / 4
        p = hv_model("01", "01", "01", "01", ("l0",), weights)
        cells = refined_cells("a", interval_partition(p, "a"))
        assert [lo for lo, _ in cells.cells] + [Fraction(1)] == [
            Fraction(0), THIRD, Fraction(2, 3), Fraction(1),
        ]
        out = determinize_local(p)
        assert equivalent(out, p)

    def test_precondition_failure_carries_report(self):
        with pytest.raises(PreconditionError) as excinfo:
            determinize_local(pr_box_hv())
        assert excinfo.value.report is not None
        assert excinfo.value.report.property is HVProperty.LOCALITY

    def test_lambda_dependence_rejected(self):
        from hvkit.fixtures import lambda_copies_setting_model

        with pytest.raises(PreconditionError) as excinfo:
            determinize_local(lambda_copies_setting_model())
        assert excinfo.value.report.property is HVProperty.LAMBDA_INDEPENDENCE

    def test_randomized_suite(self):
        rng = random.Random(4)
        for _ in range(40):
            p = rand_local_lambda_indep(rng)
            out = determinize_local(p)
            assert equivalent(out, p)
            assert check_strong_determinism(out).holds
            assert check_lambda_independence(out).holds

    def test_outcome_coupling_extends_own_marginal(self):
        # summing the output over the randomness cells recovers each
        # party's own-outcome marginal of the input
        rng = random.Random(5)
        for _ in range(15):
            p = rand_local_lambda_indep(rng)
            out = determinize_local(p)

            collapsed = {}
            for atom, w in out.measure.weights.items():
                xa, ya = atom[0], atom[2]
                lam = atom[4].split("|", 1)[0]
                key = (xa, ya, lam)
                collapsed[key] = collapsed.get(key, Fraction(0)) + w
            assert collapsed == dict(marginal(p.measure, ("xa", "ya", "lam")).weights)


class TestEndpointOracle:
    def test_extension_matches_interval_objects(self, monkeypatch):
        calls = record_fiber_products(monkeypatch)
        rng = random.Random(6)
        zero_conditionals = shared_endpoints = 0
        for _ in range(200):
            p = rand_sparse_local(rng)
            # the oracle lists every lam label, so it matches only where all carry mass
            assert len(marginal(p.measure, (LAM,)).weights) == len(p.space(LAM))
            # a fresh copy, so the oracle reads nothing from p's memo
            oracle = oracle_determinize_local(HVModel(FiniteMeasure(p.measure.layout, dict(p.measure.weights))))
            calls.clear()
            determinize_local(p)
            [(extended_a, extended_b, _)] = calls
            for party, extension in zip("ab", (extended_a, extended_b)):
                want = marginal(oracle.measure, ("x" + party, "ya", "yb", LAM))
                assert extension.layout == want.layout
                assert list(extension.weights.items()) == list(want.weights.items())
                rows = interval_partition(p, party)
                zero_conditionals += any(a == b for ends in rows.values() for a, b in zip((0,) + ends, ends))
                inner = [set(ends) - {0, 1} for ends in rows.values()]
                shared_endpoints += any(a & b for i, a in enumerate(inner) for b in inner[i + 1:])
        # the suite exercises both cases the endpoint lookup must get right
        assert zero_conditionals > 50 and shared_endpoints > 50


class TestFiberOracleEndToEnd:
    """Both determinizations write the same bytes when their fiber products come from the oracle."""

    def assert_same_bytes(self, monkeypatch, determinize, model):
        got = serialize_model(determinize(model))
        # a fresh copy, so the oracle side reads nothing from the first call's memo
        fresh = type(model)(FiniteMeasure(model.measure.layout, dict(model.measure.weights)))
        with monkeypatch.context() as patched:
            patched.setattr(hvkit.determinize, "fiber_product", oracle_fiber_product)
            want = serialize_model(determinize(fresh))
        assert got == want

    def test_determinize_local(self, monkeypatch):
        rng = random.Random(59)
        for _ in range(100):
            self.assert_same_bytes(monkeypatch, determinize_local, rand_local_lambda_indep(rng))

    def test_determinize_empirical_on_shipped_fixtures(self, monkeypatch):
        models = [load_model_file(str(path)) for path in sorted(FIXTURE_DIR.glob("*.json"))]
        empirical = [m for m in models if isinstance(m, EmpiricalModel)]
        assert len(empirical) >= 2
        for model in empirical:
            self.assert_same_bytes(monkeypatch, determinize_empirical, model)


def oracle_determinize_local(p):
    """The three-fiber-product construction with cell coordinates, kept as a reference.

    The two cells are coordinates of their own: r_bar is the product of
    the settings and lam with both parties' cell lengths, each party's
    coupling extends r_bar on its own, the two extensions are joined over
    all five of r_bar's coordinates, and (lam, cell_a, cell_b) is fused
    into lam at the end.  The fused coordinate lists every lam label, so
    this matches determinize_local only on inputs whose lam labels all
    carry mass.  The fiber products come from the reference in test_fiber.
    The prechecks, the size cap and the self-verification are left out.
    """
    lengths_a, coupling_a = oracle_interval_side(p, "a")
    lengths_b, coupling_b = oracle_interval_side(p, "b")
    r_bar = product(product(marginal(p.measure, ("ya", "yb", LAM)), lengths_a), lengths_b)
    extended_a = oracle_fiber_product(coupling_a, r_bar, over=("ya", LAM, "cell_a"))
    extended_b = oracle_fiber_product(coupling_b, r_bar, over=("yb", LAM, "cell_b"))
    joined = reorder(
        oracle_fiber_product(extended_a, extended_b, over=("ya", "yb", LAM, "cell_a", "cell_b")),
        ("xa", "xb", "ya", "yb", LAM, "cell_a", "cell_b"),
    )
    return HVModel(fuse_factors(joined, (LAM, "cell_a", "cell_b"), LAM))


class TestThreeProductOracle:
    """determinize_local builds one fiber product and writes the bytes the three-product body wrote."""

    def assert_same_bytes(self, monkeypatch, model):
        with monkeypatch.context() as patched:
            calls = record_fiber_products(patched)
            got = serialize_model(determinize_local(model))
        assert [over for _, _, over in calls] == [("ya", "yb", LAM)]
        fresh = type(model)(FiniteMeasure(model.measure.layout, dict(model.measure.weights)))
        assert got == serialize_model(oracle_determinize_local(fresh))

    def test_randomized_suites(self, monkeypatch):
        rng = random.Random(61)
        for _ in range(40):
            self.assert_same_bytes(monkeypatch, rand_local_lambda_indep(rng))
        for _ in range(20):
            self.assert_same_bytes(monkeypatch, rand_sparse_local(rng))

    def test_shipped_fixtures(self, monkeypatch):
        models = [load_model_file(str(path)) for path in sorted(FIXTURE_DIR.glob("*.json"))]
        local = [
            m for m in models if isinstance(m, HVModel) and check_locality(m).holds and check_lambda_independence(m).holds
        ]
        assert local  # the fair-coin product model
        for model in local:
            self.assert_same_bytes(monkeypatch, model)

    def test_lam_labels_holding_the_separator_get_distinct_hidden_labels(self, monkeypatch):
        # each lam label is escaped inside its hidden labels, as _join_labels escapes
        lam = ("a|b", "a", "x\\", "\\|y")
        model = coin_mixture([HALF, 1, THIRD, 1], [1, HALF, 1, Fraction(1, 4)], lam=lam)
        self.assert_same_bytes(monkeypatch, model)
        labels = determinize_local(model).space(LAM).atoms
        # Alice's cells split at 1/3 and 1/2, Bob's at 1/4 and 1/2
        assert len(set(labels)) == len(labels) == 4 * 3 * 3
        assert labels[:2] == ("a\\|b|[0,1/3)|[0,1/4)", "a\\|b|[0,1/3)|[1/4,1/2)")
        assert labels[-1] == "\\\\\\|y|[1/2,1]|[1/2,1]"
        rng = random.Random(62)
        for _ in range(10):
            p = rand_local_lambda_indep(rng)
            relabel = dict(zip(p.space(LAM).atoms, lam))
            weights = {atom[:4] + (relabel[atom[4]],): w for atom, w in p.measure.weights.items()}
            names = [p.space(n).atoms for n in ("xa", "xb", "ya", "yb")]
            self.assert_same_bytes(monkeypatch, hv_model(*names, lam[: len(relabel)], weights))


class TestFineOracle:
    """Fine's theorem: a strategy mixture's model determinizes to itself, one cell per party."""

    def test_strategy_models_keep_their_mixture(self):
        rng = random.Random(63)
        for _ in range(30):
            e = rand_strategy_mixture(rng).empirical()
            feasible, certificate = local_hvm_exists(e)
            assert feasible
            strategies = enumerate_strategies(e.space("ya"), e.space("yb"), e.space("xa"), e.space("xb"))
            model = strategy_hv_model(e, strategies, certificate.weights)
            out = determinize_local(model)
            for party in "ab":
                assert refined_cells(party, interval_partition(model, party)).cells == ((0, 1),)
            suffix = "|[0,1]|[0,1]"
            assert out.space(LAM).atoms == tuple(label + suffix for label in model.space(LAM).atoms)
            assert out.measure.weights == {
                atom[:4] + (atom[4] + suffix,): w for atom, w in model.measure.weights.items()
            }


class TestConstructionGuard:
    def test_builds_no_product_reorder_or_validated_measure(self, monkeypatch):
        # every measure determinize_local builds goes through _derived or fiber_product
        for name in ("product", "reorder", "FiniteMeasure"):
            monkeypatch.setattr(hvkit.determinize, name, unreached, raising=False)
        calls = record_fiber_products(monkeypatch)
        rng = random.Random(64)
        models = [rand_local_lambda_indep(rng) for _ in range(10)] + [rand_sparse_local(rng) for _ in range(10)]
        for model in models:
            assert equivalent(determinize_local(model), model)
        layouts = [(q.layout.names, r.layout.names) for q, r, _ in calls]
        assert layouts == [(("xa", "ya", "yb", LAM), ("xb", "ya", "yb", LAM))] * len(models)

    def test_extensions_share_each_mass(self, monkeypatch):
        # each (ya, yb, new lam) mass is formed once and carried by both extensions
        calls = record_fiber_products(monkeypatch)
        rng = random.Random(66)
        models = [rand_local_lambda_indep(rng) for _ in range(10)] + [rand_sparse_local(rng) for _ in range(10)]
        for model in models:
            determinize_local(model)
        assert len(calls) == len(models)
        for q, r, _ in calls:
            by_z = {atom[1:]: w for atom, w in q.weights.items()}
            assert len(by_z) == len(q.weights) == len(r.weights)
            assert all(w is by_z[atom[1:]] for atom, w in r.weights.items())

    def test_result_needs_no_reorder(self, monkeypatch):
        # the fiber product's layout x + y + z is already (xa, xb, ya, yb, lam)
        permuted, real = [], hvkit.models.reorder

        def recording(p, names):
            names = tuple(names)
            if names != p.layout.names:
                permuted.append((p.layout.names, names))
            return real(p, names)

        rng = random.Random(65)
        models = [rand_local_lambda_indep(rng) for _ in range(10)] + [rand_sparse_local(rng) for _ in range(10)]
        monkeypatch.setattr(hvkit.models, "reorder", recording)
        for model in models:
            determinize_local(model)
        assert permuted == []


class TestSelfCheckGuard:
    """Strong determinism is decided on the support: a model that has it gets no own-setting kernel."""

    OWN_SETTING = ((("xa",), ("ya", LAM)), (("xb",), ("yb", LAM)))

    def test_determinize_local_builds_none_on_its_result(self, monkeypatch):
        built = record_tables(monkeypatch)
        rng = random.Random(68)
        for _ in range(10):
            p = rand_local_lambda_indep(rng, small=True)
            built.clear()
            determinize_local(p)
            own = [(target, given, table) for target, given, table in built if (target, given) in self.OWN_SETTING]
            # only the input's two, which the precheck and the interval partition share
            assert [(target, given) for target, given, _ in own] == list(self.OWN_SETTING)
            assert {g[1] for _, _, table in own for g, _ in table} <= set(p.space(LAM).atoms)

    def test_a_model_that_passes_builds_no_kernel(self, monkeypatch):
        rng = random.Random(69)
        models = [rand_strategy_mixture(rng) for _ in range(20)]
        models += [determinize_local(rand_local_lambda_indep(rng, small=True)) for _ in range(5)]
        built = record_tables(monkeypatch)
        for model in models:
            fresh = HVModel(FiniteMeasure(model.measure.layout, dict(model.measure.weights)))
            assert check_strong_determinism(fresh).holds
        assert built == []


class TestOutputCap:
    """Over MAX_DETERMINIZED_ATOMS atoms, nothing is built."""

    def atoms_model(self, lam_count):
        # 39 distinct inner endpoints for Alice and 49 for Bob: 40 x 50 cells
        a = [Fraction(i % 39 + 1, 40) for i in range(lam_count)]
        b = [Fraction(i % 49 + 1, 50) for i in range(lam_count)]
        return coin_mixture(a, b)

    def test_atom_count(self, monkeypatch):
        monkeypatch.setattr(hvkit.determinize, "fiber_product", unreached)
        lam_count = MAX_DETERMINIZED_ATOMS // (40 * 50)
        assert lam_count * 40 * 50 == MAX_DETERMINIZED_ATOMS
        with pytest.raises(Unreached):
            determinize_local(self.atoms_model(lam_count))
        over = lam_count + 1
        with pytest.raises(ResourceLimitError, match=f"{over * 40 * 50} atoms .* MAX_DETERMINIZED_ATOMS"):
            determinize_local(self.atoms_model(over))

    def test_hidden_label_count(self):
        # deterministic, so one cell per party; idle lam labels get no hidden label
        p = coin_mixture([1], [1], idle_lam=MAX_DETERMINIZED_ATOMS)
        assert len(p.space(LAM)) == MAX_DETERMINIZED_ATOMS + 1
        out = determinize_local(p)
        assert out.space(LAM).atoms == ("l0|[0,1]|[0,1]",)
        assert out.measure.weights == {("0", "0", "y", "y", "l0|[0,1]|[0,1]"): 1}
        assert equivalent(out, p)

    def test_cli_refusal_is_one_line(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(hvkit.determinize, "fiber_product", unreached)
        path, out_file = tmp_path / "big.json", tmp_path / "out.json"
        save_model_file(self.atoms_model(MAX_DETERMINIZED_ATOMS // (40 * 50) + 1), str(path))
        code = main(["determinize", str(path), "--method", "local", "--out", str(out_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out_file.exists()
