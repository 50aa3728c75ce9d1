"""The three determinization constructions and the interval machinery."""

import random
from fractions import Fraction

import pytest

from hvkit.determinize import (
    determinize_empirical,
    determinize_local,
    interval_partition,
    joint_outcome_tags,
    refined_cells,
    trivial_hv,
)
from hvkit.errors import PreconditionError
from hvkit.fixtures import fair_coin_product_model, pr_box, pr_box_hv
from hvkit.measure import marginal
from hvkit.models import empirical_model, equivalent, hv_model, realizes
from hvkit.properties import (
    HVProperty,
    check_lambda_independence,
    check_strong_determinism,
)
from randmodels import rand_empirical, rand_local_lambda_indep

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


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
            assert p.space("lam").atoms == ("0|0", "0|1", "1|0", "1|1")
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
        rows = interval_partition(p, "a").rows
        ((_, intervals),) = rows.items()
        assert [(i.lo, i.hi) for i in intervals] == [(0, HALF), (HALF, 1)]

    def test_degenerate_first_interval(self):
        p = self.build((Fraction(0), Fraction(1)))
        ((_, intervals),) = interval_partition(p, "a").rows.items()
        assert [(i.lo, i.hi) for i in intervals] == [(0, 0), (0, 1)]

    def test_partial_sum_endpoints(self):
        p = self.build((THIRD, Fraction(1, 6), HALF))
        ((_, intervals),) = interval_partition(p, "a").rows.items()
        assert [i.hi for i in intervals] == [THIRD, HALF, Fraction(1)]

    def test_row_lengths_sum_to_one(self):
        rng = random.Random(2)
        for _ in range(20):
            p = rand_local_lambda_indep(rng)
            for party in "ab":
                for intervals in interval_partition(p, party).rows.values():
                    assert sum((i.length for i in intervals), Fraction(0)) == 1

    def test_refinement_covers_every_row(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_local_lambda_indep(rng)
            partition = interval_partition(p, "a")
            cells = refined_cells(partition)
            assert sum(cells.lengths(), Fraction(0)) == 1
            for intervals in partition.rows.values():
                for interval in intervals:
                    covered = [
                        c for c in cells.cells if interval.contains_interval(c.lo, c.hi)
                    ]
                    assert sum((c.length for c in covered), Fraction(0)) == interval.length


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
        partition = interval_partition(p, "a")
        cells = refined_cells(partition)
        assert [c.lo for c in cells.cells] + [Fraction(1)] == [
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
