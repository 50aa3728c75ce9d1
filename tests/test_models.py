"""Model wrappers, realization, equivalence, and the named marginals."""

import random
from fractions import Fraction

import pytest

from hvkit.determinize import determinize_empirical, trivial_hv
from hvkit.errors import LayoutError
from hvkit.measure import FiniteMeasure, ProductLayout, marginal, measures_equal, product
from hvkit.models import (
    EmpiricalModel,
    HVModel,
    empirical_model,
    equivalent,
    hv_model,
    realizes,
)
from randmodels import rand_empirical, rand_fully_random, rand_product_model

HALF = Fraction(1, 2)

# The seven named marginals of a hidden-variable model, each as
# (the named marginal it is taken from, or None for the model, coordinates):
# p_a / p_b drop the other party's outcome, q_a / q_b keep a party's own
# outcome and setting with lam, r is settings plus lam, p_y and p_lam
# are the settings and lam alone.
NAMED_MARGINALS = {
    "p_a": (None, ("xa", "ya", "yb", "lam")),
    "p_b": (None, ("xb", "ya", "yb", "lam")),
    "q_a": ("p_a", ("xa", "ya", "lam")),
    "q_b": ("p_b", ("xb", "yb", "lam")),
    "r": ("p_a", ("ya", "yb", "lam")),
    "p_y": ("r", ("ya", "yb")),
    "p_lam": ("r", ("lam",)),
}


def named_marginals(p: HVModel) -> dict:
    """The seven named marginals, each taken from the one NAMED_MARGINALS nests it in."""
    family = {}
    for name, (parent, coords) in NAMED_MARGINALS.items():
        family[name] = marginal(family[parent] if parent else p.measure, coords)
    return family


class TestConstruction:
    def test_coordinate_names_enforced(self):
        e = rand_empirical(random.Random(0))
        with pytest.raises(LayoutError):
            HVModel(e.measure)
        with pytest.raises(LayoutError):
            EmpiricalModel(marginal(e.measure, ("xa", "xb", "ya")))

    def test_factor_order_normalized(self):
        e = rand_empirical(random.Random(1))
        shuffled = FiniteMeasure(
            ProductLayout(tuple(e.measure.layout.space(n) for n in ("yb", "xa", "ya", "xb"))),
            {
                (atom[3], atom[0], atom[2], atom[1]): w
                for atom, w in e.measure.weights.items()
            },
        )
        again = EmpiricalModel(shuffled)
        assert measures_equal(again.measure, e.measure)


class TestRealizes:
    def test_trivial_hidden_space(self):
        e = rand_empirical(random.Random(2))
        assert realizes(trivial_hv(e), e)

    def test_perturbed_marginal_fails(self):
        e = rand_empirical(random.Random(3))
        p = trivial_hv(e)
        atoms = list(e.measure.weights)
        donor, receiver = atoms[0], atoms[-1]
        shift = e.measure.weights[donor] / 2
        perturbed_weights = dict(e.measure.weights)
        perturbed_weights[donor] -= shift
        perturbed_weights[receiver] = perturbed_weights.get(receiver, Fraction(0)) + shift
        perturbed = EmpiricalModel(FiniteMeasure(e.measure.layout, perturbed_weights))
        assert not realizes(p, perturbed)

    def test_determinized_realizes(self):
        e = rand_empirical(random.Random(4))
        assert realizes(determinize_empirical(e), e)

    def test_atom_set_mismatch(self):
        e = empirical_model("01", "01", "01", "01", {("0", "0", "0", "0"): Fraction(1)})
        other = empirical_model("ab", "01", "01", "01", {("a", "0", "0", "0"): Fraction(1)})
        with pytest.raises(LayoutError):
            realizes(trivial_hv(e), other)


class TestEquivalent:
    def test_hidden_space_relabelling_invisible(self):
        rng = random.Random(5)
        p = rand_product_model(rng)
        relabeled = hv_model(
            "01",
            "01",
            "01",
            "01",
            tuple(f"renamed_{l}" for l in p.space("lam").atoms),
            {
                atom[:4] + (f"renamed_{atom[4]}",): w
                for atom, w in p.measure.weights.items()
            },
        )
        assert equivalent(p, relabeled)

    def test_two_constructions_of_same_statistics(self):
        e = rand_empirical(random.Random(6))
        assert equivalent(trivial_hv(e), determinize_empirical(e))

    def test_different_statistics_differ(self):
        rng = random.Random(7)
        e1, e2 = rand_empirical(rng), rand_empirical(rng)
        if measures_equal(e1.measure, e2.measure):
            pytest.skip("random draw collided")
        assert not equivalent(trivial_hv(e1), trivial_hv(e2))

    def test_is_equivalence_relation(self):
        rng = random.Random(8)
        models = [rand_fully_random(rng) for _ in range(6)]
        for a in models:
            assert equivalent(a, a)
            for b in models:
                assert equivalent(a, b) == equivalent(b, a)
                for c in models:
                    if equivalent(a, b) and equivalent(b, c):
                        assert equivalent(a, c)


class TestNamedMarginals:
    def test_product_model_factorizes_settings_and_hidden(self):
        rng = random.Random(9)
        p = rand_product_model(rng)
        family = named_marginals(p)
        assert measures_equal(family["r"], product(family["p_y"], family["p_lam"]))

    def test_point_mass_model(self):
        p = hv_model("01", "01", "01", "01", ("l0",), {("0", "1", "1", "0", "l0"): Fraction(1)})
        family = named_marginals(p)
        assert len(family) == 7
        for m in family.values():
            assert len(m.weights) == 1

    def test_nested_marginal_consistency(self):
        rng = random.Random(10)
        for _ in range(20):
            p = rand_fully_random(rng)
            family = named_marginals(p)
            # the direct marginals come from an equal measure built anew, so
            # no memoized result of the nested chain can be handed back
            fresh = FiniteMeasure(p.measure.layout, dict(p.measure.weights))
            for name, (_, coords) in NAMED_MARGINALS.items():
                assert measures_equal(family[name], marginal(fresh, coords))

    def test_realizes_own_empirical(self):
        rng = random.Random(11)
        for _ in range(10):
            p = rand_fully_random(rng)
            assert realizes(p, p.empirical())
