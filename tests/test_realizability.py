"""Local polytope membership, certificates, and the correlator functional."""

import random
from fractions import Fraction
from itertools import product as cartesian

import pytest

import hvkit.realizability as realizability
from hvkit.errors import DomainError, ResourceLimitError
from hvkit.fixtures import pr_box, signaling_model, singlet_chsh_model
from hvkit.measure import FiniteSpace, conditional, marginal
from hvkit.models import EmpiricalModel, empirical_model
from hvkit.quantumgen import singlet_model
from hvkit.realizability import (
    chsh_value,
    enumerate_strategies,
    local_hvm_exists,
    strategy_hv_model,
)
from randmodels import BITS, rand_dist, rand_local_lambda_indep, rand_strategy_mixture

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def bit_space(name):
    return FiniteSpace(name, BITS)


def strategy_behavior_model(outcomes_a, outcomes_b):
    """Empirical model of a single deterministic strategy, uniform settings."""
    weights = {}
    for ya in BITS:
        for yb in BITS:
            weights[(outcomes_a[int(ya)], outcomes_b[int(yb)], ya, yb)] = QUARTER
    return empirical_model(BITS, BITS, BITS, BITS, weights)


def brute_force_chsh_bound():
    """Independent enumeration oracle: the correlator maximum over strategies."""
    best = None
    for fa in cartesian((1, -1), repeat=2):
        for fb in cartesian((1, -1), repeat=2):
            value = fa[0] * fb[0] + fa[0] * fb[1] + fa[1] * fb[0] - fa[1] * fb[1]
            best = value if best is None else max(best, value)
    return best


class TestEnumerateStrategies:
    def test_counts(self):
        two = bit_space
        assert len(enumerate_strategies(two("ya"), two("yb"), two("xa"), two("xb"))) == 16
        one = FiniteSpace("ya", ("0",))
        oneb = FiniteSpace("yb", ("0",))
        assert len(enumerate_strategies(one, oneb, two("xa"), two("xb"))) == 4
        three = FiniteSpace("ya", ("0", "1", "2"))
        threeb = FiniteSpace("yb", ("0", "1", "2"))
        assert len(enumerate_strategies(three, threeb, two("xa"), two("xb"))) == 64

    def test_no_duplicates_and_deterministic_order(self):
        two = bit_space
        first = enumerate_strategies(two("ya"), two("yb"), two("xa"), two("xb"))
        second = enumerate_strategies(two("ya"), two("yb"), two("xa"), two("xb"))
        assert first == second
        assert len(set(first)) == len(first)

    def test_cap(self):
        big = FiniteSpace("ya", tuple(str(i) for i in range(21)))
        two = bit_space
        with pytest.raises(ResourceLimitError):
            enumerate_strategies(big, two("yb"), two("xa"), two("xb"))


class TestChshValue:
    def test_constant_strategy(self):
        e = strategy_behavior_model(("0", "0"), ("0", "0"))
        assert chsh_value(e) == 2

    def test_pr_box(self):
        assert abs(chsh_value(pr_box())) == 4

    def test_brute_force_strategy_bound_is_two(self):
        assert brute_force_chsh_bound() == 2
        values = set()
        ya, yb, xa, xb = bit_space("ya"), bit_space("yb"), bit_space("xa"), bit_space("xb")
        for strategy in enumerate_strategies(ya, yb, xa, xb):
            e = strategy_behavior_model(strategy.outcomes_a, strategy.outcomes_b)
            values.add(chsh_value(e))
        assert max(values) == 2 and min(values) == -2

    def test_wrong_shape_rejected(self):
        e = empirical_model(
            BITS, BITS, ("0",), ("0",), {("0", "0", "0", "0"): Fraction(1)}
        )
        with pytest.raises(DomainError):
            chsh_value(e)

    def test_zero_probability_context_rejected(self):
        weights = {("0", "0", ya, yb): HALF for ya, yb in (("0", "0"), ("1", "1"))}
        e = empirical_model(BITS, BITS, BITS, BITS, weights)
        with pytest.raises(DomainError):
            chsh_value(e)


class TestLocalHVMExists:
    def test_single_strategy_is_a_point_mixture(self):
        e = strategy_behavior_model(("0", "1"), ("1", "1"))
        feasible, certificate = local_hvm_exists(e)
        assert feasible
        ((strategy, weight),) = certificate.weights.items()
        assert weight == 1
        assert strategy.outcomes_a == ("0", "1")
        assert strategy.outcomes_b == ("1", "1")

    def test_pr_box_certificate(self):
        feasible, certificate = local_hvm_exists(pr_box())
        assert not feasible
        assert certificate.classical_bound == 2
        assert certificate.achieved_value == 4

    def test_singlet_certificate(self):
        feasible, certificate = local_hvm_exists(singlet_chsh_model())
        assert not feasible
        assert certificate.classical_bound == 2
        violation = certificate.achieved_value
        assert abs(float(violation) - 2.828427124746) < 1e-4

    def test_signaling_infeasible_via_dual(self):
        e = signaling_model().empirical()
        feasible, certificate = local_hvm_exists(e)
        assert not feasible
        # signaling is invisible to the correlator family; the LP dual
        # must still separate strictly
        assert certificate.achieved_value > certificate.classical_bound
        for coefficient in certificate.bell_functional.values():
            assert coefficient.denominator == 1

    def test_random_mixtures_feasible(self):
        rng = random.Random(0)
        for _ in range(25):
            p = rand_strategy_mixture(rng)
            feasible, certificate = local_hvm_exists(p.empirical())
            assert feasible
            assert sum(certificate.weights.values()) == 1

    def test_random_local_models_feasible(self):
        # statistics of any local setting-independent model stay inside
        rng = random.Random(1)
        for _ in range(15):
            p = rand_local_lambda_indep(rng)
            feasible, _ = local_hvm_exists(p.empirical())
            assert feasible

    def test_noisy_pr_box_boundary(self):
        # visibility v of the PR box against uniform noise: local up to 1/2
        def noisy(v: Fraction) -> EmpiricalModel:
            weights = {}
            for xa, xb, ya, yb in cartesian(BITS, BITS, BITS, BITS):
                hit = (int(xa) + int(xb)) % 2 == int(ya) * int(yb)
                w = v * (HALF if hit else 0) + (1 - v) * QUARTER
                weights[(xa, xb, ya, yb)] = w * QUARTER
            return empirical_model(BITS, BITS, BITS, BITS, weights)

        feasible_at_half, _ = local_hvm_exists(noisy(HALF))
        assert feasible_at_half
        feasible_above, certificate = local_hvm_exists(noisy(HALF + Fraction(1, 1000)))
        assert not feasible_above
        assert certificate.achieved_value > certificate.classical_bound

    def test_membership_agrees_with_correlator_oracle(self):
        # independent oracle for no-signaling behaviors: membership in the
        # local set is exactly "every correlator variant at most 2"
        rng = random.Random(2)
        pr_variants = []
        for sa, sb, sc in cartesian(BITS, BITS, BITS):
            weights = {}
            for xa, xb, ya, yb in cartesian(BITS, BITS, BITS, BITS):
                parity = (int(xa) + int(xb) + int(sa) * int(ya) + int(sb) * int(yb) + int(sc)) % 2
                if parity == int(ya) * int(yb):
                    weights[(xa, xb, ya, yb)] = Fraction(1, 8)
            pr_variants.append(weights)

        strategies = enumerate_strategies(
            bit_space("ya"), bit_space("yb"), bit_space("xa"), bit_space("xb")
        )
        verdicts = set()
        for _ in range(25):
            pr_weight = Fraction(rng.randint(0, 9), 10)
            strategy_mix = rand_dist(rng, tuple(range(len(strategies))))
            weights = {}
            for index, weight in strategy_mix.items():
                share = (1 - pr_weight) * weight
                if share == 0:
                    continue
                s = strategies[index]
                for ya in BITS:
                    for yb in BITS:
                        key = (s.outcomes_a[int(ya)], s.outcomes_b[int(yb)], ya, yb)
                        weights[key] = weights.get(key, Fraction(0)) + share * QUARTER
            chosen_pr = rng.choice(pr_variants)
            for key, w in chosen_pr.items():
                if pr_weight * w != 0:
                    weights[key] = weights.get(key, Fraction(0)) + pr_weight * w
            e = empirical_model(BITS, BITS, BITS, BITS, weights)

            kernel = conditional(e.measure, ("xa", "xb"), ("ya", "yb"))
            variants_ok = True
            for signs in cartesian((1, -1), repeat=4):
                if signs[0] * signs[1] * signs[2] * signs[3] != -1:
                    continue
                total = Fraction(0)
                for (i, j), sign in zip(cartesian(range(2), range(2)), signs):
                    context = (BITS[i], BITS[j])
                    for (oa, ob), value in kernel.row(context).items():
                        product_sign = (1 if oa == "0" else -1) * (1 if ob == "0" else -1)
                        total += sign * product_sign * value
                if total > 2:
                    variants_ok = False
            feasible, _ = local_hvm_exists(e)
            assert feasible == variants_ok
            verdicts.add(feasible)
        assert verdicts == {True, False}


class TestCertificateSoundness:
    def test_feasible_behaviors_respect_the_classical_bound(self):
        rng = random.Random(4)
        checked = 0
        for _ in range(30):
            p = rand_strategy_mixture(rng)
            e = p.empirical()
            settings = marginal(e.measure, ("ya", "yb"))
            if len(settings.weights) < 4:
                continue  # chsh needs every context positive
            feasible, _ = local_hvm_exists(e)
            assert feasible
            assert abs(chsh_value(e)) <= 2
            checked += 1
        assert checked >= 10

    def test_chsh_never_exceeds_four(self):
        rng = random.Random(5)
        from randmodels import rand_empirical

        checked = 0
        for _ in range(50):
            e = rand_empirical(rng)
            settings = marginal(e.measure, ("ya", "yb"))
            if len(settings.weights) < 4:
                continue
            assert abs(chsh_value(e)) <= 4
            checked += 1
        assert checked >= 20

    def test_infeasible_functional_reverified_against_every_strategy(self):
        for builder in (pr_box, lambda: signaling_model().empirical(), singlet_chsh_model):
            e = builder()
            feasible, certificate = local_hvm_exists(e)
            assert not feasible
            ya, yb = e.space("ya"), e.space("yb")
            strategies = enumerate_strategies(ya, yb, e.space("xa"), e.space("xb"))
            for strategy in strategies:
                total = Fraction(0)
                for atom, coefficient in certificate.bell_functional.items():
                    oa, ob, sa, sb = atom
                    if (
                        strategy.outcomes_a[ya.index(sa)] == oa
                        and strategy.outcomes_b[yb.index(sb)] == ob
                    ):
                        total += coefficient
                assert total <= certificate.classical_bound
            assert certificate.achieved_value > certificate.classical_bound


class TestStrategyHVModel:
    def test_reconstruction_keeps_setting_distribution(self):
        rng = random.Random(3)
        p = rand_strategy_mixture(rng)
        e = p.empirical()
        feasible, certificate = local_hvm_exists(e)
        assert feasible
        strategies = enumerate_strategies(
            e.space("ya"), e.space("yb"), e.space("xa"), e.space("xb")
        )
        model = strategy_hv_model(e, strategies, certificate.weights)
        assert marginal(model.measure, ("ya", "yb")).weights == marginal(
            e.measure, ("ya", "yb")
        ).weights


    def test_hidden_space_lists_only_positive_weight_strategies(self):
        rng = random.Random(8)
        models = [rand_strategy_mixture(rng).empirical() for _ in range(20)]
        # three strategies over 4 x 4 settings, 256 strategies in all
        settings = "0123"
        strategies = [tuple(rng.choice(BITS) for _ in settings) for _ in range(6)]
        weights = {}
        for (fa, fb), ya, yb in cartesian(zip(strategies[::2], strategies[1::2]), settings, settings):
            key = (fa[int(ya)], fb[int(yb)], ya, yb)
            weights[key] = weights.get(key, Fraction(0)) + Fraction(1, 48)
        models.append(empirical_model(BITS, BITS, settings, settings, weights))
        for e in models:
            feasible, certificate = local_hvm_exists(e)
            assert feasible
            strategies = enumerate_strategies(e.space("ya"), e.space("yb"), e.space("xa"), e.space("xb"))
            model = strategy_hv_model(e, strategies, certificate.weights)
            positive = tuple(f"s{i}" for i, s in enumerate(strategies) if certificate.weights.get(s, 0) > 0)
            assert model.space("lam").atoms == positive
            assert len(positive) < len(strategies)


def fraction_bound(functional, strategies, ya, yb, contexts):
    """The classical bound as this package computed it before the integer sums:
    a Fraction sum per strategy, maximized over every strategy."""
    return max(
        sum(
            (
                functional.get((s.outcomes_a[ya.index(c[0])], s.outcomes_b[yb.index(c[1])]) + c, Fraction(0))
                for c in contexts
            ),
            Fraction(0),
        )
        for s in strategies
    )


class TestClassicalBound:
    def bound_inputs(self, e):
        ya, yb = e.space("ya"), e.space("yb")
        strategies = enumerate_strategies(ya, yb, e.space("xa"), e.space("xb"))
        return strategies, ya, yb, list(conditional(e.measure, ("xa", "xb"), ("ya", "yb")).given_atoms())

    def test_correlator_variants(self):
        rng = random.Random(7)
        from randmodels import rand_empirical

        models = [pr_box(), singlet_chsh_model()] + [rand_empirical(rng) for _ in range(30)]
        checked = 0
        for e in models:
            kernel = realizability._behavior(e)
            args = self.bound_inputs(e)
            for functional in realizability._correlator_variants(e, kernel):
                assert realizability._classical_bound(functional, *args) == fraction_bound(functional, *args) == 2
                checked += 1
        assert checked >= 80

    def test_lp_dual_functionals(self, monkeypatch):
        duals = []
        original = realizability._infeasible_certificate

        def capture(e, strategies, dual):
            duals.append((e, dual))
            return original(e, strategies, dual)

        monkeypatch.setattr(realizability, "_infeasible_certificate", capture)
        rng = random.Random(11)
        models = [signaling_model().empirical(), singlet_model((0, 60, 120), (30, 90, 150))]
        models += [rand_signaling(rng) for _ in range(12)]
        for e in models:
            local_hvm_exists(e)
        assert len(duals) >= 8
        for e, dual in duals:
            strategies, ya, yb, contexts = args = self.bound_inputs(e)
            rows = [(oa, ob) + c for c in contexts for oa in e.space("xa").atoms for ob in e.space("xb").atoms]
            raw = dict(zip(rows, dual))
            for functional in (raw, realizability._primitive_integer_scaling(raw)):
                assert realizability._classical_bound(functional, *args) == fraction_bound(functional, *args)

    def test_rational_coefficients(self):
        rng = random.Random(13)
        e = singlet_model((0, 45, 90), (30, 75))
        strategies, ya, yb, contexts = args = self.bound_inputs(e)
        rows = [(oa, ob) + c for c in contexts for oa in e.space("xa").atoms for ob in e.space("xb").atoms]
        for _ in range(20):
            functional = {row: Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for row in rows}
            bound = realizability._classical_bound(functional, *args)
            assert bound == fraction_bound(functional, *args)
        assert realizability._classical_bound({}, *args) == 0


def rand_signaling(rng):
    """A random 2x2 model whose outcomes depend on the other party's setting, usually nonlocal."""
    weights = {}
    for ya, yb in cartesian(BITS, BITS):
        dist = rand_dist(rng, list(cartesian(BITS, BITS)), zero_chance=0.5)
        for (xa, xb), w in dist.items():
            if w:
                weights[(xa, xb, ya, yb)] = w / 4
    return empirical_model(BITS, BITS, BITS, BITS, weights)
