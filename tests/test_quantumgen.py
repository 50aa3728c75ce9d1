"""The singlet generator: state-vector oracle, rationalization, invariants."""

import math
import random
from fractions import Fraction

import pytest

import hvkit.quantumgen
from hvkit.errors import DomainError, ResourceLimitError
from hvkit.measure import conditional, marginal
from hvkit.quantumgen import MAX_SINGLET_ATOMS, singlet_joint_probabilities, singlet_model
from hvkit.realizability import chsh_value, local_hvm_exists

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def closed_form(angle_a, angle_b):
    """Independent oracle: the known trigonometric joint distribution."""
    delta = math.radians(angle_a - angle_b)
    same = math.sin(delta / 2.0) ** 2 / 2.0
    differ = math.cos(delta / 2.0) ** 2 / 2.0
    return {
        ("up", "up"): same,
        ("down", "down"): same,
        ("up", "down"): differ,
        ("down", "up"): differ,
    }


class TestStateVectorOracle:
    def test_matches_closed_form_at_random_angles(self):
        rng = random.Random(0)
        for _ in range(200):
            a = rng.uniform(-360.0, 360.0)
            b = rng.uniform(-360.0, 360.0)
            computed = singlet_joint_probabilities(a, b)
            expected = closed_form(a, b)
            for key in expected:
                assert abs(computed[key] - expected[key]) < 1e-12

    def test_block_normalization(self):
        rng = random.Random(1)
        for _ in range(100):
            block = singlet_joint_probabilities(rng.uniform(0, 360), rng.uniform(0, 360))
            assert abs(sum(block.values()) - 1.0) < 1e-12

    def test_no_signaling_before_rationalization(self):
        rng = random.Random(2)
        for _ in range(100):
            a = rng.uniform(0, 360)
            b1, b2 = rng.uniform(0, 360), rng.uniform(0, 360)
            block1 = singlet_joint_probabilities(a, b1)
            block2 = singlet_joint_probabilities(a, b2)
            alice_up_1 = block1[("up", "up")] + block1[("up", "down")]
            alice_up_2 = block2[("up", "up")] + block2[("up", "down")]
            assert abs(alice_up_1 - alice_up_2) < 1e-12

    def test_party_swap_transposes(self):
        rng = random.Random(3)
        for _ in range(100):
            a, b = rng.uniform(0, 360), rng.uniform(0, 360)
            forward = singlet_joint_probabilities(a, b)
            backward = singlet_joint_probabilities(b, a)
            for oa in ("up", "down"):
                for ob in ("up", "down"):
                    assert abs(forward[(oa, ob)] - backward[(ob, oa)]) < 1e-12


class TestSingletModel:
    def test_equal_angles_perfectly_anticorrelated(self):
        e = singlet_model((0.0,), (0.0,))
        assert e.measure.weights == {
            ("up", "down", "0", "0"): HALF,
            ("down", "up", "0", "0"): HALF,
        }

    def test_orthogonal_angles_uniform(self):
        e = singlet_model((0.0,), (90.0,))
        assert all(w == QUARTER for w in e.measure.weights.values())
        assert len(e.measure.weights) == 4

    def test_sixty_degrees_exact_eighths(self):
        e = singlet_model((0.0,), (60.0,), max_denominator=100)
        k = conditional(e.measure, ("xa", "xb"), ("ya", "yb"))
        row = k.row(("0", "60"))
        assert row[("up", "up")] == Fraction(1, 8)
        assert row[("up", "down")] == Fraction(3, 8)

    def test_weights_sum_exactly_one_with_tight_denominator(self):
        # irrational probabilities force the renormalization path
        e = singlet_model((0.0, 37.0), (12.0, 101.0), max_denominator=997)
        assert sum(e.measure.weights.values()) == 1
        for w in e.measure.weights.values():
            assert 0 <= w <= 1

    def test_swapping_angle_lists_transposes_model(self):
        e = singlet_model((0.0, 90.0), (45.0, 135.0))
        t = singlet_model((45.0, 135.0), (0.0, 90.0))
        for (xa, xb, ya, yb), w in e.measure.weights.items():
            assert t.measure.weight((xb, xa, yb, ya)) == w

    def test_setting_distribution_override(self):
        dist = {("0", "0"): Fraction(1, 3), ("0", "90"): Fraction(2, 3)}
        e = singlet_model((0.0,), (0.0, 90.0), setting_dist=dist)
        settings = marginal(e.measure, ("ya", "yb"))
        assert settings.weight(("0", "0")) == Fraction(1, 3)
        assert settings.weight(("0", "90")) == Fraction(2, 3)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            singlet_model((), (0.0,))
        with pytest.raises(DomainError):
            singlet_model((0.0, 0.0), (0.0,))
        with pytest.raises(DomainError):
            singlet_model((0.0,), (0.0,), setting_dist={("0", "0"): HALF})

    def test_angles_equal_under_short_format_keep_distinct_labels(self):
        # both angles print as "10" under :g; the second falls back to repr
        e = singlet_model((10.0, 10.0000001), (0.0,))
        assert e.space("ya").atoms == ("10", "10.0000001")
        # equal angles are refused even where their labels differ
        for equal in ((10.0, 10.0), (0.0, -0.0)):
            with pytest.raises(DomainError, match="distinct"):
                singlet_model(equal, (0.0,))
            with pytest.raises(DomainError, match="distinct"):
                singlet_model((45.0,), equal)


class Unreached(Exception):
    pass


def unreached(*args):
    raise Unreached


class TestInputLimits:
    """Non-finite angles and over-cap angle counts are refused before any amplitude."""

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, float("1e400"), math.nan])
    def test_non_finite_angle(self, angle, monkeypatch):
        monkeypatch.setattr(hvkit.quantumgen, "_spin_eigenvectors", unreached)
        with pytest.raises(DomainError, match="must be finite"):
            singlet_model((0.0, angle), (0.0,))
        with pytest.raises(DomainError, match="must be finite"):
            singlet_model((0.0,), (angle, 0.0))

    def test_atom_cap(self, monkeypatch):
        monkeypatch.setattr(hvkit.quantumgen, "singlet_joint_probabilities", unreached)
        angles_b = [float(i) for i in range(100)]
        angles_a = angles_b[: MAX_SINGLET_ATOMS // 4 // len(angles_b)]  # exactly at the cap
        with pytest.raises(Unreached):
            singlet_model(angles_a, angles_b)
        with pytest.raises(ResourceLimitError, match="MAX_SINGLET_ATOMS"):
            singlet_model(angles_a + [-1.0], angles_b)


class TestCorrelatorValues:
    def test_value_at_standard_angle_assignment(self):
        # with Alice's angles listed as (90, 0), the minus-sign context of
        # the correlator combination lands on the equal-relative-angle
        # pair and the magnitude reaches 2*sqrt(2)
        e = singlet_model((90.0, 0.0), (45.0, 135.0))
        value = float(chsh_value(e))
        assert abs(abs(value) - 2.0 * math.sqrt(2.0)) < 1e-6

    def test_rationalization_error_stays_small(self):
        e = singlet_model((90.0, 0.0), (45.0, 135.0), max_denominator=10**6)
        coarse = singlet_model((90.0, 0.0), (45.0, 135.0), max_denominator=10**3)
        fine_err = abs(abs(float(chsh_value(e))) - 2.0 * math.sqrt(2.0))
        coarse_err = abs(abs(float(chsh_value(coarse))) - 2.0 * math.sqrt(2.0))
        assert fine_err < 1e-9
        assert coarse_err < 1e-1

    def test_nonlocality_survives_rationalization(self):
        e = singlet_model((0.0, 90.0), (45.0, 135.0), max_denominator=10**6)
        feasible, certificate = local_hvm_exists(e)
        assert not feasible
        assert certificate.classical_bound == 2
        assert abs(float(certificate.achieved_value) - 2.0 * math.sqrt(2.0)) < 1e-4
