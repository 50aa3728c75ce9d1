"""Measures, marginals, conditionals, products, and their exact identities."""

import dataclasses
import random
import sys
import threading
import weakref
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

import hvkit.determinize as determinize_module
import hvkit.fiber as fiber_module
import hvkit.measure as measure_module
from hvkit.determinize import determinize_local
from hvkit.errors import DomainError, LayoutError
from hvkit.fiber import fiber_product
from hvkit.fixtures import fair_coin_product_model
from hvkit.measure import (
    FiniteMeasure,
    FiniteSpace,
    ProductLayout,
    _join_labels,
    conditional,
    marginal,
    measures_equal,
    point_mass,
    product,
    reorder,
)
from randmodels import LARGE_PRIMES, rand_coprime_measure, rand_measure

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
QUARTER = Fraction(1, 4)


def two_coord(weights):
    layout = ProductLayout((FiniteSpace("x", ("0", "1")), FiniteSpace("z", ("0", "1"))))
    return FiniteMeasure(layout, weights)


class TestConstruction:
    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            two_coord({("0", "0"): Fraction(3, 2), ("1", "1"): Fraction(-1, 2)})

    def test_rejects_bad_total(self):
        with pytest.raises(DomainError):
            two_coord({("0", "0"): HALF})

    def test_rejects_floats(self):
        with pytest.raises(DomainError):
            two_coord({("0", "0"): 0.5, ("1", "1"): 0.5})

    def test_rejects_unknown_atom(self):
        with pytest.raises(LayoutError):
            two_coord({("0", "2"): Fraction(1)})

    def test_zero_weights_dropped_and_support_sorted(self):
        p = two_coord({("1", "1"): HALF, ("0", "0"): HALF, ("0", "1"): Fraction(0)})
        assert list(p.support()) == [("0", "0"), ("1", "1")]

    def test_duplicate_coordinate_names_rejected(self):
        with pytest.raises(LayoutError):
            ProductLayout((FiniteSpace("x", ("0",)), FiniteSpace("x", ("0",))))

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(LayoutError):
            FiniteSpace("x", ("0", "0"))


class TestMarginal:
    def test_correlated_pair(self):
        p = two_coord({("0", "0"): HALF, ("1", "1"): HALF})
        m = marginal(p, ("x",))
        assert m.weights == {("0",): HALF, ("1",): HALF}

    def test_all_coordinates_is_identity(self):
        p = two_coord({("0", "0"): HALF, ("1", "1"): HALF})
        assert measures_equal(marginal(p, ("x", "z")), p)

    def test_uniform_product_marginal(self):
        layout = ProductLayout((FiniteSpace("x", ("0", "1")), FiniteSpace("y", ("a", "b", "c"))))
        p = FiniteMeasure(layout, {atom: Fraction(1, 6) for atom in layout.atoms()})
        m = marginal(p, ("y",))
        assert m.weights == {(label,): THIRD for label in "abc"}

    def test_unknown_coordinate(self):
        p = two_coord({("0", "0"): Fraction(1)})
        with pytest.raises(LayoutError):
            marginal(p, ("nope",))

    def test_nested_consistency_randomized(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rand_measure(rng, (2, 3, 2))
            outer = marginal(p, ("c0", "c2"))
            # the direct side comes from an equal measure built anew, so the
            # nested chain cannot hand back an entry of p's memo
            fresh = FiniteMeasure(p.layout, dict(p.weights))
            assert measures_equal(marginal(outer, ("c0",)), marginal(fresh, ("c0",)))


class TestConditional:
    def test_deterministic_coupling(self):
        p = two_coord({("0", "0"): HALF, ("1", "1"): HALF})
        k = conditional(p, ("x",), ("z",))
        assert k.value(("0",), ("0",)) == 1
        assert k.value(("1",), ("0",)) == 0

    def test_product_measure_is_constant(self):
        q = point_mass(FiniteSpace("x", ("0", "1")), "0")
        layout_r = ProductLayout((FiniteSpace("z", ("0", "1")),))
        r = FiniteMeasure(layout_r, {("0",): THIRD, ("1",): Fraction(2, 3)})
        p = product(marginal(q, ("x",)), r)
        k = conditional(p, ("x",), ("z",))
        for z in k.given_atoms():
            assert k.value(z, ("0",)) == 1

    def test_hand_ratio(self):
        p = two_coord({("0", "0"): QUARTER, ("0", "1"): QUARTER, ("1", "1"): HALF})
        k = conditional(p, ("x",), ("z",))
        assert k.value(("0",), ("0",)) == 1
        assert k.value(("1",), ("0",)) == THIRD

    def test_zero_probability_atom_is_undefined(self):
        p = two_coord({("0", "0"): Fraction(1)})
        k = conditional(p, ("x",), ("z",))
        assert not k.defined_at(("1",))
        with pytest.raises(KeyError):
            k.value(("1",), ("0",))

    def test_rows_sum_to_one_randomized(self):
        rng = random.Random(11)
        for _ in range(40):
            p = rand_measure(rng, (3, 2, 2))
            k = conditional(p, ("c0", "c1"), ("c2",))
            for given in k.given_atoms():
                assert sum(k.row(given).values()) == 1

    def test_overlapping_coordinates_rejected(self):
        p = two_coord({("0", "0"): Fraction(1)})
        with pytest.raises(LayoutError):
            conditional(p, ("x",), ("x",))


class TestMemo:
    """marginal and conditional are memoized on the measure they are taken on."""

    def test_repeated_call_returns_the_first_result(self):
        rng = random.Random(20)
        for _ in range(10):
            p = rand_measure(rng, (2, 3, 2))
            fresh = FiniteMeasure(p.layout, dict(p.weights))
            m = marginal(p, ("c0", "c2"))
            assert marginal(p, ("c0", "c2")) is m
            assert marginal(p, iter(("c0", "c2"))) is m
            assert marginal(fresh, ("c0", "c2")) is not m
            assert marginal(fresh, ("c0", "c2")) == m
            k = conditional(p, ("c1",), ("c0", "c2"))
            assert conditional(p, ("c1",), ("c0", "c2")) is k
            assert conditional(fresh, ("c1",), ("c0", "c2")) is not k
            assert conditional(fresh, ("c1",), ("c0", "c2")) == k

    def test_measures_on_one_layout_never_share_an_entry(self):
        p = two_coord({("0", "0"): HALF, ("1", "1"): HALF})
        q = two_coord({("0", "1"): QUARTER, ("1", "1"): 1 - QUARTER})
        assert marginal(p, ("x",)).weights == {("0",): HALF, ("1",): HALF}
        assert marginal(q, ("x",)).weights == {("0",): QUARTER, ("1",): 1 - QUARTER}
        assert conditional(p, ("z",), ("x",)).value(("0",), ("0",)) == 1
        assert conditional(q, ("z",), ("x",)).value(("0",), ("0",)) == 0

    def test_a_call_that_raises_caches_nothing(self):
        p = two_coord({("0", "0"): HALF, ("1", "1"): HALF})
        for _ in range(2):
            with pytest.raises(LayoutError):
                marginal(p, ("x", "nope"))
            with pytest.raises(LayoutError):
                conditional(p, ("x",), ("x", "z"))
            with pytest.raises(LayoutError):
                conditional(p, ("nope",), ("z",))
            assert p._memo == {}

    def test_equality_and_repr_ignore_a_filled_memo(self):
        p = two_coord({("0", "0"): HALF, ("1", "1"): HALF})
        q = two_coord({("0", "0"): HALF, ("1", "1"): HALF})
        before = repr(p)
        marginal(p, ("z",))
        conditional(p, ("x",), ("z",))
        assert p._memo
        assert p == q
        assert repr(p) == before == repr(q)

    def test_entries_are_freed_with_their_measure(self):
        p = rand_measure(random.Random(21), (2, 2, 2))
        names = p.layout.names
        for name in names:
            rest = tuple(n for n in names if n != name)
            marginal(marginal(p, rest), (rest[0],))
            conditional(p, (name,), rest)
        assert reorder(p, names) is p
        assert all(entry is not p for entry in p._memo.values())
        ref = weakref.ref(p)
        del p
        assert ref() is None


    def test_threads_sharing_measures_get_correct_results(self):
        rng = random.Random(22)
        shared = [rand_measure(rng, (2, 2, 3)) for _ in range(12)]
        fresh = [FiniteMeasure(p.layout, dict(p.weights)) for p in shared]
        calls = [("marginal", (("c0", "c2"),)), ("marginal", (("c1",),)), ("conditional", (("c2",), ("c0", "c1")))]
        functions = {"marginal": marginal, "conditional": conditional}
        expected = [[functions[f](p, *args) for f, args in calls] for p in fresh]
        mismatches = []

        def worker():
            for _ in range(5):
                for p, wanted in zip(shared, expected):
                    got = [functions[f](p, *args) for f, args in calls]
                    if got != wanted:
                        mismatches.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestRootSharing:
    """A marginal shares its root's memo: equal results, the same errors, no lifetime link."""

    SIZES = ((2, 3, 2), (3, 2, 3), (2, 2, 2, 2))

    @staticmethod
    def calls_inside(rng, names):
        """A random marginal and a random conditional over coordinates in ``names``."""
        coords = tuple(rng.sample(names, rng.randint(1, len(names))))
        if len(names) < 2:
            return [("marginal", (coords,))]
        split = rng.sample(names, len(names))
        cut = rng.randint(1, len(split) - 1)
        target, given = split[:cut], split[cut:rng.randint(cut + 1, len(split))]
        return [("marginal", (coords,)), ("conditional", (tuple(target), tuple(given)))]

    def test_shared_results_equal_a_fresh_copy(self):
        functions = {"marginal": marginal, "conditional": conditional}
        rng = random.Random(60)
        for i in range(200):
            p = (rand_coprime_measure if i % 2 else rand_measure)(rng, rng.choice(self.SIZES))
            sub = tuple(rng.sample(p.layout.names, rng.randint(1, len(p.layout.names))))
            calls = self.calls_inside(rng, sub)
            fresh = {
                f: functions[f](FiniteMeasure(p.layout, dict(p.weights)), *args) for f, args in calls
            }
            root_first = i % 4 < 2
            if root_first:
                from_root = {f: functions[f](p, *args) for f, args in calls}
            q = marginal(marginal(p, p.layout.names), sub) if i % 2 else marginal(p, sub)
            assert q._root() is p
            from_q = {f: functions[f](q, *args) for f, args in calls}
            if not root_first:
                from_root = {f: functions[f](p, *args) for f, args in calls}
            for f, _ in calls:
                assert from_q[f] == fresh[f]
                # computed once, on whichever side asked first
                assert from_q[f] is from_root[f]

    def test_a_coordinate_the_marginal_lacks_raises_though_the_root_holds_the_key(self):
        p = rand_measure(random.Random(61), (2, 3, 2))
        marginal(p, ("c0",))
        conditional(p, ("c0",), ("c1",))
        q = marginal(p, ("c1", "c2"))
        copy = FiniteMeasure(q.layout, dict(q.weights))
        for call in (lambda m: marginal(m, ("c0",)), lambda m: conditional(m, ("c0",), ("c1",))):
            with pytest.raises(LayoutError) as shared:
                call(q)
            with pytest.raises(LayoutError) as unshared:
                call(copy)
            assert str(shared.value) == str(unshared.value)
        assert q._memo == {}

    def test_a_marginal_outlives_its_root(self):
        rng = random.Random(62)
        for _ in range(20):
            p = rand_measure(rng, (2, 3, 2))
            fresh = FiniteMeasure(p.layout, dict(p.weights))
            q = marginal(p, ("c0", "c2"))
            marginal(p, ("c0",))
            ref = weakref.ref(p)
            del p
            assert ref() is None
            assert q._root() is None
            assert marginal(q, ("c0",)) == marginal(fresh, ("c0",))
            assert conditional(q, ("c2",), ("c0",)) == conditional(fresh, ("c2",), ("c0",))
            # a marginal of a marginal whose root is gone links to its parent
            assert marginal(q, ("c2",))._root() is q

    def test_threads_sharing_a_root_get_correct_results(self):
        rng = random.Random(65)
        roots = [rand_measure(rng, (2, 2, 3)) for _ in range(12)]
        fresh = [FiniteMeasure(p.layout, dict(p.weights)) for p in roots]

        def results(p):
            q = marginal(p, ("c0", "c2"))
            return [
                marginal(q, ("c0",)),
                conditional(q, ("c2",), ("c0",)),
                marginal(p, ("c0",)),
                conditional(p, ("c2",), ("c0",)),
                marginal(marginal(p, ("c0", "c1", "c2")), ("c2",)),
            ]

        expected = [results(p) for p in fresh]
        mismatches = []

        def worker():
            for p, wanted in zip(roots, expected):
                if results(p) != wanted:
                    mismatches.append(p)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_results_of_other_constructions_have_no_root(self):
        p = rand_measure(random.Random(63), (2, 3, 2))
        q = rand_measure(random.Random(64), (2,), names=("u",))
        names = p.layout.names
        for derived in (
            reorder(p, names[::-1]),
            product(p, q),
            fiber_product(marginal(p, names[:2]), marginal(p, names[1:]), names[1:2]),
        ):
            assert derived._root is None
        assert marginal(p, names)._root() is p


class TestProduct:
    def test_uniform_times_uniform(self):
        u2 = FiniteMeasure(
            ProductLayout((FiniteSpace("x", ("0", "1")),)), {("0",): HALF, ("1",): HALF}
        )
        u2b = FiniteMeasure(
            ProductLayout((FiniteSpace("y", ("0", "1")),)), {("0",): HALF, ("1",): HALF}
        )
        p = product(u2, u2b)
        assert all(w == QUARTER for w in p.weights.values())
        assert len(p.weights) == 4

    def test_point_mass_embeds(self):
        t = point_mass(FiniteSpace("x", ("a", "b")), "a")
        r = FiniteMeasure(
            ProductLayout((FiniteSpace("y", ("0", "1")),)), {("0",): THIRD, ("1",): Fraction(2, 3)}
        )
        p = product(t, r)
        assert measures_equal(marginal(p, ("y",)), r)

    def test_direct_multiplication(self):
        q = FiniteMeasure(
            ProductLayout((FiniteSpace("x", ("0", "1")),)), {("0",): THIRD, ("1",): Fraction(2, 3)}
        )
        r = FiniteMeasure(
            ProductLayout((FiniteSpace("y", ("a", "b")),)), {("a",): HALF, ("b",): HALF}
        )
        p = product(q, r)
        assert p.weights == {
            ("0", "a"): Fraction(1, 6),
            ("0", "b"): Fraction(1, 6),
            ("1", "a"): THIRD,
            ("1", "b"): THIRD,
        }

    def test_name_collision(self):
        q = point_mass(FiniteSpace("x", ("a",)), "a")
        with pytest.raises(LayoutError):
            product(q, q)


class TestEquality:
    def test_reflexive(self):
        p = two_coord({("0", "0"): HALF, ("1", "1"): HALF})
        assert measures_equal(p, p)

    def test_swapped_weights_differ(self):
        p = two_coord({("0", "0"): THIRD, ("1", "1"): Fraction(2, 3)})
        q = two_coord({("0", "0"): Fraction(2, 3), ("1", "1"): THIRD})
        assert not measures_equal(p, q)

    def test_product_marginal_identity(self):
        p = two_coord({("0", "0"): HALF, ("1", "1"): HALF})
        t = point_mass(FiniteSpace("t", ("only",)), "only")
        assert measures_equal(marginal(product(p, t), ("x", "z")), p)

    def test_layout_mismatch(self):
        p = two_coord({("0", "0"): Fraction(1)})
        layout = ProductLayout((FiniteSpace("x", ("0", "1")), FiniteSpace("w", ("0", "1"))))
        q = FiniteMeasure(layout, {("0", "0"): Fraction(1)})
        with pytest.raises(LayoutError):
            measures_equal(p, q)


class TestReorderAndJoin:
    def test_reorder_round_trip(self):
        rng = random.Random(3)
        p = rand_measure(rng, (2, 3, 2))
        q = reorder(p, ("c2", "c0", "c1"))
        assert q.layout.names == ("c2", "c0", "c1")
        assert measures_equal(reorder(q, ("c0", "c1", "c2")), p)

    def test_join_labels_keeps_plain_labels_and_escapes_the_rest(self):
        assert _join_labels(("0", "[0,1/2)", "l0")) == "0|[0,1/2)|l0"
        assert _join_labels(("a|b", "c")) != _join_labels(("a", "b|c"))
        assert _join_labels(("a\\", "b")) != _join_labels(("a", "\\b"))
        assert _join_labels(("a\\|", "b")) == "a\\\\\\||b"

    def test_layout_names_are_not_a_field(self):
        layout = ProductLayout((FiniteSpace("c0", ("0", "1")), FiniteSpace("c1", ("0",))))
        assert layout.names == ("c0", "c1")
        assert [f.name for f in dataclasses.fields(ProductLayout)] == ["factors"]
        assert repr(layout) == f"ProductLayout(factors={layout.factors!r})"
        same = ProductLayout(layout.factors)
        assert same == layout and hash(same) == hash(layout)
        assert same.names is not layout.names and layout.names is layout.names


class TestAlmostSureIdentities:
    """Randomized checks of the defining conditional-probability identities."""

    def rand_layout_measure(self, rng):
        return rand_measure(rng, (2, 2, rng.choice((2, 3))), names=("x", "y", "z"))

    def rand_event(self, rng, space_atoms):
        event = [a for a in space_atoms if rng.random() < 0.5]
        return event or [space_atoms[0]]

    def test_conditional_defining_identity(self):
        # the conditional is the density of the joint over the conditioning
        # marginal: summing it against the marginal recovers joint weights
        rng = random.Random(23)
        for _ in range(200):
            p = self.rand_layout_measure(rng)
            k = conditional(p, ("x",), ("z",))
            z_marg = marginal(p, ("z",))
            xz = marginal(p, ("x", "z"))
            target = self.rand_event(rng, p.layout.space("x").atoms)
            given_event = self.rand_event(rng, p.layout.space("z").atoms)
            integral = sum(
                (
                    k.event_value((z,), [(x,) for x in target]) * z_marg.weight((z,))
                    for z in given_event
                    if k.defined_at((z,))
                ),
                Fraction(0),
            )
            direct = sum(
                (xz.weight((x, z)) for x in target for z in given_event), Fraction(0)
            )
            assert integral == direct

    def test_conditional_commutes_with_marginalization(self):
        rng = random.Random(29)
        for _ in range(200):
            p = self.rand_layout_measure(rng)
            # the full side comes from an equal measure built anew, so the
            # marginal cannot hand back an entry of p's memo
            from_full = conditional(FiniteMeasure(p.layout, dict(p.weights)), ("x",), ("z",))
            from_marg = conditional(marginal(p, ("x", "z")), ("x",), ("z",))
            assert set(from_full.given_atoms()) == set(from_marg.given_atoms())
            for z in from_full.given_atoms():
                assert from_full.row(z) == from_marg.row(z)

    def test_zero_one_conditionals_survive_refining(self):
        # when x is a function of z, conditioning additionally on y
        # cannot change the 0/1 conditional values
        rng = random.Random(31)
        for _ in range(200):
            z_atoms = ("0", "1", "2")
            assignment = {z: rng.choice(("0", "1")) for z in z_atoms}
            layout = ProductLayout(
                (
                    FiniteSpace("x", ("0", "1")),
                    FiniteSpace("y", ("0", "1")),
                    FiniteSpace("z", z_atoms),
                )
            )
            raw = {}
            for z in z_atoms:
                for y in ("0", "1"):
                    if rng.random() < 0.2:
                        continue
                    raw[(assignment[z], y, z)] = rng.randint(1, 5)
            if not raw:
                raw[("0", "0", "0")] = 1
            total = sum(raw.values())
            p = FiniteMeasure(layout, {a: Fraction(n, total) for a, n in raw.items()})

            coarse = conditional(p, ("x",), ("z",))
            fine = conditional(p, ("x",), ("y", "z"))
            for given in coarse.given_atoms():
                for x in ("0", "1"):
                    assert coarse.value(given, (x,)) in (0, 1)
            for (y, z) in fine.given_atoms():
                for x in ("0", "1"):
                    assert fine.value((y, z), (x,)) == coarse.value((z,), (x,))

    def test_product_characterization_three_ways(self):
        # on a random common extension, the three readings of independence
        # (product equality, event factorization, conditional constancy)
        # must produce one verdict
        rng = random.Random(37)
        product_count = 0
        for trial in range(200):
            if trial % 2 == 0:
                p = rand_measure(rng, (2, 3), names=("x", "y"))
            else:
                q = rand_measure(rng, (2,), names=("x",))
                r = rand_measure(rng, (3,), names=("y",))
                p = product(q, r)
            q = marginal(p, ("x",))
            r = marginal(p, ("y",))

            is_product = measures_equal(p, product(q, r))
            factorizes = all(
                p.weight((x, y)) == q.weight((x,)) * r.weight((y,))
                for x, y in p.layout.atoms()
            )
            k = conditional(p, ("x",), ("y",))
            constant = all(
                k.value((y,), (x,)) == q.weight((x,))
                for (y,) in k.given_atoms()
                for x in p.layout.space("x").atoms
            )
            assert is_product == factorizes == constant
            product_count += is_product
        assert product_count >= 100  # the even trials are genuine products


# -- a Fraction-only oracle ---------------------------------------------------
#
# The measure operations as they were before they summed integers and built
# derived measures without re-validation: every weight a Fraction, every
# result sorted by looking up each label's index.  A measure here is a
# (layout, weights) pair.


def _oracle_sorted(layout, weights):
    def key(atom):
        return tuple(f.index(label) for f, label in zip(layout.factors, atom))

    return layout, dict(sorted(weights.items(), key=lambda kv: key(kv[0])))


def oracle_marginal(m, coords):
    layout, weights = m
    names = layout.ordered(coords)
    positions = layout.positions(names)
    acc = {}
    for atom, w in weights.items():
        key = tuple(atom[i] for i in positions)
        acc[key] = acc.get(key, Fraction(0)) + w
    return _oracle_sorted(layout.sublayout(names), acc)


def oracle_conditional(m, target, given):
    """The table as a list of (given atom, list of (target atom, value))."""
    layout, weights = m
    t_pos = layout.positions(layout.ordered(target))
    g_pos = layout.positions(layout.ordered(given))
    mass, joint = {}, {}
    for atom, w in weights.items():
        g = tuple(atom[i] for i in g_pos)
        t = tuple(atom[i] for i in t_pos)
        mass[g] = mass.get(g, Fraction(0)) + w
        row = joint.setdefault(g, {})
        row[t] = row.get(t, Fraction(0)) + w
    _, given_order = _oracle_sorted(layout.sublayout(layout.ordered(given)), mass)
    t_layout = layout.sublayout(layout.ordered(target))
    return [
        (g, [(t, w / mass[g]) for t, w in _oracle_sorted(t_layout, joint[g])[1].items()])
        for g in given_order
    ]


def oracle_product(q, r):
    weights = {qa + ra: qw * rw for qa, qw in q[1].items() for ra, rw in r[1].items()}
    return _oracle_sorted(ProductLayout(q[0].factors + r[0].factors), weights)


def oracle_reorder(m, names):
    layout, weights = m
    positions = layout.positions(names)
    new_layout = ProductLayout(tuple(layout.space(n) for n in names))
    return _oracle_sorted(new_layout, {tuple(atom[i] for i in positions): w for atom, w in weights.items()})


def oracle_fiber_product(q, r, over):
    z_names = q[0].ordered(over)
    x_names = tuple(n for n in q[0].names if n not in z_names)
    y_names = tuple(n for n in r[0].names if n not in z_names)
    s = oracle_marginal(q, z_names)
    kq = dict(oracle_conditional(oracle_reorder(q, x_names + z_names), x_names, z_names))
    kr = dict(oracle_conditional(oracle_reorder(r, y_names + z_names), y_names, z_names))
    layout = ProductLayout(
        tuple(q[0].space(n) for n in x_names)
        + tuple(r[0].space(n) for n in y_names)
        + tuple(q[0].space(n) for n in z_names)
    )
    weights = {
        x + y + z: qv * rv * mass
        for z, mass in s[1].items()
        for x, qv in kq[z]
        for y, rv in kr[z]
    }
    return _oracle_sorted(layout, weights)


def pair(m):
    return m.layout, m.weights


def assert_same_measure(m, oracle):
    layout, weights = oracle
    assert m.layout == layout
    assert list(m.weights.items()) == list(weights.items())
    assert all(type(w) is Fraction for w in m.weights.values())


def nonempty_subsets(names):
    return [tuple(c) for k in range(1, len(names) + 1) for c in combinations(names, k)]


class TestIntegerKernels:
    """The integer kernels and the derived constructor against the Fraction oracle."""

    SIZES = ((2, 3, 2), (3, 2, 3), (2, 2, 2, 2))

    def rand_measures(self, seed, count):
        rng = random.Random(seed)
        for i in range(count):
            make = rand_coprime_measure if i % 2 else rand_measure
            yield make(rng, rng.choice(self.SIZES))

    def test_coprime_measures_have_large_pairwise_coprime_denominators(self):
        p = rand_coprime_measure(random.Random(40), (2, 2, 2, 2))
        dens = [w.denominator for w in p.weights.values()]
        assert len(dens) > 3
        assert max(dens) > 10**30
        small = sorted(dens)[:-1]
        assert all(gcd(a, b) == 1 for a, b in combinations(small, 2))

    def test_exact_sum_matches_the_fraction_sum(self):
        rng = random.Random(50)
        for count in (0, 1, 2, 3, 7, 24, 100):
            # repeated, shared and pairwise-coprime denominators, in any order
            dens = [rng.choice((1, 6, 10**12, *LARGE_PRIMES[:5])) for _ in range(count)]
            ratios = [(rng.randint(0, 10**15), d) for d in dens]
            n, d = measure_module._exact_sum(ratios)
            assert Fraction(n, d) == sum((Fraction(*r) for r in ratios), Fraction(0))

    def test_marginal_and_conditional(self):
        for p in self.rand_measures(41, 20):
            names = p.layout.names
            for coords in nonempty_subsets(names):
                assert_same_measure(marginal(p, coords), oracle_marginal(pair(p), coords))
                rest = [n for n in names if n not in coords]
                for given in nonempty_subsets(rest):
                    k = conditional(p, coords, given)
                    table = [(g, list(row.items())) for g, row in k.table.items()]
                    assert table == oracle_conditional(pair(p), coords, given)

    def test_kernels_of_derived_measures(self):
        for p in self.rand_measures(42, 20):
            m = marginal(p, p.layout.names[1:])
            oracle = oracle_marginal(pair(p), p.layout.names[1:])
            first = m.layout.names[:1]
            assert_same_measure(marginal(m, first), oracle_marginal(oracle, first))
            k = conditional(m, first, m.layout.names[1:])
            table = [(g, list(row.items())) for g, row in k.table.items()]
            assert table == oracle_conditional(oracle, first, m.layout.names[1:])

    def test_product_and_reorder(self):
        rng = random.Random(43)
        for p in self.rand_measures(44, 20):
            names = p.layout.names
            q = (rand_coprime_measure if rng.random() < 0.5 else rand_measure)(rng, (2, 3), names=("u", "v"))
            assert_same_measure(product(p, q), oracle_product(pair(p), pair(q)))
            assert_same_measure(product(q, p), oracle_product(pair(q), pair(p)))
            shuffled = tuple(rng.sample(names, len(names)))
            assert_same_measure(reorder(p, shuffled), oracle_reorder(pair(p), shuffled))

    def test_fiber_product(self):
        for p in self.rand_measures(45, 20):
            x, y, *z = p.layout.names
            q = marginal(p, (x, *z))
            r = reorder(marginal(p, (y, *z)), (*z, y))
            assert_same_measure(fiber_product(q, r, z), oracle_fiber_product(pair(q), pair(r), z))


class TestDerivedSumCheck:
    """The derived constructor still refuses weights that do not sum to one."""

    @staticmethod
    def drop_first_atom(monkeypatch, module):
        original = module._derived

        def dropping(layout, weights, canonical=False):
            return original(layout, dict(list(weights.items())[1:]), canonical)

        monkeypatch.setattr(module, "_derived", dropping)

    def test_a_producer_that_drops_an_atom_is_refused(self, monkeypatch):
        p = rand_measure(random.Random(46), (2, 3, 2))
        q = rand_measure(random.Random(47), (2,), names=("u",))
        r = product(marginal(p, ("c2",)), q)
        self.drop_first_atom(monkeypatch, fiber_module)
        with pytest.raises(DomainError, match="sum to exactly 1"):
            fiber_product(p, r, ("c2",))
        memo = dict(p._memo)  # what the calls before the patch cached
        self.drop_first_atom(monkeypatch, measure_module)
        calls = [
            lambda: marginal(p, ("c0", "c2")),
            lambda: reorder(p, ("c2", "c1", "c0")),
            lambda: product(p, q),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="sum to exactly 1"):
                call()
        assert p._memo == memo

    def test_a_determinization_that_drops_an_atom_is_refused(self, monkeypatch):
        model = fair_coin_product_model()
        self.drop_first_atom(monkeypatch, determinize_module)
        with pytest.raises(DomainError, match="sum to exactly 1"):
            determinize_local(model)

    def test_a_call_that_raises_leaves_no_memo_entry(self, monkeypatch):
        p = rand_measure(random.Random(48), (2, 3, 2))
        with pytest.raises(LayoutError):
            conditional(p, ("c0",), ("nope",))
        assert p._memo == {}
        self.drop_first_atom(monkeypatch, measure_module)
        with pytest.raises(DomainError):
            marginal(p, ("c1",))
        assert p._memo == {}
        monkeypatch.undo()
        marginal(p, ("c1",))
        assert list(p._memo) == [("marginal", ("c1",))]

    def test_equality_and_repr_ignore_the_memo_of_a_derived_measure(self):
        p = rand_coprime_measure(random.Random(49), (2, 3, 2))
        derived = marginal(p, ("c0", "c1"))
        boundary = FiniteMeasure(derived.layout, dict(derived.weights))
        conditional(derived, ("c0",), ("c1",))
        assert derived._memo and not boundary._memo
        assert derived == boundary
        assert repr(derived) == repr(boundary)
