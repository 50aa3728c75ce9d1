"""Fiber products: construction, recognition, uniqueness, marginal recovery."""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product as cartesian
from operator import itemgetter

import pytest

import hvkit.fiber as fiber_module
from hvkit.errors import InternalCheckError, LayoutError, PreconditionError
from hvkit.fiber import _split_coords, fiber_product, is_fiber_product
from hvkit.fixtures import fair_coin_product_model, pr_box_hv
from hvkit.measure import (
    FiniteMeasure,
    FiniteSpace,
    ProductLayout,
    _canonical_key,
    conditional,
    marginal,
    measures_equal,
    product,
    reorder,
)
from hvkit.models import HV_COORDS
from hvkit.properties import check_all
from randmodels import rand_dist, rand_hv_mixed, rand_measure

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def measure_on(names_and_atoms, weights):
    layout = ProductLayout(tuple(FiniteSpace(n, tuple(a)) for n, a in names_and_atoms))
    return FiniteMeasure(layout, weights)


def fiber_oracle(q, r, x_names, y_names, z_names):
    """Direct evaluation of the defining sum, independent of the library path.

    p(x, y, z) = q(x|z) * r(y|z) * s(z), all terms computed by raw weight
    lookups and divisions over full atom products.
    """
    qx = q.layout.positions(x_names)
    qz = q.layout.positions(z_names)
    ry = r.layout.positions(y_names)
    rz = r.layout.positions(z_names)

    def project(atom, positions):
        return tuple(atom[i] for i in positions)

    s = {}
    for atom, w in q.weights.items():
        z = project(atom, qz)
        s[z] = s.get(z, Fraction(0)) + w

    out = {}
    x_space = [q.layout.space(n).atoms for n in x_names]
    y_space = [r.layout.space(n).atoms for n in y_names]
    for z, mass in s.items():
        if mass == 0:
            continue
        for x in cartesian(*x_space):
            qxz = sum(
                (
                    w
                    for atom, w in q.weights.items()
                    if project(atom, qx) == x and project(atom, qz) == z
                ),
                Fraction(0),
            )
            if qxz == 0:
                continue
            for y in cartesian(*y_space):
                ryz = sum(
                    (
                        w
                        for atom, w in r.weights.items()
                        if project(atom, ry) == y and project(atom, rz) == z
                    ),
                    Fraction(0),
                )
                if ryz == 0:
                    continue
                out[x + y + z] = (qxz / mass) * (ryz / mass) * mass
    return out


def rand_matched_pair(rng, x_size=2, y_size=2, z_size=3):
    """Random (q, r) with exactly matching z-marginals, built from kernels."""
    z_atoms = tuple(str(i) for i in range(z_size))
    s = rand_dist(rng, z_atoms, zero_chance=0.2)
    x_atoms = tuple(str(i) for i in range(x_size))
    y_atoms = tuple(str(i) for i in range(y_size))
    q_weights = {}
    r_weights = {}
    for z, mass in s.items():
        if mass == 0:
            continue
        kx = rand_dist(rng, x_atoms, zero_chance=0.3)
        ky = rand_dist(rng, y_atoms, zero_chance=0.3)
        for x, xw in kx.items():
            if xw * mass != 0:
                q_weights[(x, z)] = xw * mass
        for y, yw in ky.items():
            if yw * mass != 0:
                r_weights[(y, z)] = yw * mass
    q = measure_on((("x", x_atoms), ("z", z_atoms)), q_weights)
    r = measure_on((("y", y_atoms), ("z", z_atoms)), r_weights)
    return q, r


class TestFiberProduct:
    def test_singleton_base_is_plain_product(self):
        q = measure_on((("x", "01"), ("z", "*")), {("0", "*"): HALF, ("1", "*"): HALF})
        r = measure_on(
            (("y", "01"), ("z", "*")), {("0", "*"): Fraction(1, 3), ("1", "*"): Fraction(2, 3)}
        )
        p = fiber_product(q, r, over=("z",))
        plain = product(marginal(q, ("x",)), marginal(r, ("y",)))
        for (x, y) in plain.layout.atoms():
            assert p.weight((x, y, "*")) == plain.weight((x, y))

    def test_shared_secret_coupling(self):
        # both coordinates copy a uniform shared bit: perfectly correlated,
        # yet conditionally independent given the bit
        q = measure_on((("x", "01"), ("z", "01")), {("0", "0"): HALF, ("1", "1"): HALF})
        r = measure_on((("y", "01"), ("z", "01")), {("0", "0"): HALF, ("1", "1"): HALF})
        p = fiber_product(q, r, over=("z",))
        expected = {("0", "0", "0"): HALF, ("1", "1", "1"): HALF}
        assert p.weights == expected
        assert is_fiber_product(p, q, r, over=("z",))

    def test_hand_evaluated_kernels(self):
        # q(x=0|z) = {z0: 1/2, z1: 1}, r(y=0|z) = {z0: 1, z1: 1/2}, s uniform
        q = measure_on(
            (("x", "01"), ("z", ("z0", "z1"))),
            {("0", "z0"): QUARTER, ("1", "z0"): QUARTER, ("0", "z1"): HALF},
        )
        r = measure_on(
            (("y", "01"), ("z", ("z0", "z1"))),
            {("0", "z0"): HALF, ("0", "z1"): QUARTER, ("1", "z1"): QUARTER},
        )
        p = fiber_product(q, r, over=("z",))
        assert p.weights == {
            ("0", "0", "z0"): QUARTER,
            ("1", "0", "z0"): QUARTER,
            ("0", "0", "z1"): QUARTER,
            ("0", "1", "z1"): QUARTER,
        }

    def test_marginal_mismatch_names_first_atom(self):
        q = measure_on((("x", "01"), ("z", "01")), {("0", "0"): HALF, ("0", "1"): HALF})
        r = measure_on(
            (("y", "01"), ("z", "01")), {("0", "0"): Fraction(1, 3), ("0", "1"): Fraction(2, 3)}
        )
        with pytest.raises(PreconditionError, match=r"\('0',\)"):
            fiber_product(q, r, over=("z",))

    @pytest.mark.parametrize(
        "q_tail, r_tail, message",
        [
            ({("1999", "1998"): QUARTER, ("1999", "1999"): QUARTER}, {("1999", "1998"): HALF}, "1/4 vs 1/2"),
            ({("1999", "1999"): HALF}, {("1999", "1998"): QUARTER, ("1999", "1999"): QUARTER}, "0 vs 1/4"),
        ],
        ids=["on-both-supports", "off-the-first-support"],
    )
    def test_mismatch_over_large_label_sets_walks_the_supports(self, q_tail, r_tail, message):
        # 2,000 x 2,000 shared labels; walking their product took seconds
        z = tuple(str(i) for i in range(2000))

        def on(name, tail):
            weights = {("0", "0", "0"): HALF, **{("0", *atom): w for atom, w in tail.items()}}
            return measure_on(((name, "0"), ("z1", z), ("z2", z)), weights)

        q, r = on("x", q_tail), on("y", r_tail)
        started = time.monotonic()
        with pytest.raises(PreconditionError) as raised:
            fiber_product(q, r, over=("z1", "z2"))
        assert time.monotonic() - started < 1.0
        assert str(raised.value) == f"marginals on ('z1', 'z2') differ, first at atom ('1999', '1998'): {message}"

    def test_coordinate_overlap_must_match_over(self):
        q = measure_on((("x", "01"), ("z", "01")), {("0", "0"): HALF, ("0", "1"): HALF})
        r = measure_on((("x", "01"), ("z", "01")), {("0", "0"): HALF, ("0", "1"): HALF})
        with pytest.raises(LayoutError):
            fiber_product(q, r, over=("z",))


class TestIsFiberProduct:
    def test_recognizes_construction(self):
        rng = random.Random(5)
        for _ in range(30):
            q, r = rand_matched_pair(rng)
            p = fiber_product(q, r, over=("z",))
            assert is_fiber_product(p, q, r, over=("z",))

    def test_rejects_correlated_coupling(self):
        # same marginals as the fiber product over a uniform base, but x
        # and y forced equal: conditionally dependent given z
        z_atoms = ("0", "1")
        weights_q = {("0", z): QUARTER for z in z_atoms}
        weights_q.update({("1", z): QUARTER for z in z_atoms})
        q = measure_on((("x", "01"), ("z", z_atoms)), weights_q)
        r = measure_on(
            (("y", "01"), ("z", z_atoms)),
            {("0", z): QUARTER for z in z_atoms} | {("1", z): QUARTER for z in z_atoms},
        )
        coupled = measure_on(
            (("x", "01"), ("y", "01"), ("z", z_atoms)),
            {(b, b, z): Fraction(1, 4) for b in "01" for z in z_atoms},
        )
        assert not is_fiber_product(coupled, q, r, over=("z",))

    def test_trivial_base_plain_product(self):
        q = measure_on((("x", "01"), ("z", "*")), {("0", "*"): HALF, ("1", "*"): HALF})
        r = measure_on((("y", "01"), ("z", "*")), {("0", "*"): HALF, ("1", "*"): HALF})
        p = fiber_product(q, r, over=("z",))
        assert is_fiber_product(p, q, r, over=("z",))

    def test_extension_precondition_enforced(self):
        q = measure_on((("x", "01"), ("z", "01")), {("0", "0"): HALF, ("0", "1"): HALF})
        r = measure_on((("y", "01"), ("z", "01")), {("0", "0"): HALF, ("0", "1"): HALF})
        not_extension = measure_on(
            (("x", "01"), ("y", "01"), ("z", "01")),
            {("1", "0", "0"): HALF, ("1", "0", "1"): HALF},
        )
        with pytest.raises(PreconditionError):
            is_fiber_product(not_extension, q, r, over=("z",))


class TestRandomizedInvariants:
    def test_marginal_recovery_and_oracle_agreement(self):
        rng = random.Random(13)
        for _ in range(150):
            q, r = rand_matched_pair(rng, z_size=rng.choice((1, 2, 3)))
            p = fiber_product(q, r, over=("z",))
            assert measures_equal(reorder(marginal(p, ("x", "z")), ("x", "z")), q)
            assert measures_equal(reorder(marginal(p, ("y", "z")), ("y", "z")), r)
            oracle = fiber_oracle(q, r, ("x",), ("y",), ("z",))
            assert p.weights == oracle

    def test_uniqueness_among_common_extensions(self):
        # any common extension passing the recognition test must equal the
        # constructed fiber product atom for atom
        rng = random.Random(17)
        constructed = 0
        for _ in range(120):
            base = rand_measure(rng, (2, 2, 2), names=("x", "y", "z"))
            q = reorder(marginal(base, ("x", "z")), ("x", "z"))
            r = reorder(marginal(base, ("y", "z")), ("y", "z"))
            p = fiber_product(q, r, over=("z",))
            if is_fiber_product(base, q, r, over=("z",)):
                constructed += 1
                assert reorder(base, ("x", "y", "z")).weights == p.weights
        # the verdict has to fire at least sometimes for this to test anything
        assert constructed >= 3

    def test_conditional_independence_reading(self):
        rng = random.Random(19)
        for _ in range(60):
            q, r = rand_matched_pair(rng)
            p = fiber_product(q, r, over=("z",))
            joint = conditional(p, ("x", "y"), ("z",))
            kx = conditional(p, ("x",), ("z",))
            ky = conditional(p, ("y",), ("z",))
            for z in joint.given_atoms():
                for x in ("0", "1"):
                    for y in ("0", "1"):
                        assert joint.value(z, (x, y)) == kx.value(z, (x,)) * ky.value(z, (y,))


# ---------------------------------------------------------------------------
# The reorder-and-Fraction fiber code this package used before its readings
# became integer comparisons on the model's own conditionals, kept as a
# reference, with the measure-based shared-marginal check it used before
# that check read row sums.  Both take the coordinate split from hvkit.fiber.


def oracle_check_shared_marginal(q, r, z_names):
    s_q = marginal(q, z_names)
    s_r = reorder(marginal(r, z_names), s_q.layout.names)
    if not measures_equal(s_q, s_r):
        # off both supports the two sides are zero, so the first differing
        # atom in canonical order lies in their union
        for atom in sorted(s_q.weights.keys() | s_r.weights.keys(), key=_canonical_key(s_q.layout.factors)):
            if s_q.weight(atom) != s_r.weight(atom):
                raise PreconditionError(
                    f"marginals on {z_names} differ, first at atom {atom!r}: "
                    f"{s_q.weight(atom)} vs {s_r.weight(atom)}"
                )
        raise InternalCheckError("marginals unequal but no differing atom found")
    return s_q


def oracle_fiber_product(q, r, over):
    x_names, y_names, z_names = _split_coords(q, r, over)
    s = oracle_check_shared_marginal(q, r, z_names)

    q_aligned = reorder(q, x_names + z_names)
    r_aligned = reorder(r, y_names + z_names)
    kq = conditional(q_aligned, x_names, z_names)
    kr = conditional(r_aligned, y_names, z_names)

    layout = ProductLayout(
        tuple(q.layout.space(n) for n in x_names)
        + tuple(r.layout.space(n) for n in y_names)
        + tuple(q.layout.space(n) for n in z_names)
    )
    weights = {}
    for z, mass in s.weights.items():
        for x, qv in kq.row(z).items():
            for y, rv in kr.row(z).items():
                weights[x + y + z] = qv * rv * mass
    return FiniteMeasure(layout, weights)


def oracle_is_fiber_product(p, q, r, over):
    x_names, y_names, z_names = _split_coords(q, r, over)
    for name in x_names + y_names + z_names:
        p.layout.position(name)
    if set(p.layout.names) != set(x_names + y_names + z_names):
        raise LayoutError(
            f"extension has coordinates {p.layout.names}, expected exactly "
            f"{x_names + y_names + z_names}"
        )
    oracle_check_shared_marginal(q, r, z_names)

    q_cols = p.layout.ordered(x_names + z_names)
    r_cols = p.layout.ordered(y_names + z_names)
    if not measures_equal(reorder(marginal(p, q_cols), q.layout.names), q):
        raise PreconditionError("p is not an extension of the first measure")
    if not measures_equal(reorder(marginal(p, r_cols), r.layout.names), r):
        raise PreconditionError("p is not an extension of the second measure")

    p_aligned = reorder(p, x_names + y_names + z_names)
    q_aligned = reorder(q, x_names + z_names)
    r_aligned = reorder(r, y_names + z_names)

    x_atoms = list(cartesian(*(q_aligned.layout.space(n).atoms for n in x_names)))
    y_atoms = list(cartesian(*(r_aligned.layout.space(n).atoms for n in y_names)))

    k_joint = conditional(p_aligned, x_names + y_names, z_names)
    kq = conditional(q_aligned, x_names, z_names)
    kr = conditional(r_aligned, y_names, z_names)
    kpx = conditional(p_aligned, x_names, z_names)
    kpy = conditional(p_aligned, y_names, z_names)

    cells = [(z, x, y) for z in k_joint.given_atoms() for x in x_atoms for y in y_atoms]
    via_inputs = all(k_joint.value(z, x + y) == kq.value(z, x) * kr.value(z, y) for z, x, y in cells)
    via_extension = all(k_joint.value(z, x + y) == kpx.value(z, x) * kpy.value(z, y) for z, x, y in cells)

    k_enlarged = conditional(p_aligned, x_names, y_names + z_names)
    z_positions = [i for i, n in enumerate(y_names + z_names) if n in set(z_names)]
    via_collapse = all(
        k_enlarged.value(yz, x) == kpx.value(tuple(yz[i] for i in z_positions), x)
        for yz in k_enlarged.given_atoms()
        for x in x_atoms
    )

    if not (via_inputs == via_extension == via_collapse):
        raise InternalCheckError("fiber characterizations disagree")
    return via_inputs


# x has two coordinates and z two, so a layout can interleave them
NAMES = {"x": ("x1", "x2"), "y": ("y",), "z": ("z1", "z2")}
SIZES = {"x1": 2, "x2": 2, "y": 3, "z1": 2, "z2": 2}


def rand_base(rng, names):
    """A random measure on ``names`` in that order, some z cells of zero mass."""
    layout = ProductLayout(tuple(FiniteSpace(n, tuple(map(str, range(SIZES[n])))) for n in names))
    z_at = [names.index(n) for n in NAMES["z"]]
    empty = {tuple(rng.choice(("0", "1")) for _ in z_at) for _ in range(rng.choice((0, 0, 1, 2)))}
    raw = {
        atom: rng.choice((0, 0, 1, 2, 3, 5))
        for atom in layout.atoms()
        if tuple(atom[i] for i in z_at) not in empty
    }
    if not any(raw.values()):
        raw[next(iter(raw))] = 1
    total = sum(raw.values())
    return FiniteMeasure(layout, {atom: Fraction(n, total) for atom, n in raw.items() if n})


def shuffled(rng, names):
    names = list(names)
    rng.shuffle(names)
    return tuple(names)


def rand_triple(rng):
    """(p, q, r) with q and r the x-z and y-z marginals of a random base, each in a random
    coordinate order; p is their fiber product or the base itself, in a random order."""
    base = rand_base(rng, shuffled(rng, sum(NAMES.values(), ())))
    q = reorder(marginal(base, NAMES["x"] + NAMES["z"]), shuffled(rng, NAMES["x"] + NAMES["z"]))
    r = reorder(marginal(base, NAMES["y"] + NAMES["z"]), shuffled(rng, NAMES["y"] + NAMES["z"]))
    p = fiber_product(q, r, over=NAMES["z"]) if rng.random() < 0.5 else base
    return reorder(p, shuffled(rng, p.layout.names)), q, r


def collapsed(rng, m, share):
    """``m`` with each z cell, at about ``share`` of them, moved onto one of its own atoms.

    Such a cell's row has a single entry.  The z marginal is unchanged.
    """
    z_at = m.layout.positions(NAMES["z"])
    rows = {}
    for atom, w in m.weights.items():
        rows.setdefault(tuple(atom[i] for i in z_at), []).append((atom, w))
    weights = {}
    for row in rows.values():
        if rng.random() < share:
            weights[rng.choice(row)[0]] = sum(w for _, w in row)
        else:
            weights.update(row)
    return FiniteMeasure(m.layout, weights)


def z_row_sizes(m):
    """The number of atoms of ``m`` on each z cell."""
    z_at = m.layout.positions(NAMES["z"])
    return Counter(tuple(atom[i] for i in z_at) for atom in m.weights).values()


def outcome(fn, *args):
    """``fn``'s result, or the type and message of what it raised."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # compared with the oracle, not handled
        return "raised", type(exc), str(exc)


class TestAgainstReorderOracle:
    def test_verdicts_and_exceptions_match(self):
        rng = random.Random(23)
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            p, q, r = rand_triple(rng)
            if rng.random() < 0.15:
                # not an extension of q, so both raise PreconditionError
                p = reorder(rand_base(rng, p.layout.names), p.layout.names)
            over = shuffled(rng, NAMES["z"])
            got = outcome(is_fiber_product, p, q, r, over)
            assert got == outcome(oracle_is_fiber_product, p, q, r, over)
            if got[0] == "returned":
                verdicts[got[1]] += 1
        # both verdicts have to occur for this to test anything
        assert verdicts[True] >= 20 and verdicts[False] >= 20

    def test_layout_errors_match(self):
        rng = random.Random(29)
        p, q, r = rand_triple(rng)
        for over in (("z1",), ("z1", "z2", "y"), ("nope",)):
            got = outcome(is_fiber_product, p, q, r, over)
            assert got[0] == "raised"
            assert got == outcome(oracle_is_fiber_product, p, q, r, over)
        bigger = marginal(p, ("x1", "y", "z1", "z2"))
        assert outcome(is_fiber_product, bigger, q, r, NAMES["z"]) == outcome(
            oracle_is_fiber_product, bigger, q, r, NAMES["z"]
        )

    def test_fiber_product_is_byte_identical(self):
        rng = random.Random(31)
        seen = Counter()
        for _ in range(300):
            _, q, r = rand_triple(rng)
            q, r = collapsed(rng, q, rng.choice((0, 0.5, 1))), collapsed(rng, r, rng.choice((0, 0.5, 1)))
            over = shuffled(rng, NAMES["z"])
            got, want = fiber_product(q, r, over), oracle_fiber_product(q, r, over)
            assert got.layout == want.layout
            assert list(got.weights.items()) == list(want.weights.items())
            assert repr(got) == repr(want)
            seen["q larger"] += len(q.weights) > len(r.weights)
            seen["r larger"] += len(q.weights) < len(r.weights)
            rows = z_row_sizes(q)  # the one-entry shortcut reads q's rows
            seen["one-entry row"] += 1 in rows
            seen["many-entry row"] += max(rows) > 1
            seen["r's z in another order"] += r.layout.ordered(NAMES["z"]) != q.layout.ordered(NAMES["z"])
        # both size orders, both row kinds and a reordered r each occur often
        assert len(seen) == 5 and min(seen.values()) >= 30, seen

    def test_fiber_product_mismatch_matches(self):
        rng = random.Random(37)
        q_larger = Counter()
        for _ in range(80):
            _, q, _ = rand_triple(rng)
            _, _, r = rand_triple(rng)
            q = collapsed(rng, q, rng.choice((0, 1)))
            over = shuffled(rng, NAMES["z"])
            got = outcome(fiber_product, q, r, over)
            assert got == outcome(oracle_fiber_product, q, r, over)
            if got[0] == "raised":
                assert got[1] is PreconditionError
                q_larger[len(q.weights) > len(r.weights)] += 1
        assert q_larger[True] >= 10 and q_larger[False] >= 10, q_larger

    def test_fiber_product_builds_no_kernel_and_reorders_no_input(self, monkeypatch):
        called = []

        def recording(name, real):
            def record(*args):
                called.append(name)
                return real(*args)

            return record

        rng = random.Random(53)
        inputs = []
        for _ in range(100):
            _, q, r = rand_triple(rng)
            q, r = collapsed(rng, q, rng.choice((0, 1))), collapsed(rng, r, rng.choice((0, 1)))
            inputs.append((q, r, shuffled(rng, NAMES["z"])))
        patched = ("reorder", "marginal", "conditional", "measures_equal")
        for name in patched + ("_derived",):
            monkeypatch.setattr(fiber_module, name, recording(name, getattr(fiber_module, name)))
        for q, r, over in inputs:
            p = fiber_product(q, r, over)
        # the only measure each product builds is its result
        assert called == ["_derived"] * 100
        called.clear()
        # the patches are live: the recognizer's extension check and readings go through all four
        assert is_fiber_product(p, q, r, NAMES["z"])
        assert set(called) == set(patched)

    def test_factoring_needs_every_product_cell(self):
        # the stored entry matches its product, but the cell ("1", "0") is missing;
        # on rows that each sum to one this cannot happen, so test the helper alone
        first, second = itemgetter(slice(0, 1)), itemgetter(slice(1, 2))
        x_row, y_row = {("0",): HALF, ("1",): HALF}, {("0",): Fraction(1)}
        assert not fiber_module._factors({("0", "0"): HALF}, x_row, y_row, first, second)
        assert fiber_module._factors({("0", "0"): HALF, ("1", "0"): HALF}, x_row, y_row, first, second)
        assert not fiber_module._factors({("0", "0"): HALF, ("1", "0"): QUARTER}, x_row, y_row, first, second)

    def test_check_all_in_model_order_reorders_nothing(self, monkeypatch):
        permutations = []
        calls = []

        def recording_reorder(p, names):
            calls.append(names)
            if tuple(names) != p.layout.names:
                permutations.append((p.layout.names, tuple(names)))
            return reorder(p, names)

        monkeypatch.setattr(fiber_module, "reorder", recording_reorder)
        rng = random.Random(41)
        models = [rand_hv_mixed(rng) for _ in range(40)] + [pr_box_hv(), fair_coin_product_model()]
        for model in models:
            assert model.measure.layout.names == HV_COORDS
            check_all(model)
        assert calls, "is_fiber_product no longer calls reorder; the test checks nothing"
        assert permutations == []
