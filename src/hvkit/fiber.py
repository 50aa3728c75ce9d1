"""Fiber products of finite measures over shared coordinates.

The fiber product of q (on X x Z) and r (on Y x Z) over Z is the common
extension of q and r under which X and Y are conditionally independent
given Z.  On finite spaces it always exists and is unique, and the
defining integral becomes a finite sum over the positive atoms of the
shared marginal.

:func:`fiber_product` evaluates that sum from one grouping of each
input by its shared part z, so it builds no intermediate measure: the
row sums are the shared marginal on each side, compared in integers,
and each entry of q's row is joined with each entry of r's.  Where a row
of q has a single entry, as when q is a party's deterministic extension in
:func:`hvkit.determinize.determinize_local`, r's weight is the result's
weight as it stands, so no new rational is formed.

:func:`is_fiber_product` recognizes a fiber product by three readings,
all on conditionals in the extension's own coordinate order, so on the
extension they are the kernels its memo already holds.  When the
extension is a marginal of a model, those are the model's own kernels:
a marginal shares its root's memo (see :mod:`hvkit.measure`).  The two
factoring readings compare integer cross-products of the stored entries
and the collapse reading compares rows entry for entry; no ``Fraction``
is built.  It reorders no measure whose coordinates already run in the
order it needs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalCheckError, LayoutError, PreconditionError
from .measure import (
    Atom,
    FiniteMeasure,
    ProductLayout,
    _canonical_key,
    _derived,
    _exact_sum,
    _projector,
    conditional,
    marginal,
    measures_equal,
    reorder,
)
from .rationals import ZERO


def _split_coords(q: FiniteMeasure, r: FiniteMeasure, over) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Return (X, Y, Z) coordinate names; X from q, Y from r, Z shared."""
    z_names = q.layout.ordered(over)
    for name in z_names:
        r.layout.position(name)
    shared = set(q.layout.names) & set(r.layout.names)
    if shared != set(z_names):
        raise LayoutError(
            f"measures must share exactly the fiber coordinates {z_names}; "
            f"they share {sorted(shared)}"
        )
    for name in z_names:
        if q.layout.space(name).atoms != r.layout.space(name).atoms:
            raise LayoutError(f"shared coordinate {name!r} has different atom sets")
    x_names = tuple(n for n in q.layout.names if n not in shared)
    y_names = tuple(n for n in r.layout.names if n not in shared)
    if not x_names or not y_names:
        raise LayoutError("each measure must contribute at least one coordinate besides the shared ones")
    return x_names, y_names, z_names


def _grouped(p: FiniteMeasure, z_names) -> dict[Atom, list[tuple[Atom, Fraction]]]:
    """p's (atom, weight) pairs in rows keyed by their labels on ``z_names``, in that order."""
    z_of = _projector(p.layout.positions(z_names))
    rows: dict[Atom, list] = {}
    for item in p.weights.items():
        rows.setdefault(z_of(item[0]), []).append(item)
    return rows


def _check_shared_marginal(q: FiniteMeasure, r: FiniteMeasure, z_names):
    """q and r grouped by z, and the shared marginal s, after checking that q and r agree on it.

    s(z) is a row's sum, taken in integers by :func:`_exact_sum` as
    :func:`hvkit.measure.marginal` takes it.  Off both supports both
    sides are zero, so the first atom where they differ in canonical
    order lies in the union of the two row sets.
    """
    q_rows, r_rows = _grouped(q, z_names), _grouped(r, z_names)
    s_q, s_r = (
        {
            z: row[0][1] if len(row) == 1 else Fraction(*_exact_sum([w.as_integer_ratio() for _, w in row]))
            for z, row in rows.items()
        }
        for rows in (q_rows, r_rows)
    )
    if s_q != s_r:
        differing = (z for z in s_q.keys() | s_r.keys() if s_q.get(z) != s_r.get(z))
        z = min(differing, key=_canonical_key(tuple(map(q.layout.space, z_names))))
        raise PreconditionError(
            f"marginals on {z_names} differ, first at atom {z!r}: {s_q.get(z, ZERO)} vs {s_r.get(z, ZERO)}"
        )
    return q_rows, r_rows, s_q


def fiber_product(q: FiniteMeasure, r: FiniteMeasure, over) -> FiniteMeasure:
    """Fiber product of q and r over the shared coordinates ``over``.

    Requires q and r to share exactly the coordinates named in ``over``
    and to have identical marginals there.  The result extends both
    inputs and makes their private coordinates conditionally independent
    given the shared ones.

    It builds no intermediate measure: no marginal, conditional kernel
    or reordering.  Each input is grouped once into rows by its shared
    part z, read by position in q's order of ``over``, and the row sums
    are the shared marginal s(z) on each side, compared in integers.
    Each entry v of q's row and w of r's row give the weight v w / s(z),
    one ``Fraction`` from integer products.  A row of q with one entry
    holds s(z) itself, so there r's weight is kept as it stands; passing
    the input with fewer atoms per z as q, such as a party's
    deterministic extension, makes every row one entry long.
    """
    x_names, y_names, z_names = _split_coords(q, r, over)
    rows, r_rows, s = _check_shared_marginal(q, r, z_names)
    x_of, y_of = _projector(q.layout.positions(x_names)), _projector(r.layout.positions(y_names))

    weights = {}
    for z, row in rows.items():
        if len(row) == 1:
            x = x_of(row[0][0])
            weights.update((x + y_of(b) + z, w) for b, w in r_rows[z])
            continue
        # q(x, z) r(y, z) / s(z)
        sn, sd = s[z].as_integer_ratio()
        for a, v in row:
            for b, w in r_rows[z]:
                (vn, vd), (wn, wd) = v.as_integer_ratio(), w.as_integer_ratio()
                weights[x_of(a) + y_of(b) + z] = Fraction(vn * wn * sd, vd * wd * sn)

    layout = ProductLayout(
        tuple(q.layout.space(n) for n in x_names)
        + tuple(r.layout.space(n) for n in y_names)
        + tuple(q.layout.space(n) for n in z_names)
    )
    return _derived(layout, weights)


def _factors(row, x_row, y_row, x_of, y_of) -> bool:
    """Whether ``row[t] == x_row[x_of(t)] * y_row[y_of(t)]`` at every target t.

    Rows store only their positive entries, and t -> (x_of(t), y_of(t))
    is one-to-one, so the identity holds at every target exactly when
    ``row`` has as many entries as the two factor rows together span and
    each entry matches.  Each entry is compared as the integer
    cross-product jn*xd*yd == xn*yn*jd; no Fraction is built.
    """
    if len(row) != len(x_row) * len(y_row):
        return False
    for t, j in row.items():
        a, b = x_row.get(x_of(t)), y_row.get(y_of(t))
        if a is None or b is None:
            return False
        jn, jd = j.as_integer_ratio()
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        if jn * ad * bd != an * bn * jd:
            return False
    return True


def _kernel_factors(joint, kx, ky, x_of, y_of) -> bool:
    """Whether ``joint`` is the product of ``kx`` and ``ky`` given every conditioning atom."""
    return all(_factors(row, kx.row(z), ky.row(z), x_of, y_of) for z, row in joint.table.items())


def is_fiber_product(p: FiniteMeasure, q: FiniteMeasure, r: FiniteMeasure, over) -> bool:
    """Whether the common extension ``p`` is the fiber product of q and r.

    ``p`` must extend both q and r (error otherwise).  Three equivalent
    characterizations are evaluated -- the conditional joint factoring
    through q and r, through p itself, and the conditional on the
    enlarged algebra collapsing to the shared one -- and must agree;
    disagreement raises, since it would mean the package itself is broken.
    The first two are separate computations only when q or r is not a
    marginal of p's model.  In every call hvkit makes, p, q and r are a
    model and its marginals, so q's and r's conditionals are p's own
    memoized kernels, and those two readings run the same comparison on
    the same kernels.  On the outcome identity that comparison is also
    the outcome-independence checker's own equation, and on the
    parameter identities the collapse reading is the
    parameter-independence checker's.

    Checking singleton events suffices: finite additivity extends the
    identities to all events.  Every conditional is taken in p's own
    coordinate order, so on p they are the kernels its memo already
    holds; q or r is reordered only when its coordinates run in another
    order.  A joint target atom is split into its x and y parts by
    position, each factoring reading compares integer cross-products of
    the stored entries (see :func:`_factors`), and the collapse reading
    compares rows entry for entry.
    """
    x_names, y_names, z_names = _split_coords(q, r, over)
    for name in x_names + y_names + z_names:
        p.layout.position(name)
    if set(p.layout.names) != set(x_names + y_names + z_names):
        raise LayoutError(
            f"extension has coordinates {p.layout.names}, expected exactly "
            f"{x_names + y_names + z_names}"
        )
    _check_shared_marginal(q, r, z_names)

    # common-extension precondition
    q_cols = p.layout.ordered(x_names + z_names)
    r_cols = p.layout.ordered(y_names + z_names)
    if not measures_equal(reorder(marginal(p, q_cols), q.layout.names), q):
        raise PreconditionError("p is not an extension of the first measure")
    if not measures_equal(reorder(marginal(p, r_cols), r.layout.names), r):
        raise PreconditionError("p is not an extension of the second measure")

    xs, ys, zs = p.layout.ordered(x_names), p.layout.ordered(y_names), p.layout.ordered(z_names)
    xy = p.layout.ordered(x_names + y_names)
    x_of = _projector(tuple(i for i, n in enumerate(xy) if n in xs))
    y_of = _projector(tuple(i for i, n in enumerate(xy) if n in ys))

    k_joint = conditional(p, xy, zs)
    kpx = conditional(p, xs, zs)
    via_inputs = _kernel_factors(
        k_joint,
        conditional(reorder(q, q_cols), xs, zs),
        conditional(reorder(r, r_cols), ys, zs),
        x_of,
        y_of,
    )
    via_extension = _kernel_factors(k_joint, kpx, conditional(p, ys, zs), x_of, y_of)

    # conditional on the enlarged algebra must collapse to the shared one
    z_of = _projector(tuple(i for i, n in enumerate(r_cols) if n in zs))
    via_collapse = all(
        row == kpx.row(z_of(yz)) for yz, row in conditional(p, xs, r_cols).table.items()
    )

    if not (via_inputs == via_extension == via_collapse):
        raise InternalCheckError(
            f"fiber characterizations disagree: inputs={via_inputs} "
            f"extension={via_extension} collapse={via_collapse}"
        )
    return via_inputs
