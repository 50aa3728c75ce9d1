"""Fiber products of finite measures over shared coordinates.

The fiber product of q (on X x Z) and r (on Y x Z) over Z is the common
extension of q and r under which X and Y are conditionally independent
given Z.  On finite spaces it always exists and is unique, and the
defining integral becomes a finite sum over the positive atoms of the
shared marginal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as cartesian

from .errors import InternalCheckError, LayoutError, PreconditionError
from .measure import (
    FiniteMeasure,
    ProductLayout,
    _derived,
    conditional,
    marginal,
    measures_equal,
    reorder,
)


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


def _check_shared_marginal(q: FiniteMeasure, r: FiniteMeasure, z_names) -> FiniteMeasure:
    s_q = marginal(q, z_names)
    s_r = reorder(marginal(r, z_names), s_q.layout.names)
    if not measures_equal(s_q, s_r):
        for atom in s_q.layout.atoms():
            if s_q.weight(atom) != s_r.weight(atom):
                raise PreconditionError(
                    f"marginals on {z_names} differ, first at atom {atom!r}: "
                    f"{s_q.weight(atom)} vs {s_r.weight(atom)}"
                )
        raise InternalCheckError("marginals unequal but no differing atom found")
    return s_q


def fiber_product(q: FiniteMeasure, r: FiniteMeasure, over) -> FiniteMeasure:
    """Fiber product of q and r over the shared coordinates ``over``.

    Requires q and r to share exactly the coordinates named in ``over``
    and to have identical marginals there.  The result extends both
    inputs and makes their private coordinates conditionally independent
    given the shared ones.
    """
    x_names, y_names, z_names = _split_coords(q, r, over)
    s = _check_shared_marginal(q, r, z_names)

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
        # q(x, z) r(y, z) / s(z) = kq(x | z) kr(y | z) s(z), normalized once
        y_row = [(y, rv.numerator, rv.denominator) for y, rv in kr.row(z).items()]
        for x, qv in kq.row(z).items():
            n, d = qv.numerator * mass.numerator, qv.denominator * mass.denominator
            for y, rn, rd in y_row:
                weights[x + y + z] = Fraction(n * rn, d * rd)
    return _derived(layout, weights)


def is_fiber_product(p: FiniteMeasure, q: FiniteMeasure, r: FiniteMeasure, over) -> bool:
    """Whether the common extension ``p`` is the fiber product of q and r.

    ``p`` must extend both q and r (error otherwise).  Three equivalent
    characterizations are evaluated independently -- the conditional joint
    factoring through q and r, through p itself, and the conditional on
    the enlarged algebra collapsing to the shared one -- and must agree;
    disagreement raises, since it would mean the package itself is broken.

    Checking singleton events suffices: finite additivity extends the
    identities to all events.
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

    # conditional on the enlarged algebra must collapse to the shared one
    k_enlarged = conditional(p_aligned, x_names, y_names + z_names)
    z_positions = [i for i, n in enumerate(y_names + z_names) if n in set(z_names)]
    via_collapse = all(
        k_enlarged.value(yz, x) == kpx.value(tuple(yz[i] for i in z_positions), x)
        for yz in k_enlarged.given_atoms()
        for x in x_atoms
    )

    if not (via_inputs == via_extension == via_collapse):
        raise InternalCheckError(
            f"fiber characterizations disagree: inputs={via_inputs} "
            f"extension={via_extension} collapse={via_collapse}"
        )
    return via_inputs
