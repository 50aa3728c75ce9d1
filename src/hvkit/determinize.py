"""Constructions that trade randomness for hidden variables.

Three constructions live here:

* :func:`trivial_hv` attaches a one-point hidden space, giving a
  realization that is trivially independent of the settings.
* :func:`determinize_empirical` realizes any empirical model by a
  strongly deterministic one whose hidden space is a tagged copy of the
  support of the joint outcome marginal, and checks both on its output.
* :func:`determinize_local` turns any local, setting-independent model
  into an equivalent strongly deterministic, setting-independent one by
  splitting each party's unit interval of randomness into subintervals
  whose lengths are the party's outcome conditionals.  Its new hidden
  value is a triple (lam, cell_a, cell_b) of a positive lam and one such
  cell per party, built as one coordinate, and the model is one fiber
  product of the two parties' deterministic extensions over the settings
  and that coordinate.  One pass builds both extensions: both carry the
  same measure on (ya, yb, new lam), so each of its masses is formed once
  and shared.

The unit-interval factor is represented exactly: each (own setting, lam)
row is the tuple of its rational interval endpoints, and the ``(lo, hi)``
cells between consecutive distinct endpoints of all rows are finitely
many, with every conditional in the construction constant on each.
Replacing the interval by those cells is a measure-algebra quotient, not
an approximation, so every checker sees identical values.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Mapping

from .errors import InternalCheckError, PreconditionError, ResourceLimitError
from .fiber import fiber_product
from .measure import (
    Atom,
    FiniteMeasure,
    FiniteSpace,
    ProductLayout,
    _derived,
    _join_labels,
    conditional,
    marginal,
    point_mass,
    product,
)
from .models import EmpiricalModel, HVModel, LAM, XA, XB, YA, YB, equivalent, realizes
from .properties import check_lambda_independence, check_locality, check_strong_determinism
from .rationals import ONE, ZERO

_PARTY_COORDS = {"a": (XA, YA), "b": (XB, YB)}

Rows = Mapping[Atom, tuple[Fraction, ...]]

# Most atoms determinize_local builds.  It lists hidden labels only for positive
# lam, each of which has a positive (ya, yb) under lam-independence, so there are
# no more labels than atoms.  A 90,720-atom output (3 x 3 settings, 3 outcomes,
# 7 lam) took 3.4 s and 143 MB on a shared 2-CPU machine (median of 11 runs).
MAX_DETERMINIZED_ATOMS = 100_000


@dataclass(frozen=True)
class RefinedCellSpace:
    """A party's cells: the ``(lo, hi)`` pairs between consecutive distinct endpoints of its rows.

    They partition [0, 1] in increasing order, and each row's outcome intervals are unions of them.
    """

    party: str
    cells: tuple[tuple[Fraction, Fraction], ...]


def interval_partition(p: HVModel, party: str) -> Rows:
    """Per positive (own setting, lam) atom, the running sums ``ends`` of its outcome conditionals.

    In canonical outcome order, outcome i owns [ends[i-1], ends[i]), reading
    ends[-1] as 0, so a zero conditional repeats an endpoint.
    """
    outcome_coord, setting_coord = _PARTY_COORDS[party]
    kernel = conditional(p.measure, (outcome_coord,), (setting_coord, LAM))
    outcomes = p.space(outcome_coord).atoms
    rows = {}
    for given, row in kernel.table.items():
        ends = tuple(accumulate(row.get((outcome,), ZERO) for outcome in outcomes))
        if ends[-1] != ONE:
            raise InternalCheckError(f"conditional row at {given!r} sums to {ends[-1]}")
        rows[given] = ends
    return rows


def refined_cells(party: str, rows: Rows) -> RefinedCellSpace:
    """Cells between consecutive distinct endpoints across all rows."""
    ends = sorted({ZERO}.union(*rows.values()))
    return RefinedCellSpace(party, tuple(zip(ends, ends[1:])))


def trivial_hv(e: EmpiricalModel) -> HVModel:
    """Attach a one-point hidden space; realizes e and ignores the settings."""
    lam = point_mass(FiniteSpace(LAM, ("l0",)), "l0")
    return HVModel(product(e.measure, lam))


def joint_outcome_tags(e: EmpiricalModel) -> tuple[str, ...]:
    """Hidden-space labels: a tagged copy of each positive-mass joint outcome pair, in canonical order."""
    return tuple(map(_join_labels, marginal(e.measure, (XA, XB)).weights))


def determinize_empirical(e: EmpiricalModel) -> HVModel:
    """A strongly deterministic realization whose hidden space copies the outcomes.

    The hidden coordinate carries a tagged copy of each joint outcome
    pair of positive mass; a diagonal coupling forces outcome and tag to
    coincide, and the fiber product with e over the outcomes reattaches
    the settings.  The result realizes e, and each party's outcome is a
    function of the tag alone -- at the price of the hidden variable
    generally becoming correlated with the settings.  Both are checked
    on every call, and a failure raises InternalCheckError.
    """
    outcome_dist = marginal(e.measure, (XA, XB))
    tags = joint_outcome_tags(e)
    lam_space = FiniteSpace(LAM, tags)

    diag_layout = ProductLayout(
        (e.space(XA), e.space(XB), lam_space)
    )
    diagonal = FiniteMeasure(
        diag_layout,
        {(xa, xb, tag): w for tag, ((xa, xb), w) in zip(tags, outcome_dist.weights.items())},
    )
    result = HVModel(fiber_product(diagonal, e.measure, over=(XA, XB)))

    if not realizes(result, e):
        raise InternalCheckError("determinized model does not realize its input")
    if not check_strong_determinism(result).holds:
        raise InternalCheckError("determinized model is not strongly deterministic")
    return result


def determinize_local(p: HVModel) -> HVModel:
    """Equivalent strongly deterministic model for a local, setting-independent one.

    Requires locality and independence of the hidden variable from the
    settings (checked; the failing report rides on the error).  The new
    hidden value is a triple (lam, cell_a, cell_b) of a positive lam and
    one randomness cell per party, labelled ``"<lam>|<cell_a>|<cell_b>"``;
    the construction follows the interval-splitting recipe and verifies
    its own postconditions on every call.  One pass over the positive
    (ya, yb, lam) builds each party's deterministic extension on
    (outcome, ya, yb, new lam), where the party's own cell fixes its
    outcome: (ya, yb, (lam, cell_a, cell_b)) has mass
    P(ya, yb, lam) |cell_a| |cell_b| in both, formed once and shared.
    One fiber product joins them over (ya, yb, new lam).  Alice's
    extension has one atom per (ya, yb, new lam), so each weight is Bob's
    as it stands, and the result already runs in model order
    (xa, xb, ya, yb, lam).  Before any fiber product it raises
    ResourceLimitError if the output would have more atoms than
    MAX_DETERMINIZED_ATOMS = 100,000.
    """
    locality = check_locality(p)
    if not locality.holds:
        raise PreconditionError("input does not satisfy locality", report=locality)
    lam_indep = check_lambda_independence(p)
    if not lam_indep.holds:
        raise PreconditionError(
            "input's hidden variable is not independent of the settings", report=lam_indep
        )

    rows_a, rows_b = interval_partition(p, "a"), interval_partition(p, "b")
    cells_a, cells_b = refined_cells("a", rows_a), refined_cells("b", rows_b)
    settings_lam = marginal(p.measure, (YA, YB, LAM))
    # one atom per positive (ya, yb, lam) and cell pair
    atoms = len(settings_lam.weights) * len(cells_a.cells) * len(cells_b.cells)
    if atoms > MAX_DETERMINIZED_ATOMS:
        raise ResourceLimitError(
            f"{len(cells_a.cells)} x {len(cells_b.cells)} randomness cells would build {atoms} atoms "
            f"in all, over MAX_DETERMINIZED_ATOMS = {MAX_DETERMINIZED_ATOMS}"
        )

    # per (own setting, lam) row, the outcome on each of the party's cells: the
    # first interval reaching a cell's hi holds the whole cell, so it is not empty
    outcome_a, outcome_b = (
        {given: [outcomes[bisect_left(ends, hi)] for _, hi in cells.cells] for given, ends in rows.items()}
        for rows, cells, outcomes in ((rows_a, cells_a, p.space(XA).atoms), (rows_b, cells_b, p.space(XB).atoms))
    )
    names_a, names_b = ([f"[{lo},{hi}{']' if hi == ONE else ')'}" for lo, hi in c.cells] for c in (cells_a, cells_b))
    pairs = [
        (i, j, (a_hi - a_lo) * (b_hi - b_lo))
        for i, (a_lo, a_hi) in enumerate(cells_a.cells)
        for j, (b_lo, b_hi) in enumerate(cells_b.cells)
    ]
    # the new hidden values of each positive lam, in canonical order
    labels = {
        lam: [_join_labels((lam, names_a[i], names_b[j])) for i, j, _ in pairs]
        for (lam,) in marginal(p.measure, (LAM,)).weights
    }
    # randomness cells are independent of everything else, so (ya, yb, (lam,
    # cell_a, cell_b)) has mass P(ya, yb, lam) |cell_a| |cell_b| in both extensions
    weights_a: dict[Atom, Fraction] = {}
    weights_b: dict[Atom, Fraction] = {}
    for (ya, yb, lam), mass in settings_lam.weights.items():
        row_a, row_b = outcome_a[ya, lam], outcome_b[yb, lam]
        for (i, j, area), label in zip(pairs, labels[lam]):
            weights_a[(row_a[i], ya, yb, label)] = weights_b[(row_b[j], ya, yb, label)] = mass * area
    lam_space = FiniteSpace(LAM, tuple(label for lam_labels in labels.values() for label in lam_labels))
    extended_a = _derived(ProductLayout((p.space(XA), p.space(YA), p.space(YB), lam_space)), weights_a)
    extended_b = _derived(ProductLayout((p.space(XB), p.space(YA), p.space(YB), lam_space)), weights_b)
    result = HVModel(fiber_product(extended_a, extended_b, over=(YA, YB, LAM)))

    # self-verification: the construction is intricate enough that silent
    # corruption would be worse than the cost of these checks
    if not equivalent(result, p):
        raise InternalCheckError("determinized model is not realization-equivalent to its input")
    if not check_strong_determinism(result).holds:
        raise InternalCheckError("determinized model is not strongly deterministic")
    if not check_lambda_independence(result).holds:
        raise InternalCheckError("determinized model lost setting independence")
    return result
