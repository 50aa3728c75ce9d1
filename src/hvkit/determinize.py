"""Constructions that trade randomness for hidden variables.

Three constructions live here:

* :func:`trivial_hv` attaches a one-point hidden space, giving a
  realization that is trivially independent of the settings.
* :func:`determinize_empirical` realizes any empirical model by a
  strongly deterministic one whose hidden space is a tagged copy of the
  joint outcome space.
* :func:`determinize_local` turns any local, setting-independent model
  into an equivalent strongly deterministic, setting-independent one by
  splitting each party's unit interval of randomness into subintervals
  whose lengths are the party's outcome conditionals.

The unit-interval factor is represented exactly: all interval endpoints
are rational, and the common refinement of every row's endpoints yields
finitely many cells on which every conditional in the construction is
constant.  Replacing the interval by those cells is a measure-algebra
quotient, not an approximation, so every checker sees identical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from typing import Mapping

from .errors import InternalCheckError, PreconditionError
from .fiber import fiber_product
from .measure import (
    Atom,
    FiniteMeasure,
    FiniteSpace,
    ProductLayout,
    _join_labels,
    conditional,
    fuse_factors,
    marginal,
    point_mass,
    product,
    reorder,
)
from .models import EmpiricalModel, HVModel, LAM, XA, XB, YA, YB, equivalent
from .properties import check_lambda_independence, check_locality, check_strong_determinism
from .rationals import ONE, ZERO

_PARTY_COORDS = {"a": (XA, YA), "b": (XB, YB)}


@dataclass(frozen=True)
class Interval:
    """A half-open subinterval [lo, hi) of the unit interval.

    The final interval of a partition is closed on the right; endpoints
    carry no mass, so only the labelling cares.
    """

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


@dataclass(frozen=True)
class IntervalPartition:
    """Per positive (own setting, lam) row: consecutive outcome intervals.

    Within a row the intervals follow canonical outcome order, endpoints
    are the running partial sums of the outcome conditionals, and they
    cover [0, 1] exactly (degenerate zero-length intervals are kept so
    every outcome appears).
    """

    party: str
    rows: Mapping[Atom, tuple[Interval, ...]]


@dataclass(frozen=True)
class RefinedCellSpace:
    """The common refinement of every row's interval endpoints.

    Cells partition [0, 1], have positive rational lengths summing to
    one, and each row's intervals are unions of consecutive cells.
    """

    party: str
    cells: tuple[Interval, ...]

    def labels(self) -> tuple[str, ...]:
        n = len(self.cells)
        return tuple(c.label(i == n - 1) for i, c in enumerate(self.cells))

    def lengths(self) -> tuple[Fraction, ...]:
        return tuple(c.length for c in self.cells)


def interval_partition(p: HVModel, party: str) -> IntervalPartition:
    """Split [0, 1] per positive (own setting, lam) atom by outcome conditionals."""
    outcome_coord, setting_coord = _PARTY_COORDS[party]
    kernel = conditional(p.measure, (outcome_coord,), (setting_coord, LAM))
    outcomes = p.space(outcome_coord).atoms

    rows: dict[Atom, tuple[Interval, ...]] = {}
    for given in kernel.given_atoms():
        row = kernel.row(given)
        intervals = []
        cumulative = ZERO
        for outcome in outcomes:
            weight = row.get((outcome,), ZERO)
            intervals.append(Interval(outcome, cumulative, cumulative + weight))
            cumulative += weight
        if cumulative != ONE:
            raise InternalCheckError(f"conditional row at {given!r} sums to {cumulative}")
        rows[given] = tuple(intervals)
    return IntervalPartition(party, rows)


def refined_cells(partition: IntervalPartition) -> RefinedCellSpace:
    """Cells between consecutive distinct endpoints across all rows."""
    endpoints = {ZERO, ONE}
    for intervals in partition.rows.values():
        for interval in intervals:
            endpoints.add(interval.hi)
    ordered = sorted(endpoints)
    cells = tuple(
        Interval(None, lo, hi) for lo, hi in zip(ordered, ordered[1:])
    )
    return RefinedCellSpace(partition.party, cells)


def trivial_hv(e: EmpiricalModel) -> HVModel:
    """Attach a one-point hidden space; realizes e and ignores the settings."""
    lam = point_mass(FiniteSpace(LAM, ("l0",)), "l0")
    return HVModel(product(e.measure, lam))


def joint_outcome_tags(e: EmpiricalModel) -> tuple[str, ...]:
    """Hidden-space labels: one tagged copy of each joint outcome pair."""
    xa_atoms = e.space(XA).atoms
    xb_atoms = e.space(XB).atoms
    return tuple(map(_join_labels, cartesian(xa_atoms, xb_atoms)))


def determinize_empirical(e: EmpiricalModel) -> HVModel:
    """A strongly deterministic realization whose hidden space copies the outcomes.

    The hidden coordinate carries a tagged copy of the joint outcome
    space; a diagonal coupling forces outcome and tag to coincide, and
    the fiber product with e over the outcomes reattaches the settings.
    The result realizes e, and each party's outcome is a function of the
    tag alone -- at the price of the hidden variable generally becoming
    correlated with the settings.
    """
    outcome_dist = marginal(e.measure, (XA, XB))
    tags = joint_outcome_tags(e)
    lam_space = FiniteSpace(LAM, tags)

    diag_layout = ProductLayout(
        (e.space(XA), e.space(XB), lam_space)
    )
    diagonal = FiniteMeasure(
        diag_layout,
        {
            (xa, xb, _join_labels((xa, xb))): w
            for (xa, xb), w in outcome_dist.weights.items()
        },
    )
    joined = fiber_product(diagonal, e.measure, over=(XA, XB))
    return HVModel(joined)


def _interval_side(p: HVModel, party: str) -> tuple[FiniteMeasure, FiniteMeasure]:
    """Build one party's cell-length measure and the coupling of outcome
    to (own setting, lam, cell)."""
    outcome_coord, setting_coord = _PARTY_COORDS[party]
    partition = interval_partition(p, party)
    cells = refined_cells(partition)
    labels = cells.labels()
    cell_space = FiniteSpace(f"cell_{party}", labels)
    lengths = FiniteMeasure(
        ProductLayout((cell_space,)),
        dict(zip(((lbl,) for lbl in labels), cells.lengths())),
    )

    setting_lam_mass = marginal(p.measure, (setting_coord, LAM))
    weights: dict[Atom, Fraction] = {}
    for given, intervals in partition.rows.items():
        mass = setting_lam_mass.weight(given)
        for interval in intervals:
            if interval.length == 0:
                continue
            for label, cell in zip(labels, cells.cells):
                if interval.contains_interval(cell.lo, cell.hi):
                    weights[(interval.outcome,) + given + (label,)] = mass * cell.length
    coupling_layout = ProductLayout(
        (p.space(outcome_coord), p.space(setting_coord), p.space(LAM), cell_space)
    )
    coupling = FiniteMeasure(coupling_layout, weights)
    return lengths, coupling


def determinize_local(p: HVModel) -> HVModel:
    """Equivalent strongly deterministic model for a local, setting-independent one.

    Requires locality and independence of the hidden variable from the
    settings (checked; the failing report rides on the error).  The new
    hidden space is the product of the old one with one randomness cell
    per party; the construction follows the interval-splitting recipe and
    verifies its own postconditions on every call.
    """
    locality = check_locality(p)
    if not locality.holds:
        raise PreconditionError("input does not satisfy locality", report=locality)
    lam_indep = check_lambda_independence(p)
    if not lam_indep.holds:
        raise PreconditionError(
            "input's hidden variable is not independent of the settings", report=lam_indep
        )

    lengths_a, coupling_a = _interval_side(p, "a")
    lengths_b, coupling_b = _interval_side(p, "b")

    # randomness cells are independent of everything else
    r_bar = product(product(marginal(p.measure, (YA, YB, LAM)), lengths_a), lengths_b)

    extended_a = fiber_product(coupling_a, r_bar, over=(YA, LAM, "cell_a"))
    extended_b = fiber_product(coupling_b, r_bar, over=(YB, LAM, "cell_b"))
    joined = reorder(
        fiber_product(extended_a, extended_b, over=(YA, YB, LAM, "cell_a", "cell_b")),
        (XA, XB, YA, YB, LAM, "cell_a", "cell_b"),
    )
    # hidden space becomes old-lam x cell_a x cell_b, fused into one
    # coordinate with labels "<lam>|<cell_a>|<cell_b>"
    fused = fuse_factors(joined, (LAM, "cell_a", "cell_b"), LAM)
    result = HVModel(fused)

    # self-verification: the construction is intricate enough that silent
    # corruption would be worse than the cost of these checks
    if not equivalent(result, p):
        raise InternalCheckError("determinized model is not realization-equivalent to its input")
    if not check_strong_determinism(result).holds:
        raise InternalCheckError("determinized model is not strongly deterministic")
    if not check_lambda_independence(result).holds:
        raise InternalCheckError("determinized model lost setting independence")
    return result
