"""Exact feasibility solver for equality-form linear systems.

Decides whether A x = b has a solution with x >= 0, where A has integer
entries and b is a nonnegative rational vector.  Uses the phase-one
simplex method on the artificial-variable problem with Bland's
smallest-index rule, which guarantees termination without any
tolerances.

The pivots are integer-preserving (Edmonds 1967; Bareiss 1968).  The
tableau body -- the columns of A, the artificial identity and the
phase-one cost row -- holds plain ints, and every entry, the rational
rhs column included, is stored as ``d`` times its true value, where
``d`` is the previous pivot element (1 at the start).  A pivot on the
stored element ``p`` leaves the pivot row as it is, replaces every other
row ``a`` (the cost row too) by ``(a * p - f * b) / d``, where ``f`` is
that row's pivot-column entry and ``b`` the pivot row, and then sets
``d = p``.  Each stored entry is a minor of the integer input, so the
divisions are exact.  Bland's ratio test pivots only on positive
entries, so ``d`` stays positive: every sign, ratio and tie the method
reads equals the one a rational tableau would read, and the pivot
sequence, the solution and the dual are exactly those of the rational
method.

On success returns the feasible x.  On failure returns a dual vector y
with  y . b > 0  and  y . A_j <= 0  for every column j -- a certificate
that no nonnegative solution exists.  Both verdicts are re-verified
against the input before they are returned: A x = b and x >= 0, or the
two dual inequalities, checked in integers as ``d * y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalCheckError
from .rationals import ZERO


@dataclass(frozen=True)
class FeasibilityResult:
    solution: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None
    pivots: int = 0

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def _supports(columns: list[list[int]], m: int) -> list[list[tuple[int, int]]]:
    """The nonzero (row, entry) pairs of each column, after validating it."""
    supports = []
    for j, col in enumerate(columns):
        if len(col) != m:
            raise DomainError(f"column {j} has length {len(col)}, expected {m}")
        if not all(type(v) is int for v in col):
            raise DomainError(f"column {j} has an entry that is not an int")
        supports.append([(i, v) for i, v in enumerate(col) if v])
    return supports


def solve_feasibility(columns: list[list[int]], rhs: list[Fraction]) -> FeasibilityResult:
    """Decide A x = b, x >= 0 for integer columns A_j and rational b >= 0."""
    m = len(rhs)
    n = len(columns)
    supports = _supports(columns, m)
    rhs = [Fraction(b) for b in rhs]
    if any(b < 0 for b in rhs):
        raise DomainError("right-hand side must be nonnegative")

    # tableau: structural columns | artificial identity, with the rhs column
    # kept apart as rationals; all of it scaled by d
    rows = []
    for i in range(m):
        row = [col[i] for col in columns]
        row += [0] * m
        row[n + i] = 1
        rows.append(row)
    values = list(rhs)
    basis = [n + i for i in range(m)]
    d = 1

    # phase-one objective: minimize the sum of artificials; reduced costs
    # start as the negated column sums over the constraint rows
    cost = [0] * (n + m)
    for j, support in enumerate(supports):
        cost[j] = -sum(v for _, v in support)
    cost_value = -sum(rhs, ZERO)

    pivots = 0
    while True:
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        # ratio test; ties broken by smallest basic-variable index (Bland)
        leaving = None
        best = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                ratio = values[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise InternalCheckError("phase-one objective unbounded; cannot happen")

        prow = rows[leaving]
        p = prow[entering]
        pvalue = values[leaving]
        for i in range(m):
            if i == leaving:
                continue
            row = rows[i]
            f = row[entering]
            if f == 0:
                if p != d:
                    rows[i] = [a * p // d for a in row]
                    values[i] = values[i] * p / d
            else:
                rows[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
                values[i] = (values[i] * p - f * pvalue) / d
        f = cost[entering]
        cost = [(a * p - f * b) // d for a, b in zip(cost, prow)]
        cost_value = (cost_value * p - f * pvalue) / d
        basis[leaving] = entering
        d = p
        pivots += 1

    if cost_value == 0:
        solution = [ZERO] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = values[i] / d
        _verify_primal(supports, rhs, solution)
        return FeasibilityResult(tuple(solution), None, pivots)

    # infeasible: multipliers read off the artificial reduced costs,
    # y_k = 1 - cost[n + k] / d, so d * y_k is an integer
    scaled = [d - cost[n + k] for k in range(m)]
    _verify_dual(supports, rhs, scaled)
    return FeasibilityResult(None, tuple(Fraction(y, d) for y in scaled), pivots)


def _verify_primal(supports, rhs, solution) -> None:
    """A x = b and x >= 0, or InternalCheckError."""
    if any(x < 0 for x in solution):
        raise InternalCheckError("primal solution has a negative entry")
    reproduced = [ZERO] * len(rhs)
    for support, x in zip(supports, solution):
        if x:
            for i, v in support:
                reproduced[i] += v * x
    if reproduced != rhs:
        raise InternalCheckError("primal solution does not satisfy A x = b")


def _verify_dual(supports, rhs, scaled) -> None:
    """(d y) . b > 0 and (d y) . A_j <= 0 for every column, or InternalCheckError."""
    if sum((y * b for y, b in zip(scaled, rhs)), ZERO) <= 0:
        raise InternalCheckError("dual certificate does not separate")
    for support in supports:
        if sum(scaled[i] * v for i, v in support) > 0:
            raise InternalCheckError("dual certificate fails on a column")
