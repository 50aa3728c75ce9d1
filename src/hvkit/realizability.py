"""Local realizability: exact membership in the deterministic-strategy polytope.

An empirical model admits a local, setting-independent hidden-variable
realization exactly when its conditional behavior at positive-probability
contexts is a convex mixture of deterministic strategy behaviors.  This
module decides that membership with an exact rational LP and returns a
verifiable certificate either way: mixture weights when feasible, or a
Bell functional that separates the behavior from the polytope when not.

Separating functionals for two-setting/two-outcome models are drawn from
the sign-variant family of the standard correlator inequality whenever
one of them is violated (for no-signaling behaviors that family is
complete); otherwise the LP dual is emitted, scaled to primitive integer
coefficients.  Either way the certificate's bound is recomputed by full
strategy enumeration, in integers over the lcm of the coefficients'
denominators, and the strict inequality is re-verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from math import gcd, lcm

from .errors import DomainError, InternalCheckError, ResourceLimitError
from .measure import (
    Atom,
    FiniteMeasure,
    FiniteSpace,
    ProductLayout,
    conditional,
    marginal,
)
from .models import EmpiricalModel, HVModel, LAM, PSI_COORDS, XA, XB, YA, YB, realizes
from .properties import (
    check_lambda_independence,
    check_locality,
    check_strong_determinism,
)
from .rationals import ONE, ZERO
from .simplex import solve_feasibility

# The most deterministic strategy pairs enumerate_strategies will list.
STRATEGY_CAP = 10**6


@dataclass(frozen=True)
class DeterministicStrategy:
    """A pair of response functions, one outcome per setting per party.

    Outcomes are listed in the canonical order of each party's setting
    atoms.
    """

    outcomes_a: tuple[str, ...]
    outcomes_b: tuple[str, ...]

    def describe(self, settings_a, settings_b) -> str:
        a = ",".join(f"{s}->{o}" for s, o in zip(settings_a, self.outcomes_a))
        b = ",".join(f"{s}->{o}" for s, o in zip(settings_b, self.outcomes_b))
        return f"a[{a}] b[{b}]"


@dataclass(frozen=True)
class LocalityCertificate:
    """Either mixture weights over strategies, or a separating functional.

    Feasible: ``weights`` are nonnegative, sum to one, and reproduce the
    behavior exactly at every positive-probability context.  Infeasible:
    ``bell_functional`` maps outcome/setting atoms to coefficients with
    ``achieved_value`` strictly above ``classical_bound``, the exact
    maximum over all deterministic strategies.
    """

    feasible: bool
    weights: dict[DeterministicStrategy, Fraction] | None = None
    bell_functional: dict[Atom, Fraction] | None = None
    classical_bound: Fraction | None = None
    achieved_value: Fraction | None = None


def enumerate_strategies(
    ya: FiniteSpace,
    yb: FiniteSpace,
    xa: FiniteSpace,
    xb: FiniteSpace,
) -> list[DeterministicStrategy]:
    """All deterministic strategy pairs, in canonical order."""
    count = len(xa) ** len(ya) * len(xb) ** len(yb)
    if count > STRATEGY_CAP:
        raise ResourceLimitError(f"{count} strategies exceed the cap of {STRATEGY_CAP}")
    return [
        DeterministicStrategy(fa, fb)
        for fa in cartesian(xa.atoms, repeat=len(ya))
        for fb in cartesian(xb.atoms, repeat=len(yb))
    ]


def _sign(space: FiniteSpace, label: str) -> int:
    # first atom maps to +1, second to -1
    return 1 if space.index(label) == 0 else -1


def _behavior(e: EmpiricalModel):
    """Outcome pairs given settings: one row per positive context, in canonical order."""
    return conditional(e.measure, (XA, XB), (YA, YB))


def _two_by_two(e: EmpiricalModel) -> bool:
    return all(len(e.space(name)) == 2 for name in PSI_COORDS)


def chsh_value(e: EmpiricalModel) -> Fraction:
    """The standard correlator combination for 2x2-setting, 2-outcome models.

    E(i, j) is the expectation of the product of the two +/-1-mapped
    outcomes given the context pairing Alice's i-th with Bob's j-th
    setting; the returned value is E(0,0) + E(0,1) + E(1,0) - E(1,1),
    signed.  Every context must have positive probability.

    The minus sign always sits on context (1,1), where the PR box reaches 4.
    The value is not maximized over sign placements, so it depends on the
    order in which each party's settings are listed: the singlet at
    (0, 90)/(45, 135) gives exactly 0 here, and 2*sqrt2 in magnitude with
    Alice's list as (90, 0).  ``local_hvm_exists`` finds a violation
    whatever the order.
    """
    if not _two_by_two(e):
        raise DomainError("requires exactly 2 settings and 2 outcomes per party")
    kernel = _behavior(e)
    for context in cartesian(e.space(YA).atoms, e.space(YB).atoms):
        if not kernel.defined_at(context):
            raise DomainError(f"context {context!r} has zero probability")
    # the first sign variant is (+, +, +, -) over the contexts in canonical order
    return _evaluate_functional(next(_correlator_variants(e, kernel)), kernel)


def _strategy_outcome(strategy, ya, yb, context) -> tuple[str, str]:
    """The outcome pair a deterministic strategy produces at a context."""
    return strategy.outcomes_a[ya.index(context[0])], strategy.outcomes_b[yb.index(context[1])]


def _evaluate_functional(functional, kernel) -> Fraction:
    total = ZERO
    for context, row in kernel.table.items():
        for outcome, value in row.items():
            coefficient = functional.get(outcome + context)
            if coefficient is not None:
                total += coefficient * value
    return total


def _classical_bound(functional, strategies, ya, yb, contexts) -> Fraction:
    """The functional's maximum over every strategy, by full enumeration in integers.

    The coefficients are scaled once to integers over the lcm of their
    denominators, each strategy's value is an integer sum, and one
    ``Fraction`` is built from the largest.
    """
    scale = lcm(*(c.denominator for c in functional.values()))
    coefficients = {atom: c.numerator * (scale // c.denominator) for atom, c in functional.items()}
    positions = [(ya.index(context[0]), yb.index(context[1]), context) for context in contexts]
    best = max(
        sum(coefficients.get((s.outcomes_a[i], s.outcomes_b[j]) + context, 0) for i, j, context in positions)
        for s in strategies
    )
    return Fraction(best, scale)


def _correlator_variants(e: EmpiricalModel, kernel):
    """Sign variants of the correlator functional, canonical order first."""
    xa, xb = e.space(XA), e.space(XB)
    ya, yb = e.space(YA), e.space(YB)
    if not _two_by_two(e) or len(kernel.table) != 4:
        return
    for signs in cartesian((1, -1), repeat=4):
        if signs[0] * signs[1] * signs[2] * signs[3] != -1:
            continue
        functional = {}
        for (i, j), sign in zip(cartesian(range(2), range(2)), signs):
            context = (ya.atoms[i], yb.atoms[j])
            for oa in xa.atoms:
                for ob in xb.atoms:
                    functional[(oa, ob) + context] = Fraction(
                        sign * _sign(xa, oa) * _sign(xb, ob)
                    )
        yield functional


def _primitive_integer_scaling(functional: dict) -> dict:
    """Scale a rational functional to integer coefficients with gcd one."""
    denominators = [v.denominator for v in functional.values() if v != 0]
    if not denominators:
        return functional
    scale = lcm(*denominators)
    scaled = {k: v * scale for k, v in functional.items()}
    common = gcd(*(v.numerator for v in scaled.values()))
    if common > 1:
        scaled = {k: v / common for k, v in scaled.items()}
    return scaled


def _infeasible_certificate(e, strategies, dual) -> LocalityCertificate:
    ya, yb = e.space(YA), e.space(YB)
    xa, xb = e.space(XA), e.space(XB)
    kernel = _behavior(e)
    contexts = list(kernel.given_atoms())

    functional = None
    for candidate in _correlator_variants(e, kernel):
        value = _evaluate_functional(candidate, kernel)
        if value > 2:
            functional = candidate
            break
    if functional is None:
        # generic dual certificate from the LP, one coefficient per
        # behavior constraint row
        rows = [(oa, ob) + context for context in contexts for oa in xa.atoms for ob in xb.atoms]
        functional = _primitive_integer_scaling(dict(zip(rows, dual)))

    bound = _classical_bound(functional, strategies, ya, yb, contexts)
    achieved = _evaluate_functional(functional, kernel)
    if achieved <= bound:
        raise InternalCheckError("separating functional does not separate")
    return LocalityCertificate(
        feasible=False,
        bell_functional=functional,
        classical_bound=bound,
        achieved_value=achieved,
    )


def strategy_hv_model(
    e: EmpiricalModel, strategies, weights: dict[DeterministicStrategy, Fraction]
) -> HVModel:
    """The hidden-variable model induced by a strategy mixture.

    The hidden space lists the strategies of positive weight, the i-th
    strategy labelled ``s<i>``; settings keep their original distribution
    and are independent of the strategy choice.
    """
    ya, yb = e.space(YA), e.space(YB)
    chosen = [(f"s{i}", s, weights[s]) for i, s in enumerate(strategies) if weights.get(s, ZERO) != 0]
    lam = FiniteSpace(LAM, tuple(label for label, _, _ in chosen))
    settings = marginal(e.measure, (YA, YB))

    atom_weights = {
        _strategy_outcome(strategy, ya, yb, context) + context + (label,): w * mass
        for label, strategy, w in chosen
        for context, mass in settings.weights.items()
    }
    layout = ProductLayout((e.space(XA), e.space(XB), ya, yb, lam))
    return HVModel(FiniteMeasure(layout, atom_weights))


def local_hvm_exists(e: EmpiricalModel) -> tuple[bool, LocalityCertificate]:
    """Decide local realizability of e, with a verified exact certificate.

    Zero-probability contexts impose no constraints.  In the feasible
    case the witnessing hidden-variable model is reconstructed and must
    pass realization, locality, setting independence and strong
    determinism before the certificate is returned.
    """
    strategies = enumerate_strategies(e.space(YA), e.space(YB), e.space(XA), e.space(XB))
    kernel = _behavior(e)
    contexts = list(kernel.given_atoms())
    ya, yb = e.space(YA), e.space(YB)
    xa, xb = e.space(XA), e.space(XB)

    row_keys = [((oa, ob), context) for context in contexts for oa in xa.atoms for ob in xb.atoms]
    rhs = [kernel.value(context, outcome) for outcome, context in row_keys]
    # one 0/1 column per strategy: a 1 in the row of the outcome pair it
    # produces at each context, whose rows form a block of |xa| * |xb|
    positions = [(ya.index(context[0]), yb.index(context[1])) for context in contexts]
    width_b = len(xb)
    block = len(xa) * width_b
    columns = []
    for s in strategies:
        index_a = [xa.index(o) for o in s.outcomes_a]
        index_b = [xb.index(o) for o in s.outcomes_b]
        column = [0] * len(rhs)
        for c, (i, j) in enumerate(positions):
            column[c * block + index_a[i] * width_b + index_b[j]] = 1
        columns.append(column)

    result = solve_feasibility(columns, rhs)
    if result.feasible:
        weights = {
            s: w for s, w in zip(strategies, result.solution) if w != 0
        }
        total = sum(weights.values(), ZERO)
        if total != ONE:
            raise InternalCheckError(f"mixture weights sum to {total}")
        reproduced = dict.fromkeys(row_keys, ZERO)
        for s, w in weights.items():
            for context in contexts:
                reproduced[(_strategy_outcome(s, ya, yb, context), context)] += w
        if list(reproduced.values()) != rhs:
            raise InternalCheckError("mixture does not reproduce the behavior")

        model = strategy_hv_model(e, strategies, weights)
        if not realizes(model, e):
            raise InternalCheckError("reconstructed model does not realize the input")
        if not check_locality(model).holds:
            raise InternalCheckError("reconstructed model is not local")
        if not check_lambda_independence(model).holds:
            raise InternalCheckError("reconstructed model is not setting-independent")
        if not check_strong_determinism(model).holds:
            raise InternalCheckError("reconstructed model is not strongly deterministic")
        return True, LocalityCertificate(feasible=True, weights=weights)

    return False, _infeasible_certificate(e, strategies, result.dual)
