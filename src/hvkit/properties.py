"""Decision procedures for the six hidden-variable properties.

Each checker evaluates its defining equation exactly, quantified over
positive-probability conditioning atoms only, and returns a report with
an exact witness on failure.  Where an equivalent characterization
exists (a fiber-product identity, a product equality, a per-party
reading), the checker also evaluates it and insists the readings agree;
a disagreement is an internal bug, not a property of the input, and
raises.

Witness selection is deterministic, so failing checks are reproducible
golden values.  The witness is the first pair where the two sides
differ, the conditioning atoms in canonical order on the outside and the
target atoms in canonical order on the inside, its assignment listing
the target labels before the conditioning labels.  A conditional
identity is decided row by row on the stored entries of the memoized
conditionals of the model, which the fiber identities read too: they
take conditionals on the model's marginals, and a marginal shares its
root's memo.  Each fiber identity is decided once per model: its
verdict is memoized like a kernel (:func:`hvkit.measure._memoized`), so
:func:`check_all` evaluates each once while every checker still compares
its equation against it.  A model whose measure is a marginal shares the
verdict with its root.  That is sound because checkers run only on
measures with exactly the HV coordinates, and every marginal of a root
on those coordinates is the same measure, in the root's order.  Only
the first row that fails is searched cell by cell
through :func:`_first_violation` for the witness, over the target atoms
where either side can be positive.  Products are compared
as integer cross-products of numerators and denominators, and a
``Fraction`` product is formed only for a witness's right side.
Determinism is decided on the support, in one pass over the model's
atoms (:func:`_determined`): weights are positive, so every conditional
of a row lies in {0, 1} exactly when its conditioning atom has one
positive target.  Only a pass that fails builds the memoized kernel, to
find the witness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter, mul

from .errors import InternalCheckError
from .fiber import _factors, is_fiber_product
from .measure import _canonical_key, _memoized, _projector, conditional, marginal, measures_equal, product
from .models import HVModel, LAM, XA, XB, YA, YB


# the xa and xb parts of a joint (xa, xb) target atom
_XA_PART, _XB_PART = itemgetter(slice(None, 1)), itemgetter(slice(1, None))

# parts of a (ya, yb, lam) conditioning atom: each party's own setting
# with lam, and all three
_A_OWN, _B_OWN, _BOTH = itemgetter(0, 2), itemgetter(1, 2), itemgetter(0, 1, 2)


class HVProperty(enum.Enum):
    """The six properties, valued by their CLI selector names."""

    LOCALITY = "locality"
    PARAMETER_INDEPENDENCE = "pi"
    OUTCOME_INDEPENDENCE = "oi"
    LAMBDA_INDEPENDENCE = "lambda"
    WEAK_DETERMINISM = "weakdet"
    STRONG_DETERMINISM = "strongdet"


@dataclass(frozen=True)
class Witness:
    """A concrete violation: coordinate assignment plus both sides of the equation."""

    assignment: tuple[tuple[str, str], ...]
    lhs: Fraction
    rhs: Fraction

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


@dataclass(frozen=True)
class PropertyReport:
    property: HVProperty
    holds: bool
    witness: Witness | None = None


def _is_product(value: Fraction, factors: tuple[Fraction, ...]) -> bool:
    """Whether ``value`` equals the product of ``factors``, as an integer cross-product."""
    left, right = value.as_integer_ratio()
    for factor in factors:
        n, d = factor.as_integer_ratio()
        left *= d
        right *= n
    return left == right


def _first_violation(coords, givens, targets, lhs, rhs) -> Witness | None:
    """The first (given, target) pair where lhs differs from rhs, in the module-docstring order.

    ``rhs`` returns the right side as a tuple of factors.  The sides are
    compared as integer cross-products, and the product is formed only
    for the witness.  ``targets`` must be a sequence, since it is walked
    again for every given.
    """
    for given in givens:
        for target in targets:
            left, factors = lhs(given, target), rhs(given, target)
            if not _is_product(left, factors):
                return Witness(tuple(zip(coords, target + given)), left, reduce(mul, factors))
    return None


def _kernel_violation(p: HVModel, kernel, row_holds, rhs, support) -> Witness | None:
    """First violation of ``kernel.value == rhs`` over every atom of the kernel.

    ``row_holds(given, row)`` decides the identity on a whole row from its
    stored entries.  Only the first row it rejects is searched cell by
    cell for the witness, and that row must hold one.  The search walks
    ``support(given, row)`` in canonical order: the target atoms off
    which both sides are zero.
    """
    coords = kernel.target_coords + kernel.given_coords
    key = _canonical_key(tuple(map(p.measure.layout.space, kernel.target_coords)))
    for given, row in kernel.table.items():
        if not row_holds(given, row):
            targets = sorted(support(given, row), key=key)
            witness = _first_violation(coords, (given,), targets, kernel.value, rhs)
            if witness is None:
                raise InternalCheckError(f"row {given!r} of {kernel.target_coords} fails, yet no cell differs")
            return witness
    return None


def _product_violation(p: HVModel, kernel, k_a, k_b, a_given, b_given) -> Witness | None:
    """First violation of kernel(xa, xb | g) == k_a(xa | a_given(g)) * k_b(xb | b_given(g))."""
    return _kernel_violation(
        p,
        kernel,
        lambda g, row: _factors(row, k_a.row(a_given(g)), k_b.row(b_given(g)), _XA_PART, _XB_PART),
        lambda g, t: (k_a.value(a_given(g), _XA_PART(t)), k_b.value(b_given(g), _XB_PART(t))),
        lambda g, row: set(row).union(x + y for x in k_a.row(a_given(g)) for y in k_b.row(b_given(g))),
    )


def _own_setting_violation(p: HVModel, k_both, k_own, own) -> Witness | None:
    """First violation of k_both(x | g) == k_own(x | own(g)); rows compare entry for entry."""
    return _kernel_violation(
        p,
        k_both,
        lambda g, row: row == k_own.row(own(g)),
        lambda g, t: (k_own.value(own(g), t),),
        lambda g, row: set(row).union(k_own.row(own(g))),
    )


def _determined(m, outcome_coords, given_coords) -> bool:
    """Whether ``m``'s conditional of ``outcome_coords`` given ``given_coords`` is 0/1, read off its atoms.

    Weights are positive, so a row's entries are all 1 exactly when its
    given atom has one outcome among the atoms.  The pass stops at the
    first given atom seen with a second outcome, and builds no kernel.
    """
    outcome_of = _projector(m.layout.positions(outcome_coords))
    given_of = _projector(m.layout.positions(given_coords))
    outcomes = {}
    for atom in m.weights:
        outcome = outcome_of(atom)
        if outcomes.setdefault(given_of(atom), outcome) != outcome:
            return False
    return True


def _zero_one_violation(m, outcome_coords, given_coords) -> Witness | None:
    """First conditional of (outcome | given) strictly between 0 and 1, if any.

    Decided by :func:`_determined`.  Only when that fails is the kernel
    built and searched, and it must hold a stored entry other than 1;
    absent entries are zero and pass.  The witness reports (v, v*v), the
    two sides of v == v*v.
    """
    if _determined(m, outcome_coords, given_coords):
        return None
    kernel = conditional(m, outcome_coords, given_coords)
    coords = kernel.target_coords + kernel.given_coords
    for given, row in kernel.table.items():
        for target, v in row.items():
            if v != 1:
                return Witness(tuple(zip(coords, target + given)), v, v * v)
    raise InternalCheckError(f"{outcome_coords} given {given_coords} has two outcomes, yet every conditional is 1")


def _assert_agreement(prop: HVProperty, **readings: bool) -> None:
    if len(set(readings.values())) > 1:
        verdicts = " ".join(f"{name}={verdict}" for name, verdict in readings.items())
        raise InternalCheckError(f"{prop.value}: readings disagree: {verdicts}")


@_memoized
def _outcome_fiber(m) -> bool:
    """Outcome independence as a fiber identity: m = p_a x_(ya, yb, lam) p_b."""
    p_a, p_b = marginal(m, (XA, YA, YB, LAM)), marginal(m, (XB, YA, YB, LAM))
    return is_fiber_product(m, p_a, p_b, (YA, YB, LAM))


@_memoized
def _parameter_fibers(m) -> bool:
    """Parameter independence as fiber identities: p_a = q_a x_(ya, lam) r, p_b = q_b x_(yb, lam) r."""
    p_a, p_b = marginal(m, (XA, YA, YB, LAM)), marginal(m, (XB, YA, YB, LAM))
    r = marginal(p_a, (YA, YB, LAM))
    return is_fiber_product(p_a, marginal(p_a, (XA, YA, LAM)), r, (YA, LAM)) and is_fiber_product(
        p_b, marginal(p_b, (XB, YB, LAM)), r, (YB, LAM)
    )


def check_locality(p: HVModel) -> PropertyReport:
    """Joint outcome conditional factors into per-party own-setting conditionals."""
    m = p.measure
    k_joint = conditional(m, (XA, XB), (YA, YB, LAM))
    k_a = conditional(m, (XA,), (YA, LAM))
    k_b = conditional(m, (XB,), (YB, LAM))
    witness = _product_violation(p, k_joint, k_a, k_b, _A_OWN, _B_OWN)

    # locality is outcome independence and parameter independence together
    via_fiber = _outcome_fiber(m) and _parameter_fibers(m)
    _assert_agreement(HVProperty.LOCALITY, equation=witness is None, fiber=via_fiber)
    return PropertyReport(HVProperty.LOCALITY, witness is None, witness)


def check_parameter_independence(p: HVModel) -> PropertyReport:
    """Each party's outcome conditional ignores the other party's setting."""
    m = p.measure
    k_a_both = conditional(m, (XA,), (YA, YB, LAM))
    k_a_own = conditional(m, (XA,), (YA, LAM))
    k_b_both = conditional(m, (XB,), (YA, YB, LAM))
    k_b_own = conditional(m, (XB,), (YB, LAM))
    witness = _own_setting_violation(p, k_a_both, k_a_own, _A_OWN) or _own_setting_violation(
        p, k_b_both, k_b_own, _B_OWN
    )

    _assert_agreement(HVProperty.PARAMETER_INDEPENDENCE, equation=witness is None, fiber=_parameter_fibers(m))
    return PropertyReport(HVProperty.PARAMETER_INDEPENDENCE, witness is None, witness)


def check_outcome_independence(p: HVModel) -> PropertyReport:
    """Given both settings and lam, the two parties' outcomes are independent."""
    m = p.measure
    k_joint = conditional(m, (XA, XB), (YA, YB, LAM))
    k_a = conditional(m, (XA,), (YA, YB, LAM))
    k_b = conditional(m, (XB,), (YA, YB, LAM))
    witness = _product_violation(p, k_joint, k_a, k_b, _BOTH, _BOTH)

    _assert_agreement(HVProperty.OUTCOME_INDEPENDENCE, equation=witness is None, fiber=_outcome_fiber(m))
    return PropertyReport(HVProperty.OUTCOME_INDEPENDENCE, witness is None, witness)


def check_lambda_independence(p: HVModel) -> PropertyReport:
    """Settings and hidden variable are statistically independent.

    The verdict depends only on the settings-plus-hidden marginal r:
    holds iff r is the product of its two marginals.  All three
    equivalent readings (conditional-of-lam constancy, product equality,
    atomwise factorization) are evaluated and must agree.
    """
    r = marginal(p.measure, (YA, YB, LAM))
    p_y, p_lam = marginal(r, (YA, YB)), marginal(r, (LAM,))

    # atomwise factorization; positive atoms suffice for the verdict
    # (matching on the support forces the zero atoms to match by mass).
    # A failing witness is the first violation in canonical layout order;
    # off supp(p_y) x supp(p_lam) both sides are zero, and on it every atom
    # before the first violation is positive, so the walk is short.
    def factors(atom):
        return p_y.weight(atom[:2]), p_lam.weight(atom[2:])

    factorizes = all(_is_product(w, factors(atom)) for atom, w in r.weights.items())
    witness = None
    if not factorizes:
        witness = _first_violation(
            (YA, YB, LAM),
            (y + lam for y in p_y.weights for lam in p_lam.weights),
            ((),),
            lambda atom, _: r.weight(atom),
            lambda atom, _: factors(atom),
        )

    via_product = measures_equal(r, product(p_y, p_lam))

    # absent entries are zero on both sides, so rows compare as dicts
    k = conditional(r, (LAM,), (YA, YB))
    via_constancy = all(row == p_lam.weights for row in k.table.values())

    _assert_agreement(
        HVProperty.LAMBDA_INDEPENDENCE,
        atomwise=factorizes,
        product=via_product,
        constancy=via_constancy,
    )
    return PropertyReport(HVProperty.LAMBDA_INDEPENDENCE, factorizes, witness)


def check_weak_determinism(p: HVModel) -> PropertyReport:
    """Both settings plus lam almost surely pin down the joint outcome."""
    m = p.measure
    witness = _zero_one_violation(m, (XA, XB), (YA, YB, LAM))

    # equivalent per-party reading: each single outcome conditional is 0/1
    per_party = _determined(m, (XA,), (YA, YB, LAM)) and _determined(m, (XB,), (YA, YB, LAM))
    _assert_agreement(HVProperty.WEAK_DETERMINISM, joint=witness is None, per_party=per_party)
    return PropertyReport(HVProperty.WEAK_DETERMINISM, witness is None, witness)


def check_strong_determinism(p: HVModel) -> PropertyReport:
    """Each party's own setting plus lam almost surely pins down its outcome."""
    m = p.measure
    witness = _zero_one_violation(m, (XA,), (YA, LAM)) or _zero_one_violation(m, (XB,), (YB, LAM))
    return PropertyReport(HVProperty.STRONG_DETERMINISM, witness is None, witness)


_CHECKERS = {
    HVProperty.LOCALITY: check_locality,
    HVProperty.PARAMETER_INDEPENDENCE: check_parameter_independence,
    HVProperty.OUTCOME_INDEPENDENCE: check_outcome_independence,
    HVProperty.LAMBDA_INDEPENDENCE: check_lambda_independence,
    HVProperty.WEAK_DETERMINISM: check_weak_determinism,
    HVProperty.STRONG_DETERMINISM: check_strong_determinism,
}


def check_property(p: HVModel, prop: HVProperty) -> PropertyReport:
    return _CHECKERS[prop](p)


def check_all(p: HVModel) -> tuple[PropertyReport, ...]:
    """All six reports, in declaration order of HVProperty."""
    return tuple(_CHECKERS[prop](p) for prop in HVProperty)
