"""Empirical and hidden-variable models on fixed bipartite coordinates.

An empirical model is a measure over Alice's and Bob's outcomes and
settings (coordinates xa, xb, ya, yb).  A hidden-variable model adds an
unobserved coordinate lam.  Coordinate names are fixed strings so files,
checkers and constructions all agree on the wiring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LayoutError
from .measure import FiniteMeasure, FiniteSpace, ProductLayout, marginal, measures_equal, reorder

XA, XB, YA, YB, LAM = "xa", "xb", "ya", "yb", "lam"
PSI_COORDS = (XA, XB, YA, YB)
HV_COORDS = PSI_COORDS + (LAM,)


def _normalized(measure: FiniteMeasure, expected: tuple[str, ...]) -> FiniteMeasure:
    if set(measure.layout.names) != set(expected):
        raise LayoutError(
            f"model requires coordinates {expected}, got {measure.layout.names}"
        )
    return reorder(measure, expected)


@dataclass(frozen=True)
class EmpiricalModel:
    """Observable statistics: a measure on (xa, xb, ya, yb)."""

    measure: FiniteMeasure

    def __post_init__(self):
        object.__setattr__(self, "measure", _normalized(self.measure, PSI_COORDS))

    def space(self, name: str) -> FiniteSpace:
        return self.measure.layout.space(name)


@dataclass(frozen=True)
class HVModel:
    """An empirical model augmented by a hidden coordinate lam."""

    measure: FiniteMeasure

    def __post_init__(self):
        object.__setattr__(self, "measure", _normalized(self.measure, HV_COORDS))

    def space(self, name: str) -> FiniteSpace:
        return self.measure.layout.space(name)

    def empirical(self) -> EmpiricalModel:
        """The observable part: hidden coordinate marginalized out."""
        return EmpiricalModel(marginal(self.measure, PSI_COORDS))


@dataclass(frozen=True)
class MarginalFamily:
    """The seven standard marginals of a hidden-variable model.

    p_a / p_b drop the other party's outcome; q_a / q_b keep only a
    party's own outcome and setting with the hidden coordinate; r is the
    settings-plus-hidden marginal; p_y and p_lam are the settings-only
    and hidden-only marginals.
    """

    p_a: FiniteMeasure
    p_b: FiniteMeasure
    q_a: FiniteMeasure
    q_b: FiniteMeasure
    r: FiniteMeasure
    p_y: FiniteMeasure
    p_lam: FiniteMeasure


def named_marginals(p: HVModel) -> MarginalFamily:
    """The seven marginals, each taken from the smallest one already built that contains it."""
    p_a = marginal(p.measure, (XA, YA, YB, LAM))
    p_b = marginal(p.measure, (XB, YA, YB, LAM))
    r = marginal(p_a, (YA, YB, LAM))
    return MarginalFamily(
        p_a=p_a,
        p_b=p_b,
        q_a=marginal(p_a, (XA, YA, LAM)),
        q_b=marginal(p_b, (XB, YB, LAM)),
        r=r,
        p_y=marginal(r, (YA, YB)),
        p_lam=marginal(r, (LAM,)),
    )


def _check_psi_compatible(a_layout: ProductLayout, b_layout: ProductLayout) -> None:
    for name in PSI_COORDS:
        if a_layout.space(name).atoms != b_layout.space(name).atoms:
            raise LayoutError(f"atom sets for coordinate {name!r} differ")


def realizes(p: HVModel, e: EmpiricalModel) -> bool:
    """Whether marginalizing the hidden coordinate out of p recovers e exactly."""
    _check_psi_compatible(p.measure.layout, e.measure.layout)
    return measures_equal(marginal(p.measure, PSI_COORDS), e.measure)


def equivalent(p: HVModel, q: HVModel) -> bool:
    """Whether two models (hidden spaces may differ) realize the same statistics."""
    _check_psi_compatible(p.measure.layout, q.measure.layout)
    return measures_equal(marginal(p.measure, PSI_COORDS), marginal(q.measure, PSI_COORDS))


def empirical_model(xa, xb, ya, yb, weights) -> EmpiricalModel:
    """Convenience constructor from atom label sequences and a weight map."""
    layout = ProductLayout(
        (FiniteSpace(XA, tuple(xa)), FiniteSpace(XB, tuple(xb)),
         FiniteSpace(YA, tuple(ya)), FiniteSpace(YB, tuple(yb)))
    )
    return EmpiricalModel(FiniteMeasure(layout, weights))


def hv_model(xa, xb, ya, yb, lam, weights) -> HVModel:
    """Convenience constructor from atom label sequences and a weight map."""
    layout = ProductLayout(
        (FiniteSpace(XA, tuple(xa)), FiniteSpace(XB, tuple(xb)),
         FiniteSpace(YA, tuple(ya)), FiniteSpace(YB, tuple(yb)),
         FiniteSpace(LAM, tuple(lam)))
    )
    return HVModel(FiniteMeasure(layout, weights))
