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
