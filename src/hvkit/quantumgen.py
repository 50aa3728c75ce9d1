"""Empirical models from two-qubit singlet spin measurements.

The generator is a direct four-dimensional complex state-vector
computation, deliberately independent of every other module so its
output can serve as ground truth: build the singlet state, project onto
the product eigenstates of the spin observables along in-plane
directions at the requested angles, and read off the joint Born
probabilities.

Floats exist only here.  Each probability is converted to an exact
rational with a bounded denominator, and each context's four-outcome
block is renormalized to sum to exactly one by adjusting its largest
entry -- the distortion is at most a few parts in ``max_denominator``,
which can break exact no-signaling at the rational level by the same
order; the float behavior itself is no-signaling to machine precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DomainError, ResourceLimitError
from .measure import FiniteMeasure, FiniteSpace, ProductLayout
from .models import EmpiricalModel, XA, XB, YA, YB
from .rationals import ONE, ZERO, approximate_from_float

OUTCOMES = ("up", "down")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Most atoms singlet_model builds: 100 x 100 angles, which took about
# 1.8 s on a 2-CPU machine (2.1 s through `hvkit generate`).
MAX_SINGLET_ATOMS = 40_000


def _spin_eigenvectors(angle_deg: float) -> dict[str, tuple[complex, complex]]:
    """Eigenvectors of the spin observable along the in-plane direction."""
    half = math.radians(angle_deg) / 2.0
    return {
        "up": (complex(math.cos(half)), complex(math.sin(half))),
        "down": (complex(-math.sin(half)), complex(math.cos(half))),
    }


def singlet_joint_probabilities(angle_a_deg: float, angle_b_deg: float) -> dict[tuple[str, str], float]:
    """Born probabilities for one measurement context, straight from the state vector."""
    # singlet amplitudes over the product basis (up,up), (up,down), ...
    state = {
        ("up", "down"): complex(_INV_SQRT2),
        ("down", "up"): complex(-_INV_SQRT2),
    }
    vec_a = _spin_eigenvectors(angle_a_deg)
    vec_b = _spin_eigenvectors(angle_b_deg)
    probabilities = {}
    for oa in OUTCOMES:
        for ob in OUTCOMES:
            amplitude = 0j
            for (i, j), coefficient in state.items():
                basis_a = vec_a[oa][0] if i == "up" else vec_a[oa][1]
                basis_b = vec_b[ob][0] if j == "up" else vec_b[ob][1]
                amplitude += basis_a.conjugate() * basis_b.conjugate() * coefficient
            probabilities[(oa, ob)] = abs(amplitude) ** 2
    return probabilities


def _angle_label(angle: float) -> str:
    """``f"{angle:g}"`` when it reads back as the angle, else ``repr(angle)``.

    Either way the label reads back as the angle, so distinct angles get
    distinct labels.
    """
    label = f"{angle:g}"
    return label if float(label) == angle else repr(angle)


def _rationalize_block(block: dict[tuple[str, str], float], max_denominator: int) -> dict[tuple[str, str], Fraction]:
    exact = {
        outcome: approximate_from_float(min(max(p, 0.0), 1.0), max_denominator)
        for outcome, p in block.items()
    }
    deficit = ONE - sum(exact.values(), ZERO)
    if deficit != 0:
        largest = max(exact, key=lambda k: (exact[k], k))
        adjusted = exact[largest] + deficit
        if adjusted < 0:
            raise DomainError("max_denominator too small to renormalize a context block")
        exact[largest] = adjusted
    return exact


def singlet_model(
    angles_a: Sequence[float],
    angles_b: Sequence[float],
    setting_dist: Mapping[tuple[str, str], Fraction] | None = None,
    max_denominator: int = 10**6,
) -> EmpiricalModel:
    """Exact empirical model of singlet spin measurements at the given angles.

    Setting atoms are named by their angles; outcome atoms are "up" and
    "down".  ``setting_dist`` maps context label pairs to exact weights
    (default uniform over all contexts).  Every angle must be finite
    (DomainError otherwise), and the model may have at most
    MAX_SINGLET_ATOMS = 40,000 atoms, |angles_a| x |angles_b| x 4
    (ResourceLimitError otherwise, raised before any amplitude is
    computed).
    """
    if not angles_a or not angles_b:
        raise DomainError("each party needs at least one measurement angle")
    atoms = len(angles_a) * len(angles_b) * len(OUTCOMES) ** 2
    if atoms > MAX_SINGLET_ATOMS:
        raise ResourceLimitError(
            f"{len(angles_a)} x {len(angles_b)} angles would build {atoms} atoms, "
            f"over MAX_SINGLET_ATOMS = {MAX_SINGLET_ATOMS}"
        )
    for angle in (*angles_a, *angles_b):
        if not math.isfinite(angle):
            raise DomainError(f"measurement angles must be finite, got {angle!r}")
    # compared as values, since 0.0 and -0.0 are equal angles with distinct labels
    if len(set(angles_a)) != len(angles_a) or len(set(angles_b)) != len(angles_b):
        raise DomainError("measurement angles must be distinct per party")
    labels_a = tuple(_angle_label(a) for a in angles_a)
    labels_b = tuple(_angle_label(b) for b in angles_b)

    contexts = [(la, lb) for la in labels_a for lb in labels_b]
    if setting_dist is None:
        setting_dist = {c: Fraction(1, len(contexts)) for c in contexts}
    else:
        unknown = set(setting_dist) - set(contexts)
        if unknown:
            raise DomainError(f"setting distribution names unknown contexts: {sorted(unknown)}")
        if any(w < 0 for w in setting_dist.values()):
            raise DomainError("setting distribution weights must be nonnegative")
        if sum(setting_dist.values(), ZERO) != ONE:
            raise DomainError("setting distribution must sum to exactly 1")

    weights = {}
    for (la, angle_a), (lb, angle_b) in (
        ((la, aa), (lb, ab))
        for la, aa in zip(labels_a, angles_a)
        for lb, ab in zip(labels_b, angles_b)
    ):
        context_weight = setting_dist.get((la, lb), ZERO)
        block = _rationalize_block(
            singlet_joint_probabilities(angle_a, angle_b), max_denominator
        )
        for (oa, ob), probability in block.items():
            w = context_weight * probability
            if w != 0:
                weights[(oa, ob, la, lb)] = w

    layout = ProductLayout(
        (
            FiniteSpace(XA, OUTCOMES),
            FiniteSpace(XB, OUTCOMES),
            FiniteSpace(YA, labels_a),
            FiniteSpace(YB, labels_b),
        )
    )
    return EmpiricalModel(FiniteMeasure(layout, weights))
