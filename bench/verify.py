"""Output checks, written independently of hvkit.

Each check takes the generated request (with its exact input weights)
and what the library returned, and returns a description of the first
problem found, or None.  Determinized models are read back from their
serialized text with ``json`` and ``Fraction`` only, so the checks rely
on no hvkit code path.

``digest`` gives the bytes that enter the golden SHA-256 of a workload:
serialized determinized models, the six verdicts and witnesses of a
property check, and the feasible or infeasible verdict of a
realizability request.  Certificate contents stay out of the digest on
purpose, since a different solver may find a different mixture or
dual; they are verified semantically instead.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product as cartesian

PROPERTIES = ("locality", "pi", "oi", "lambda", "weakdet", "strongdet")


class Precondition:
    """What a determinize request returns when hvkit refuses its input."""

    def __init__(self, message: str):
        self.message = message


# -- independent property decisions on raw weight maps -----------------------


def _positions(spaces: dict) -> dict:
    return {name: i for i, name in enumerate(c for c in ("xa", "xb", "ya", "yb", "lam") if c in spaces)}


def _marginal(weights: dict, positions: tuple) -> dict:
    acc = {}
    for atom, w in weights.items():
        key = tuple(atom[i] for i in positions)
        acc[key] = acc.get(key, 0) + w
    return acc


def _determined(weights: dict, outcome: tuple, given: tuple) -> bool:
    """Whether the outcome coordinates are a function of the given ones on the support."""
    seen = {}
    for atom, w in weights.items():
        key = tuple(atom[i] for i in given)
        value = tuple(atom[i] for i in outcome)
        if w > 0 and seen.setdefault(key, value) != value:
            return False
    return True


def strongly_deterministic(weights: dict, spaces: dict) -> bool:
    at = _positions(spaces)
    return _determined(weights, (at["xa"],), (at["ya"], at["lam"])) and _determined(
        weights, (at["xb"],), (at["yb"], at["lam"])
    )


def weakly_deterministic(weights: dict, spaces: dict) -> bool:
    at = _positions(spaces)
    return _determined(weights, (at["xa"], at["xb"]), (at["ya"], at["yb"], at["lam"]))


def lambda_independent(weights: dict, spaces: dict) -> bool:
    """r(ya, yb, lam) = p(ya, yb) p(lam) at every atom, zero atoms included."""
    at = _positions(spaces)
    r = _marginal(weights, (at["ya"], at["yb"], at["lam"]))
    p_y = _marginal(weights, (at["ya"], at["yb"]))
    p_lam = _marginal(weights, (at["lam"],))
    return all(
        r.get((ya, yb, lam), 0) == p_y.get((ya, yb), 0) * p_lam.get((lam,), 0)
        for ya, yb, lam in cartesian(spaces["ya"], spaces["yb"], spaces["lam"])
    )


def _behavior(weights: dict, spaces: dict) -> dict:
    """P(xa, xb | ya, yb) at every positive context of an empirical model."""
    mass = _marginal(weights, (2, 3))
    outcomes = list(cartesian(spaces["xa"], spaces["xb"]))
    return {
        context: {o: weights.get(o + context, 0) / m for o in outcomes}
        for context, m in mass.items()
    }


# -- per-workload checks -----------------------------------------------------


def check_determinized(request, text) -> str | None:
    if isinstance(text, Precondition):
        return f"precondition refused on a local, lambda-independent input: {text.message}"
    document = json.loads(text)
    spaces = {name: tuple(atoms) for name, atoms in document["spaces"].items()}
    if list(spaces) != ["xa", "xb", "ya", "yb", "lam"]:
        return f"unexpected coordinates {list(spaces)}"
    for name in ("xa", "xb", "ya", "yb"):
        if spaces[name] != request.spaces[name]:
            return f"space {name} changed"
    weights = {}
    for entry in document["weights"]:
        atom = tuple(entry["atom"][name] for name in spaces)
        numerator, _, denominator = entry["p"].partition("/")
        w = Fraction(int(numerator), int(denominator or 1))
        if w <= 0 or atom in weights:
            return f"bad or duplicate weight at {atom}"
        weights[atom] = w
    if sum(weights.values()) != 1:
        return "weights do not sum to 1"
    if _marginal(weights, (0, 1, 2, 3)) != _marginal(request.weights, (0, 1, 2, 3)):
        return "output is not realization-equivalent to the input"
    if not strongly_deterministic(weights, spaces):
        return "output is not strongly deterministic"
    if not lambda_independent(weights, spaces):
        return "output is not lambda-independent"
    return None


def check_properties(request, reports) -> str | None:
    names = tuple(r.property.value for r in reports)
    if names != PROPERTIES:
        return f"reports for {names}, expected {PROPERTIES}"
    for report in reports:
        if report.holds != (report.witness is None):
            return f"{report.property.value}: verdict and witness disagree"
        if report.witness is not None and report.witness.lhs == report.witness.rhs:
            return f"{report.property.value}: witness does not violate its equation"
    holds = {r.property.value: r.holds for r in reports}
    locality, pi, oi, weak, strong = (holds[k] for k in ("locality", "pi", "oi", "weakdet", "strongdet"))
    relations = (
        locality == (pi and oi),
        strong == (weak and pi),
        strong == (weak and locality),
        not strong or weak,
        not weak or oi,
    )
    if not all(relations):
        return f"logical relationships violated: {holds}"
    independent = {
        "lambda": lambda_independent(request.weights, request.spaces),
        "weakdet": weakly_deterministic(request.weights, request.spaces),
        "strongdet": strongly_deterministic(request.weights, request.spaces),
    }
    for name, expected in independent.items():
        if holds[name] != expected:
            return f"{name}: verdict {holds[name]}, independent decision {expected}"
    return None


def classical_bound(functional: dict, contexts, spaces) -> Fraction:
    """Maximum of the functional, summed over the given contexts, over all
    deterministic strategies.

    For a fixed response function of Alice, Bob's best response splits
    per setting, so only Alice's response functions are enumerated.
    """
    best = None
    for fa in cartesian(spaces["xa"], repeat=len(spaces["ya"])):
        out_a = dict(zip(spaces["ya"], fa))
        total = Fraction(0)
        for yb in spaces["yb"]:
            total += max(
                sum((functional.get((out_a[ya], xb, ya, yb), 0) for ya, b in contexts if b == yb), Fraction(0))
                for xb in spaces["xb"]
            )
        best = total if best is None else max(best, total)
    return best


def check_realizability(request, result) -> str | None:
    feasible, certificate = result
    if certificate.feasible != feasible:
        return "certificate and verdict disagree"
    behavior = _behavior(request.weights, request.spaces)
    if request.kind.endswith("feasible") and not feasible:
        return "strategy mixture declared infeasible"
    if feasible:
        weights = certificate.weights
        if any(w <= 0 for w in weights.values()) or sum(weights.values()) != 1:
            return "mixture weights are not a distribution"
        settings_a, settings_b = request.spaces["ya"], request.spaces["yb"]
        for (ya, yb), row in behavior.items():
            reproduced = {}
            for strategy, w in weights.items():
                outcome = (strategy.outcomes_a[settings_a.index(ya)], strategy.outcomes_b[settings_b.index(yb)])
                reproduced[outcome] = reproduced.get(outcome, 0) + w
            if any(reproduced.get(o, 0) != p for o, p in row.items()):
                return f"mixture does not reproduce the behavior at context {(ya, yb)}"
        return None
    functional = certificate.bell_functional
    achieved = sum(
        (functional.get(o + c, 0) * p for c, row in behavior.items() for o, p in row.items()), Fraction(0)
    )
    bound = classical_bound(functional, list(behavior), request.spaces)
    if achieved != certificate.achieved_value or bound != certificate.classical_bound:
        return f"certificate reports {certificate.achieved_value} > {certificate.classical_bound}, recomputed {achieved} > {bound}"
    if not achieved > bound:
        return f"Bell functional does not separate: {achieved} <= {bound}"
    return None


CHECKS = {
    "determinize-local": check_determinized,
    "check-zoo": check_properties,
    "realizability": check_realizability,
}


def digest(workload: str, result) -> bytes:
    if workload == "determinize-local":
        return (result.message if isinstance(result, Precondition) else result).encode()
    if workload == "check-zoo":
        lines = []
        for r in result:
            w = r.witness
            detail = "" if w is None else f" {w.assignment} {w.lhs} {w.rhs}"
            lines.append(f"{r.property.value}={r.holds}{detail}")
        return ("\n".join(lines) + "\n").encode()
    return b"feasible\n" if result[0] else b"infeasible\n"
