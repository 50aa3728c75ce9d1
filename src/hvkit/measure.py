"""Finite product sample spaces and exact probability measures on them.

A space is a product of named finite coordinates.  An atom is a tuple of
string labels, one per factor, in layout order.  Weight maps are sparse:
atoms that do not appear carry weight zero.  All weights are exact
rationals and must sum to exactly one.

Conditional probabilities are defined only at conditioning atoms of
positive probability; zero-probability atoms are absent from the table
rather than filled in, and "almost surely" throughout the package means
"at every atom of strictly positive weight".

All types are immutable after construction and all operations are pure,
so values can be shared freely between threads.  Each measure memoizes
the results of :func:`marginal` and :func:`conditional` taken on it,
keyed by the function and its coordinate arguments as given, so a
repeated call returns the first result.  That is safe under threads:
an entry is only ever set to a value equal to a fresh computation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from typing import Iterable, Iterator, Mapping

from .errors import DomainError, LayoutError
from .rationals import ONE, ZERO, _shown

Atom = tuple[str, ...]

# Joins the labels of the coordinates fuse_factors merges into one.
LABEL_SEPARATOR = "|"


@dataclass(frozen=True)
class FiniteSpace:
    """A named coordinate with an ordered, duplicate-free set of atom labels.

    The label order is canonical: it fixes iteration order, witness
    selection and serialization everywhere downstream.
    """

    name: str
    atoms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.name:
            raise LayoutError("coordinate name must be nonempty")
        if not self.atoms:
            raise LayoutError(f"coordinate {self.name!r} has no atoms")
        index = {}
        for i, label in enumerate(self.atoms):
            if not isinstance(label, str) or not label:
                raise LayoutError(f"atom labels must be nonempty strings, got {label!r}")
            if label in index:
                raise LayoutError(f"duplicate atom {label!r} in coordinate {self.name!r}")
            index[label] = i
        object.__setattr__(self, "_index", index)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise LayoutError(f"unknown atom {label!r} for coordinate {self.name!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class ProductLayout:
    """An ordered product of named finite coordinates."""

    factors: tuple[FiniteSpace, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        positions = {}
        for i, factor in enumerate(self.factors):
            if factor.name in positions:
                raise LayoutError(f"duplicate coordinate name {factor.name!r}")
            positions[factor.name] = i
        object.__setattr__(self, "_positions", positions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors)

    def space(self, name: str) -> FiniteSpace:
        return self.factors[self.position(name)]

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise LayoutError(f"unknown coordinate {name!r}; layout has {self.names}") from None

    def ordered(self, names: Iterable[str]) -> tuple[str, ...]:
        """Validate a coordinate subset and return it in layout order."""
        requested = set(names)
        if not requested:
            raise LayoutError("at least one coordinate is required")
        for name in requested:
            self.position(name)
        return tuple(n for n in self.names if n in requested)

    def positions(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.position(n) for n in names)

    def sublayout(self, names: Iterable[str]) -> "ProductLayout":
        ordered = self.ordered(names)
        return ProductLayout(tuple(self.space(n) for n in ordered))

    def atoms(self) -> Iterator[Atom]:
        """All atoms of the full product, in canonical order."""
        return cartesian(*(f.atoms for f in self.factors))

    def sort_key(self, atom: Atom) -> tuple[int, ...]:
        return tuple(f.index(label) for f, label in zip(self.factors, atom))

    def validate_atom(self, atom: Atom) -> None:
        if len(atom) != len(self.factors):
            raise LayoutError(f"atom {atom!r} has {len(atom)} labels, layout needs {len(self.factors)}")
        for factor, label in zip(self.factors, atom):
            factor.index(label)


@dataclass(frozen=True)
class FiniteMeasure:
    """An exact probability measure on a product layout.

    The weight map is normalized at construction: float weights are
    rejected, zero entries are dropped, and the support is stored in
    canonical atom order.  The memo of marginals and conditionals is not
    a field, so equality and repr ignore it.
    """

    layout: ProductLayout
    weights: Mapping[Atom, Fraction]

    def __post_init__(self):
        cleaned: dict[Atom, Fraction] = {}
        total = ZERO
        for atom, raw in self.weights.items():
            atom = tuple(atom)
            self.layout.validate_atom(atom)
            if isinstance(raw, int):
                raw = Fraction(raw)
            if not isinstance(raw, Fraction):
                raise DomainError(f"weights must be exact rationals, got {type(raw).__name__} for {atom!r}")
            if raw < 0:
                raise DomainError(f"negative weight {_shown(raw)} at atom {atom!r}")
            if atom in cleaned:
                raise DomainError(f"duplicate atom {atom!r} in weight map")
            total += raw
            if raw != 0:
                cleaned[atom] = raw
        if total != ONE:
            raise DomainError(f"weights must sum to exactly 1, got {_shown(total)}")
        ordered = dict(sorted(cleaned.items(), key=lambda kv: self.layout.sort_key(kv[0])))
        object.__setattr__(self, "weights", ordered)
        object.__setattr__(self, "_memo", {})

    def weight(self, atom: Atom) -> Fraction:
        return self.weights.get(tuple(atom), ZERO)

    def support(self) -> Iterator[Atom]:
        """Positive-weight atoms in canonical order."""
        return iter(self.weights)


@dataclass(frozen=True)
class CondProb:
    """Conditional probabilities of target atoms given conditioning atoms.

    ``table`` maps each positive-probability conditioning atom to the
    distribution it induces over target atoms (only positive entries are
    stored).  Rows sum to exactly one.  Asking for a zero-probability
    conditioning atom raises; conditionals there are undefined, never
    silently zero.
    """

    target_coords: tuple[str, ...]
    given_coords: tuple[str, ...]
    table: Mapping[Atom, Mapping[Atom, Fraction]]

    def given_atoms(self) -> Iterator[Atom]:
        return iter(self.table)

    def defined_at(self, given_atom: Atom) -> bool:
        return tuple(given_atom) in self.table

    def row(self, given_atom: Atom) -> Mapping[Atom, Fraction]:
        try:
            return self.table[tuple(given_atom)]
        except KeyError:
            raise KeyError(
                f"conditional undefined at zero-probability atom {given_atom!r} of {self.given_coords}"
            ) from None

    def value(self, given_atom: Atom, target_atom: Atom) -> Fraction:
        return self.row(given_atom).get(tuple(target_atom), ZERO)

    def event_value(self, given_atom: Atom, target_atoms: Iterable[Atom]) -> Fraction:
        row = self.row(given_atom)
        return sum((row.get(a, ZERO) for a in set(map(tuple, target_atoms))), ZERO)


def _memoized(fn):
    """Cache ``fn(p, *coords)`` on ``p``; a call that raises caches nothing."""

    @functools.wraps(fn)
    def cached(p: FiniteMeasure, *coords):
        key = (fn.__name__,) + tuple(map(tuple, coords))
        if key not in p._memo:
            p._memo[key] = fn(p, *key[1:])
        return p._memo[key]

    return cached


@_memoized
def marginal(p: FiniteMeasure, coords: Iterable[str]) -> FiniteMeasure:
    """Marginal of ``p`` on a nonempty subset of its coordinates."""
    names = p.layout.ordered(coords)
    positions = p.layout.positions(names)
    acc: dict[Atom, Fraction] = {}
    for atom, w in p.weights.items():
        key = tuple(atom[i] for i in positions)
        acc[key] = acc.get(key, ZERO) + w
    return FiniteMeasure(p.layout.sublayout(names), acc)


@_memoized
def conditional(p: FiniteMeasure, target: Iterable[str], given: Iterable[str]) -> CondProb:
    """Conditional distribution of the target coordinates given the others.

    Returns the full kernel: one row per positive-probability conditioning
    atom, each row an exact distribution over target atoms.  Probabilities
    of target events follow by summing singletons.
    """
    target_names = p.layout.ordered(target)
    given_names = p.layout.ordered(given)
    overlap = set(target_names) & set(given_names)
    if overlap:
        raise LayoutError(f"target and given coordinates overlap: {sorted(overlap)}")
    t_pos = p.layout.positions(target_names)
    g_pos = p.layout.positions(given_names)

    given_mass: dict[Atom, Fraction] = {}
    joint: dict[Atom, dict[Atom, Fraction]] = {}
    for atom, w in p.weights.items():
        g = tuple(atom[i] for i in g_pos)
        t = tuple(atom[i] for i in t_pos)
        given_mass[g] = given_mass.get(g, ZERO) + w
        row = joint.setdefault(g, {})
        row[t] = row.get(t, ZERO) + w

    g_layout = p.layout.sublayout(given_names)
    t_layout = p.layout.sublayout(target_names)
    table: dict[Atom, dict[Atom, Fraction]] = {}
    for g in sorted(given_mass, key=g_layout.sort_key):
        mass = given_mass[g]
        row = joint[g]
        table[g] = {
            t: row[t] / mass for t in sorted(row, key=t_layout.sort_key)
        }
    return CondProb(target_names, given_names, table)


def product(q: FiniteMeasure, r: FiniteMeasure) -> FiniteMeasure:
    """Independent product of two measures on disjoint coordinates."""
    collision = set(q.layout.names) & set(r.layout.names)
    if collision:
        raise LayoutError(f"coordinate names collide: {sorted(collision)}")
    layout = ProductLayout(q.layout.factors + r.layout.factors)
    weights = {
        qa + ra: qw * rw
        for qa, qw in q.weights.items()
        for ra, rw in r.weights.items()
    }
    return FiniteMeasure(layout, weights)


def measures_equal(p: FiniteMeasure, q: FiniteMeasure) -> bool:
    """Exact atomwise equality of two measures on the same layout."""
    if p.layout != q.layout:
        raise LayoutError(
            f"layout mismatch: {p.layout.names} with atom sets "
            f"{[f.atoms for f in p.layout.factors]} vs {q.layout.names} with "
            f"{[f.atoms for f in q.layout.factors]}"
        )
    return p.weights == q.weights


def reorder(p: FiniteMeasure, names: Iterable[str]) -> FiniteMeasure:
    """The same measure with its factors permuted into the given order."""
    names = tuple(names)
    if sorted(names) != sorted(p.layout.names):
        raise LayoutError(f"reorder needs a permutation of {p.layout.names}, got {names}")
    if names == p.layout.names:
        return p
    positions = p.layout.positions(names)
    layout = ProductLayout(tuple(p.layout.space(n) for n in names))
    weights = {tuple(atom[i] for i in positions): w for atom, w in p.weights.items()}
    return FiniteMeasure(layout, weights)


def fuse_factors(p: FiniteMeasure, coords: Iterable[str], new_name: str) -> FiniteMeasure:
    """Merge several coordinates into one whose labels join theirs with LABEL_SEPARATOR.

    The fused coordinate's atom list is the full cartesian product of the
    merged factors in canonical order, so zero-weight combinations remain
    part of the space.  On a finite power-set space this is a pure
    relabelling: every event is still measurable.
    """
    fused = p.layout.ordered(coords)
    fused_pos = p.layout.positions(fused)
    keep = [n for n in p.layout.names if n not in set(fused)]
    if new_name in keep:
        raise LayoutError(f"fused name {new_name!r} collides with remaining coordinate")
    keep_pos = p.layout.positions(keep)

    labels = tuple(
        LABEL_SEPARATOR.join(combo)
        for combo in cartesian(*(p.layout.space(n).atoms for n in fused))
    )
    layout = ProductLayout(
        tuple(p.layout.space(n) for n in keep) + (FiniteSpace(new_name, labels),)
    )
    weights = {}
    for atom, w in p.weights.items():
        fused_label = LABEL_SEPARATOR.join(atom[i] for i in fused_pos)
        key = tuple(atom[i] for i in keep_pos) + (fused_label,)
        weights[key] = w
    return FiniteMeasure(layout, weights)


def point_mass(space: FiniteSpace, label: str) -> FiniteMeasure:
    """The measure concentrated on a single atom of a one-factor layout."""
    space.index(label)
    return FiniteMeasure(ProductLayout((space,)), {(label,): ONE})
