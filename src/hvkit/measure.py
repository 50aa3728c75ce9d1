"""Finite product sample spaces and exact probability measures on them.

A space is a product of named finite coordinates.  An atom is a tuple of
string labels, one per factor, in layout order.  Weight maps are sparse:
atoms that do not appear carry weight zero.  All weights are exact
rationals and must sum to exactly one.

Conditional probabilities are defined only at conditioning atoms of
positive probability; zero-probability atoms are absent from the table
rather than filled in, and "almost surely" throughout the package means
"at every atom of strictly positive weight".

Measures come from two constructors.  ``FiniteMeasure(layout, weights)``
is the validated boundary: the parser and the builders go through it,
and it checks every label, type, sign and duplicate before the sum.
:func:`marginal`, :func:`reorder`, :func:`product`, the fiber product
and the measures of :func:`hvkit.determinize.determinize_local` build
their results through the derived constructor :func:`_derived`, which
checks only that the weights sum to exactly one.  It cannot admit a bad
label: every atom it receives is put together from the labels of atoms
that an already validated measure holds, each kept under the very
coordinate that validated it, or from the labels of a validated
``FiniteSpace``, and every weight is a sum, product or quotient of
positive exact weights.

Sums of weights are taken in integers (:func:`_exact_sum`), one sum per
marginal bin, per conditional cell and row, and per sum check, and each
output ``Fraction`` is built once.  No denominator common to a whole
measure is formed, so each sum's denominator stays as small as the
``Fraction`` sum of the same weights would make it.

Each measure memoizes the results of :func:`marginal` and
:func:`conditional` taken on it, and of any other function wrapped in
:func:`_memoized`, keyed by the function and its coordinate arguments as
given, so a repeated call returns the first result.  A marginal also
holds a weak reference to its root: the measure it was taken on, or
that measure's root when it is itself a marginal.  :func:`reorder`,
:func:`product` and the fiber product give their results no root.  A
marginal q keeps its
root's coordinate order and spaces, so for coordinates inside q,
``marginal(q, B)`` equals ``marginal(root, B)`` and ``conditional(q, T,
G)`` equals ``conditional(root, T, G)``, row for row and in the same
canonical order.  On a miss, q therefore hands back the root's entry
when every coordinate asked for is one of q's own and the root holds
that key; otherwise it computes on itself, the smaller measure, and
stores the result in the root's memo as well, so each kernel of a
model is built once however it is reached.  A coordinate q lacks is
never looked up in the root: the call computes on q and raises the
same ``LayoutError`` as it would with no root.  The reference is weak
because the root's memo holds its marginals, so a strong one would be a
cycle; once the root is freed, q computes on itself.

All types are immutable after construction and all operations are pure,
so values can be shared freely between threads.  The memo is safe under
threads too: an entry is only ever set to a value equal to a fresh
computation, and a call that raises sets none.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product as cartesian
from operator import contains, getitem, itemgetter
from typing import Callable, Iterable, Iterator, Mapping

from .errors import DomainError, LayoutError
from .rationals import ONE, ZERO, _shown

Atom = tuple[str, ...]

# Joins several labels into one, as in the hidden labels the determinizations build.
LABEL_SEPARATOR = "|"
_ESCAPE = "\\"


def _join_labels(labels: tuple[str, ...]) -> str:
    """Join labels with LABEL_SEPARATOR, escaping the escape and the separator in each.

    Distinct label tuples give distinct joined labels.  A label that
    contains neither character is kept as it is, so when the plain join
    holds no escape and one separator fewer than there are labels, it is
    already the result.
    """
    joined = LABEL_SEPARATOR.join(labels)
    if _ESCAPE in joined or joined.count(LABEL_SEPARATOR) >= len(labels):
        joined = LABEL_SEPARATOR.join(
            label.replace(_ESCAPE, _ESCAPE + _ESCAPE).replace(LABEL_SEPARATOR, _ESCAPE + LABEL_SEPARATOR)
            for label in labels
        )
    return joined


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
    """An ordered product of named finite coordinates.

    ``names``, the coordinate names in layout order, is computed once at
    construction; it is not a field, so equality, hash and repr ignore it.
    """

    factors: tuple[FiniteSpace, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        positions = {}
        for i, factor in enumerate(self.factors):
            if factor.name in positions:
                raise LayoutError(f"duplicate coordinate name {factor.name!r}")
            positions[factor.name] = i
        object.__setattr__(self, "names", tuple(positions))
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_indexes", tuple(f._index for f in self.factors))

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

    def validate_atom(self, atom: Atom) -> None:
        if len(atom) == len(self._indexes) and all(map(contains, self._indexes, atom)):
            return
        if len(atom) != len(self.factors):
            raise LayoutError(f"atom {atom!r} has {len(atom)} labels, layout needs {len(self.factors)}")
        for factor, label in zip(self.factors, atom):
            factor.index(label)


@dataclass(frozen=True)
class FiniteMeasure:
    """An exact probability measure on a product layout.

    The weight map is normalized at construction: float weights are
    rejected, zero entries are dropped, and the support is stored in
    canonical atom order.  The memo of marginals and conditionals and
    the weak reference to a marginal's root (see the module docstring)
    are not fields, so equality and repr ignore them.
    """

    layout: ProductLayout
    weights: Mapping[Atom, Fraction]

    def __post_init__(self):
        cleaned: dict[Atom, Fraction] = {}
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
            if raw != 0:
                cleaned[atom] = raw
        _check_sum(cleaned.values())
        object.__setattr__(self, "weights", _canonical(self.layout, cleaned))
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_root", None)

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


def _exact_sum(ratios: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the fractions ``n/d`` given as pairs ``(n, d)``, as an unreduced pair.

    Numerators over the same denominator are added first.  The distinct
    denominators are then combined two at a time, level by level, each
    pair over the lcm of its two denominators, so no term is rescaled to
    the lcm of all of them: with many distinct large denominators the
    cost stays near a few passes over the digits of the result.
    """
    if len(ratios) == 1:
        return ratios[0]
    by_den: dict[int, int] = {}
    for n, d in ratios:
        by_den[d] = by_den.get(d, 0) + n
    terms = [(n, d) for d, n in by_den.items()] or [(0, 1)]
    while len(terms) > 1:
        halved = []
        for (n1, d1), (n2, d2) in zip(terms[::2], terms[1::2]):
            g = math.gcd(d1, d2)
            halved.append((n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2))
        terms = halved + terms[2 * len(halved):]
    return terms[0]


def _check_sum(weights: Iterable[Fraction]) -> None:
    """Raise unless the weights sum to exactly one, checked in integers."""
    total, den = _exact_sum([w.as_integer_ratio() for w in weights])
    if total != den:
        raise DomainError(f"weights must sum to exactly 1, got {_shown(Fraction(total, den))}")


def _canonical_key(factors: tuple[FiniteSpace, ...]) -> Callable[[Atom], object]:
    """Sort key for atoms over ``factors``, from index dicts fetched once."""
    indexes = tuple(f._index for f in factors)
    if len(indexes) == 1:
        (index,) = indexes
        return lambda atom: index[atom[0]]
    return lambda atom: tuple(map(getitem, indexes, atom))


def _canonical(layout: ProductLayout, weights: dict[Atom, Fraction]) -> dict[Atom, Fraction]:
    return {atom: weights[atom] for atom in sorted(weights, key=_canonical_key(layout.factors))}


def _projector(positions: tuple[int, ...]) -> Callable[[Atom], Atom]:
    """The function taking an atom to the tuple of its labels at ``positions``."""
    if len(positions) >= 2:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda atom: (atom[i],)
    return lambda atom: ()


def _derived(layout: ProductLayout, weights: dict[Atom, Fraction], canonical: bool = False) -> FiniteMeasure:
    """The measure with positive weights computed from validated measures.

    Only the sum is checked; see the module docstring for why nothing
    else can be wrong.  ``canonical`` says the producer already emits the
    atoms in canonical order, so they are not sorted again.
    """
    if not canonical:
        weights = _canonical(layout, weights)
    _check_sum(weights.values())
    p = object.__new__(FiniteMeasure)
    object.__setattr__(p, "layout", layout)
    object.__setattr__(p, "weights", weights)
    object.__setattr__(p, "_memo", {})
    object.__setattr__(p, "_root", None)
    return p


def _live_root(p: FiniteMeasure) -> FiniteMeasure | None:
    """The root of a marginal while it is alive, else None."""
    return None if p._root is None else p._root()


def _memoized(fn):
    """Cache ``fn(p, *coords)`` on ``p`` and on its root; a call that raises caches nothing.

    See the module docstring for the order of lookups on a miss.  Every
    measure with the same root that ``fn`` is called on must give the
    same result for the same coordinates, as marginals and conditionals
    on a marginal's own coordinates do.
    """

    @functools.wraps(fn)
    def cached(p: FiniteMeasure, *coords):
        key = (fn.__name__,) + tuple(map(tuple, coords))
        if key not in p._memo:
            root = _live_root(p)
            if root is None or not set(chain.from_iterable(key[1:])).issubset(p.layout.names):
                p._memo[key] = fn(p, *key[1:])
            elif key in root._memo:
                p._memo[key] = root._memo[key]
            else:
                p._memo[key] = root._memo.setdefault(key, fn(p, *key[1:]))
        return p._memo[key]

    return cached


@_memoized
def marginal(p: FiniteMeasure, coords: Iterable[str]) -> FiniteMeasure:
    """Marginal of ``p`` on a nonempty subset of its coordinates."""
    names = p.layout.ordered(coords)
    project = _projector(p.layout.positions(names))
    bins: dict[Atom, list[Fraction]] = {}
    for atom, w in p.weights.items():
        bins.setdefault(project(atom), []).append(w)
    weights = {
        key: ws[0] if len(ws) == 1 else Fraction(*_exact_sum([w.as_integer_ratio() for w in ws]))
        for key, ws in bins.items()
    }
    q = _derived(p.layout.sublayout(names), weights)
    object.__setattr__(q, "_root", weakref.ref(_live_root(p) or p))
    return q


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
    t_project, g_project = _projector(t_pos), _projector(g_pos)

    joint: dict[Atom, dict[Atom, list[tuple[int, int]]]] = {}
    for atom, w in p.weights.items():
        joint.setdefault(g_project(atom), {}).setdefault(t_project(atom), []).append(w.as_integer_ratio())

    t_key = _canonical_key(tuple(p.layout.factors[i] for i in t_pos))
    g_key = _canonical_key(tuple(p.layout.factors[i] for i in g_pos))
    table: dict[Atom, dict[Atom, Fraction]] = {}
    for g in sorted(joint, key=g_key):
        cells = {t: _exact_sum(ratios) for t, ratios in joint[g].items()}
        mass_n, mass_d = _exact_sum(list(cells.values()))
        row = table[g] = {}
        for t in sorted(cells, key=t_key):
            n, d = cells[t]
            row[t] = Fraction(n * mass_d, d * mass_n)
    return CondProb(target_names, given_names, table)


def product(q: FiniteMeasure, r: FiniteMeasure) -> FiniteMeasure:
    """Independent product of two measures on disjoint coordinates."""
    collision = set(q.layout.names) & set(r.layout.names)
    if collision:
        raise LayoutError(f"coordinate names collide: {sorted(collision)}")
    layout = ProductLayout(q.layout.factors + r.layout.factors)
    r_items = [(ra, rw.numerator, rw.denominator) for ra, rw in r.weights.items()]
    weights = {
        qa + ra: Fraction(qw.numerator * rn, qw.denominator * rd)
        for qa, qw in q.weights.items()
        for ra, rn, rd in r_items
    }
    # q's atoms then r's, each in canonical order: the product order is canonical
    return _derived(layout, weights, canonical=True)


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
    project = _projector(p.layout.positions(names))
    layout = ProductLayout(tuple(p.layout.space(n) for n in names))
    return _derived(layout, {project(atom): w for atom, w in p.weights.items()})


def point_mass(space: FiniteSpace, label: str) -> FiniteMeasure:
    """The measure concentrated on a single atom of a one-factor layout."""
    space.index(label)
    return FiniteMeasure(ProductLayout((space,)), {(label,): ONE})
