"""Seeded random model generators shared by the unit and acceptance suites.

Everything returns exact rational weights (integer draws divided by
their total), so generated instances are honest members of the exact
world the package lives in.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as cartesian

from hvkit.measure import FiniteMeasure, FiniteSpace, ProductLayout
from hvkit.models import empirical_model, hv_model

BITS = ("0", "1")


def rand_weight_map(rng: random.Random, atoms, max_num=9, zero_chance=0.3):
    raw = [0 if rng.random() < zero_chance else rng.randint(1, max_num) for _ in atoms]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    return {atom: Fraction(n, total) for atom, n in zip(atoms, raw) if n}


def rand_dist(rng: random.Random, labels, zero_chance=0.0, max_num=9):
    raw = [0 if rng.random() < zero_chance else rng.randint(1, max_num) for _ in labels]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    return {label: Fraction(n, total) for label, n in zip(labels, raw)}


def _generic_layout(factor_sizes, names=None) -> ProductLayout:
    if names is None:
        names = tuple(f"c{i}" for i in range(len(factor_sizes)))
    return ProductLayout(tuple(
        FiniteSpace(name, tuple(str(i) for i in range(size)))
        for name, size in zip(names, factor_sizes)
    ))


def rand_measure(rng: random.Random, factor_sizes, names=None) -> FiniteMeasure:
    """A random measure on a generic layout, coordinates named c0, c1, ..."""
    layout = _generic_layout(factor_sizes, names)
    return FiniteMeasure(layout, rand_weight_map(rng, list(layout.atoms())))


# The 24 smallest primes above 10**9.
LARGE_PRIMES = (
    1000000007, 1000000009, 1000000021, 1000000033, 1000000087, 1000000093,
    1000000097, 1000000103, 1000000123, 1000000181, 1000000207, 1000000223,
    1000000241, 1000000271, 1000000289, 1000000297, 1000000321, 1000000349,
    1000000363, 1000000403, 1000000409, 1000000411, 1000000427, 1000000433,
)


def rand_coprime_measure(rng: random.Random, factor_sizes, names=None) -> FiniteMeasure:
    """A random measure whose weights have large, pairwise-coprime denominators.

    Every support atom but the last gets n/p for its own prime p above
    10**9, with n/p at most 1/|support|; the last atom takes the rest,
    over the product of those primes.  Layouts have at most
    len(LARGE_PRIMES) + 1 atoms.
    """
    layout = _generic_layout(factor_sizes, names)
    atoms = list(layout.atoms())
    support = [atom for atom in atoms if rng.random() >= 0.3] or [rng.choice(atoms)]
    weights = {
        atom: Fraction(rng.randint(1, prime // len(support)), prime)
        for atom, prime in zip(support[:-1], rng.sample(LARGE_PRIMES, len(support) - 1))
    }
    weights[support[-1]] = 1 - sum(weights.values())
    return FiniteMeasure(layout, weights)


def rand_empirical(rng: random.Random):
    atoms = list(cartesian(BITS, BITS, BITS, BITS))
    return empirical_model(BITS, BITS, BITS, BITS, rand_weight_map(rng, atoms))


def rand_product_model(rng: random.Random, max_lam=4):
    """Random empirical statistics times an independent hidden coordinate."""
    e = rand_empirical(rng)
    lam_atoms = tuple(f"l{i}" for i in range(rng.randint(1, max_lam)))
    lam_dist = rand_dist(rng, lam_atoms)
    weights = {
        atom + (l,): w * lw
        for atom, w in e.measure.weights.items()
        for l, lw in lam_dist.items()
        if w * lw != 0
    }
    return hv_model(BITS, BITS, BITS, BITS, lam_atoms, weights)


def rand_local_lambda_indep(rng: random.Random, max_lam=4, small=False):
    """A hidden-variable mixture of independent per-party stochastic responses.

    Settings are independent of the hidden coordinate, and given
    (setting, lam) each party samples its outcome from its own response
    distribution, so locality and setting independence hold by
    construction.
    """
    max_num = 4 if small else 9
    lam_atoms = tuple(f"l{i}" for i in range(rng.randint(1, max_lam)))
    lam_dist = rand_dist(rng, lam_atoms, max_num=max_num)
    contexts = list(cartesian(BITS, BITS))
    setting_dist = rand_dist(rng, contexts, zero_chance=0.15, max_num=max_num)
    response_a = {
        (ya, l): rand_dist(rng, BITS, zero_chance=0.25, max_num=max_num)
        for ya in BITS
        for l in lam_atoms
    }
    response_b = {
        (yb, l): rand_dist(rng, BITS, zero_chance=0.25, max_num=max_num)
        for yb in BITS
        for l in lam_atoms
    }
    weights = {}
    for (ya, yb), sw in setting_dist.items():
        for l, lw in lam_dist.items():
            for xa, aw in response_a[(ya, l)].items():
                for xb, bw in response_b[(yb, l)].items():
                    w = sw * lw * aw * bw
                    if w != 0:
                        weights[(xa, xb, ya, yb, l)] = w
    return hv_model(BITS, BITS, BITS, BITS, lam_atoms, weights)


def rand_strategy_mixture(rng: random.Random, max_strategies=5):
    """A setting-independent mixture of deterministic strategy pairs."""
    count = rng.randint(1, max_strategies)
    strategies = [
        (tuple(rng.choice(BITS) for _ in BITS), tuple(rng.choice(BITS) for _ in BITS))
        for _ in range(count)
    ]
    lam_atoms = tuple(f"s{i}" for i in range(count))
    lam_dist = rand_dist(rng, lam_atoms)
    contexts = list(cartesian(BITS, BITS))
    setting_dist = rand_dist(rng, contexts, zero_chance=0.1)
    weights = {}
    for label, (fa, fb) in zip(lam_atoms, strategies):
        for (ya, yb), sw in setting_dist.items():
            w = lam_dist[label] * sw
            if w != 0:
                key = (fa[int(ya)], fb[int(yb)], ya, yb, label)
                weights[key] = weights.get(key, Fraction(0)) + w
    return hv_model(BITS, BITS, BITS, BITS, lam_atoms, weights)


def rand_weak_deterministic(rng: random.Random):
    """Outcomes are deterministic functions of both settings (may signal)."""
    fa = {c: rng.choice(BITS) for c in cartesian(BITS, BITS)}
    fb = {c: rng.choice(BITS) for c in cartesian(BITS, BITS)}
    contexts = list(cartesian(BITS, BITS))
    setting_dist = rand_dist(rng, contexts, zero_chance=0.1)
    weights = {}
    for (ya, yb), sw in setting_dist.items():
        if sw != 0:
            weights[(fa[(ya, yb)], fb[(ya, yb)], ya, yb, "l0")] = sw
    return hv_model(BITS, BITS, BITS, BITS, ("l0",), weights)


def rand_strong_deterministic(rng: random.Random, max_lam=3):
    """Each party's outcome is a function of its own setting and lam;
    the hidden coordinate may correlate with the settings."""
    lam_atoms = tuple(f"l{i}" for i in range(rng.randint(1, max_lam)))
    fa = {(ya, l): rng.choice(BITS) for ya in BITS for l in lam_atoms}
    fb = {(yb, l): rng.choice(BITS) for yb in BITS for l in lam_atoms}
    r_atoms = list(cartesian(BITS, BITS, lam_atoms))
    r_dist = rand_weight_map(rng, r_atoms, zero_chance=0.2)
    weights = {}
    for (ya, yb, l), w in r_dist.items():
        weights[(fa[(ya, l)], fb[(yb, l)], ya, yb, l)] = w
    return hv_model(BITS, BITS, BITS, BITS, lam_atoms, weights)


def rand_fully_random(rng: random.Random, max_lam=3):
    lam_atoms = tuple(f"l{i}" for i in range(rng.randint(1, max_lam)))
    atoms = list(cartesian(BITS, BITS, BITS, BITS, lam_atoms))
    return hv_model(BITS, BITS, BITS, BITS, lam_atoms, rand_weight_map(rng, atoms, zero_chance=0.5))


ZOO = (
    rand_product_model,
    rand_local_lambda_indep,
    rand_strategy_mixture,
    rand_weak_deterministic,
    rand_strong_deterministic,
    rand_fully_random,
)


def rand_hv_mixed(rng: random.Random):
    """One model from the zoo of construction styles, chosen at random."""
    return rng.choice(ZOO)(rng)
