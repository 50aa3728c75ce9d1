"""Seeded input generators for the three benchmark workloads.

The benchmark owns its inputs: nothing here imports hvkit or the test
helpers, so an edit to the program or its tests cannot change what is
measured.  Every model is produced as the JSON text the CLI would read
from a file, together with its exact weight map, which the output
checks use as ground truth.

Inputs come in blocks.  Block ``b`` of seed ``s`` is drawn from its own
``random.Random`` stream, so the sequence of inputs is fixed by the seed
alone.  Each block holds the same mix of input classes in a shuffled
order, so a run that completes more blocks sees more inputs but never a
different mix.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product as cartesian

BITS = ("0", "1")
COORDS = ("xa", "xb", "ya", "yb", "lam")

# Zoo construction styles of the property-relationship suite.
ZOO_STYLES = ("product", "local", "mixture", "weakdet", "strongdet", "random")

# Realizability mix per block: (settings per party, feasible, count).  Half
# feasible, half not.  2x2 is the majority, so the median request is a
# feasible 2x2, and p90 falls among the 3x3 requests.  Feasible models are
# mostly 2x2: a feasible 3x3 mixture costs 50 to 350 ms and a feasible 4x4
# one 0.2 to 8 s, depending on which strategies it mixes, while singlet
# models of one size cost within 1.5x of each other.  Per-input spread that
# wide would move p90 and ops_per_s from seed to seed by more than a run of
# a few hundred requests can average out.
REALIZABILITY_MIX = ((2, True, 9), (2, False, 4), (3, True, 1), (3, False, 5), (4, False, 1))
SINGLET_DENOMINATOR_RANGE = (500, 2000)


@dataclass(frozen=True)
class Request:
    """One model file's text plus what the checks need to know about it."""

    kind: str  # input class: "lam<n>", a zoo style, "<k>x<k>-feasible" or "<k>x<k>-singlet"
    text: str
    weights: dict  # atom tuple (xa, xb, ya, yb[, lam]) -> Fraction
    spaces: dict  # coordinate name -> tuple of labels


def block_rng(seed: int, workload: str, block: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{block}")


def model_text(spaces: dict, weights: dict) -> str:
    coords = [c for c in COORDS if c in spaces]
    document = {
        "spaces": {c: list(spaces[c]) for c in coords},
        "weights": [
            {"atom": dict(zip(coords, atom)), "p": f"{w.numerator}/{w.denominator}"}
            for atom, w in weights.items()
        ],
    }
    return json.dumps(document)


def _request(kind: str, spaces: dict, weights: dict) -> Request:
    weights = {atom: w for atom, w in weights.items() if w != 0}
    return Request(kind, model_text(spaces, weights), weights, spaces)


def _dist(rng, labels, zero_chance=0.0, max_num=9) -> dict:
    """Random exact distribution: integer draws over their total."""
    raw = [0 if rng.random() < zero_chance else rng.randint(1, max_num) for _ in labels]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    return {label: Fraction(n, total) for label, n in zip(labels, raw)}


def _lam_labels(rng, max_lam: int, prefix: str = "l") -> tuple:
    return tuple(f"{prefix}{i}" for i in range(rng.randint(1, max_lam)))


def _hv_spaces(lam) -> dict:
    return {"xa": BITS, "xb": BITS, "ya": BITS, "yb": BITS, "lam": tuple(lam)}


def _local_weights(rng, lam, max_num) -> dict:
    """Mixture over lam of independent per-party responses; settings independent of lam."""
    lam_dist = _dist(rng, lam, max_num=max_num)
    settings = _dist(rng, list(cartesian(BITS, BITS)), zero_chance=0.15, max_num=max_num)
    resp_a = {(y, l): _dist(rng, BITS, 0.25, max_num) for y in BITS for l in lam}
    resp_b = {(y, l): _dist(rng, BITS, 0.25, max_num) for y in BITS for l in lam}
    weights = {}
    for (ya, yb), sw in settings.items():
        for l, lw in lam_dist.items():
            for xa, aw in resp_a[(ya, l)].items():
                for xb, bw in resp_b[(yb, l)].items():
                    weights[(xa, xb, ya, yb, l)] = sw * lw * aw * bw
    return weights


def local_model(rng, lam_count: int) -> Request:
    """Local, lam-independent model with small weights (determinization input)."""
    lam = tuple(f"l{i}" for i in range(lam_count))
    return _request(f"lam{lam_count}", _hv_spaces(lam), _local_weights(rng, lam, max_num=4))


def zoo_model(rng, style: str) -> Request:
    if style == "product":
        observed = _dist(rng, list(cartesian(BITS, BITS, BITS, BITS)), zero_chance=0.3)
        lam = _lam_labels(rng, 4)
        lam_dist = _dist(rng, lam)
        weights = {o + (l,): ow * lw for o, ow in observed.items() for l, lw in lam_dist.items()}
    elif style == "local":
        lam = _lam_labels(rng, 4)
        weights = _local_weights(rng, lam, max_num=9)
    elif style == "mixture":
        lam = _lam_labels(rng, 5, prefix="s")
        strategies = {l: (rng.choice(BITS), rng.choice(BITS), rng.choice(BITS), rng.choice(BITS)) for l in lam}
        lam_dist = _dist(rng, lam)
        settings = _dist(rng, list(cartesian(BITS, BITS)), zero_chance=0.1)
        weights = {}
        for l, (a0, a1, b0, b1) in strategies.items():
            for (ya, yb), sw in settings.items():
                key = ((a0, a1)[int(ya)], (b0, b1)[int(yb)], ya, yb, l)
                weights[key] = weights.get(key, Fraction(0)) + lam_dist[l] * sw
    elif style == "weakdet":
        lam = ("l0",)
        settings = _dist(rng, list(cartesian(BITS, BITS)), zero_chance=0.1)
        weights = {
            (rng.choice(BITS), rng.choice(BITS), ya, yb, "l0"): sw
            for (ya, yb), sw in settings.items()
        }
    elif style == "strongdet":
        lam = _lam_labels(rng, 3)
        fa = {(y, l): rng.choice(BITS) for y in BITS for l in lam}
        fb = {(y, l): rng.choice(BITS) for y in BITS for l in lam}
        r = _dist(rng, list(cartesian(BITS, BITS, lam)), zero_chance=0.2)
        weights = {(fa[(ya, l)], fb[(yb, l)], ya, yb, l): w for (ya, yb, l), w in r.items()}
    elif style == "random":
        lam = _lam_labels(rng, 3)
        weights = _dist(rng, list(cartesian(BITS, BITS, BITS, BITS, lam)), zero_chance=0.5)
    else:
        raise ValueError(f"unknown zoo style {style!r}")
    return _request(style, _hv_spaces(lam), weights)


def _settings_spaces(k: int) -> dict:
    settings = tuple(str(i) for i in range(k))
    return {"xa": BITS, "xb": BITS, "ya": settings, "yb": settings}


def strategy_mixture(rng, k: int) -> Request:
    """Behavior of a random mixture of k deterministic strategies: always local."""
    settings = _settings_spaces(k)["ya"]
    strategies = [
        (tuple(rng.choice(BITS) for _ in settings), tuple(rng.choice(BITS) for _ in settings))
        for _ in range(k)
    ]
    mix = _dist(rng, range(k))
    context_mass = _dist(rng, list(cartesian(settings, settings)), max_num=4)
    weights = {}
    for s, (fa, fb) in enumerate(strategies):
        for (ya, yb), cw in context_mass.items():
            key = (fa[int(ya)], fb[int(yb)], ya, yb)
            weights[key] = weights.get(key, Fraction(0)) + mix[s] * cw
    return _request(f"{k}x{k}-feasible", _settings_spaces(k), weights)


def singlet_chained(rng, k: int) -> Request:
    """Singlet statistics at chained-Bell angles: nonlocal for every k.

    Alice measures at i*step and Bob at (j + 1/2)*step, step = 180/k
    degrees.  Each context's outcome distribution is
    (1 - ab cos(angle difference)) / 4, made rational with a random
    denominator bound and renormalized; contexts get random masses.
    Inputs differ in the bound and the masses, not in the angles:
    jittered angles change the simplex's pivot count, and with it the
    cost of a 4x4 request, by up to 2.5x.
    """
    step = 180.0 / k
    max_denominator = rng.randint(*SINGLET_DENOMINATOR_RANGE)
    spaces = _settings_spaces(k)
    settings = spaces["ya"]
    context_mass = _dist(rng, list(cartesian(settings, settings)), max_num=4)
    weights = {}
    for (ya, yb), mass in context_mass.items():
        cos_delta = math.cos(math.radians((int(ya) - int(yb) - 0.5) * step))
        block = {
            (xa, xb): Fraction((1.0 - (1 if xa == xb else -1) * cos_delta) / 4.0).limit_denominator(max_denominator)
            for xa, xb in cartesian(BITS, BITS)
        }
        total = sum(block.values())
        for (xa, xb), p in block.items():
            weights[(xa, xb, ya, yb)] = mass * p / total
    return _request(f"{k}x{k}-singlet", spaces, weights)


def _block_plan(workload: str) -> list:
    """One generator per input of a block, before shuffling."""
    if workload == "determinize-local":
        return [partial(local_model, lam_count=lam) for lam in (1, 2, 3, 4) for _ in range(4)]
    if workload == "check-zoo":
        return [partial(zoo_model, style=style) for style in ZOO_STYLES for _ in range(6)]
    if workload == "realizability":
        return [
            partial(strategy_mixture if feasible else singlet_chained, k=k)
            for k, feasible, count in REALIZABILITY_MIX
            for _ in range(count)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def blocks(workload: str, seed: int):
    """Blocks of inputs, in order, fixed by the seed.

    An input that repeats an earlier one of the run, or the warm-up
    input, is drawn again, so every input of a run is distinct.  Only
    8-byte digests of earlier inputs are kept.
    """
    seen = {_digest(warmup(workload, seed).text)}
    plan = _block_plan(workload)
    for index in itertools.count():
        rng = block_rng(seed, workload, index)
        requests = []
        for make in plan:
            request = make(rng)
            while _digest(request.text) in seen:
                request = make(rng)
            seen.add(_digest(request.text))
            requests.append(request)
        rng.shuffle(requests)
        yield requests


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=8).digest()


# Warm-up input class per workload: a cheap, typical request, fixed so that
# set-up time does not depend on which class a seed happens to draw.
WARMUP = {
    "determinize-local": lambda rng: local_model(rng, 2),
    "check-zoo": lambda rng: zoo_model(rng, "local"),
    "realizability": lambda rng: singlet_chained(rng, 2),
}


def warmup(workload: str, seed: int) -> Request:
    """One extra input, drawn apart from every block, for the warm-up request."""
    return WARMUP[workload](block_rng(seed, workload, -1))
