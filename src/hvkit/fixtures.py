"""Hand-constructed reference models used by tests, docs and the shipped
fixture files.

Each builder returns a model whose property profile is known by
construction; together they populate the distinguishable regions of the
property diagram (signaling but outcome-independent, deterministic but
setting-correlated, and so on).
"""

from __future__ import annotations

from fractions import Fraction

from .determinize import determinize_empirical, trivial_hv
from .models import EmpiricalModel, HVModel, empirical_model, hv_model
from .quantumgen import singlet_model

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
EIGHTH = Fraction(1, 8)


def pr_box() -> EmpiricalModel:
    """Uniform settings; outcomes agree except when both settings are 1.

    The standard no-signaling behavior beyond every local model: the
    outcome parity equals the product of the settings, with uniform
    marginals everywhere.
    """
    weights = {}
    for ya in ("0", "1"):
        for yb in ("0", "1"):
            for xa in ("0", "1"):
                for xb in ("0", "1"):
                    if (int(xa) + int(xb)) % 2 == int(ya) * int(yb):
                        weights[(xa, xb, ya, yb)] = EIGHTH
    return empirical_model("01", "01", "01", "01", weights)


def pr_box_hv() -> HVModel:
    """PR box with a one-point hidden space."""
    return trivial_hv(pr_box())


def pr_box_determinized() -> HVModel:
    """Deterministic realization of the PR box; hidden variable tracks the settings."""
    return determinize_empirical(pr_box())


def signaling_model() -> HVModel:
    """Alice's outcome copies Bob's setting; Bob outputs a constant.

    Deterministic given both settings (weak determinism holds, and with
    it outcome independence), but Alice's conditional given only her own
    setting is strictly interior, so parameter independence and strong
    determinism fail.
    """
    weights = {}
    for ya in ("0", "1"):
        for yb in ("0", "1"):
            weights[(yb, "0", ya, yb, "l0")] = QUARTER
    return hv_model("01", "01", "01", "01", ("l0",), weights)


def fair_coin_product_model() -> HVModel:
    """Both parties flip independent fair coins whatever the settings.

    Local and setting-independent, but nothing is determined: every
    outcome conditional sits at one half.
    """
    weights = {}
    for xa in ("0", "1"):
        for xb in ("0", "1"):
            for ya in ("0", "1"):
                for yb in ("0", "1"):
                    weights[(xa, xb, ya, yb, "l0")] = Fraction(1, 16)
    return hv_model("01", "01", "01", "01", ("l0",), weights)


def rational_singlet_hv() -> HVModel:
    """Singlet statistics at right-angle settings, one-point hidden space.

    At angles 0 and 90 degrees every joint probability is 0, 1/4 or 1/2,
    so the rationalization is exact.  The behavior is no-signaling
    (parameter independence holds) yet the outcomes stay correlated given
    the context, so outcome independence fails.
    """
    return trivial_hv(singlet_model((0.0, 90.0), (0.0, 90.0), max_denominator=4))


def singlet_chsh_model(max_denominator: int = 10**6) -> EmpiricalModel:
    """Singlet at the standard correlator-test angles, rationalized.

    The angles are optimal for the textbook form
    E(a,b) - E(a,b') + E(a',b) + E(a',b'), which gives 2*sqrt2 in magnitude
    here.  ``chsh_value`` puts its minus sign on context (1,1) instead, and
    gives exactly 0 on this model; see its docstring.
    """
    return singlet_model((0.0, 90.0), (45.0, 135.0), max_denominator=max_denominator)


def lambda_copies_setting_model() -> HVModel:
    """The hidden variable duplicates Alice's setting; everything else is constant."""
    weights = {
        ("0", "0", "0", "0", "0"): HALF,
        ("0", "0", "1", "0", "1"): HALF,
    }
    return hv_model("01", "01", "01", ("0",), ("0", "1"), weights)


def correlated_coins_model() -> HVModel:
    """Perfectly correlated fair coins, independent of the settings."""
    weights = {}
    for x in ("0", "1"):
        weights[(x, x, "0", "0", "l0")] = HALF
    return hv_model("01", "01", ("0",), ("0",), ("l0",), weights)


FIXTURE_FILES = {
    "pr_box.json": pr_box,
    "pr_box_singleton_hv.json": pr_box_hv,
    "pr_box_determinized_hv.json": pr_box_determinized,
    "rational_singlet_hv.json": rational_singlet_hv,
    "signaling_hv.json": signaling_model,
    "fair_coin_product_hv.json": fair_coin_product_model,
    "singlet_chsh.json": singlet_chsh_model,
}


def write_fixture_files(directory: str) -> list[str]:
    """Regenerate the shipped fixture files; returns the paths written."""
    import os

    from .cli import save_model_file

    written = []
    for name, builder in FIXTURE_FILES.items():
        path = os.path.join(directory, name)
        save_model_file(builder(), path)
        written.append(path)
    return written


if __name__ == "__main__":
    import sys

    for path in write_fixture_files(sys.argv[1] if len(sys.argv) > 1 else "fixtures"):
        print(path)
