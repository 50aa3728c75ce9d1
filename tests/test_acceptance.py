"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Counts, tolerances and time budgets are pinned
here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product as cartesian
from pathlib import Path

from hvkit.cli import load_model_file, main, parse_model_text, serialize_model
from hvkit.determinize import determinize_empirical, determinize_local
from hvkit.fiber import fiber_product, is_fiber_product
from hvkit.fixtures import FIXTURE_FILES
from hvkit.measure import (
    FiniteMeasure,
    FiniteSpace,
    ProductLayout,
    conditional,
    marginal,
    measures_equal,
    product,
    reorder,
)
from hvkit.models import equivalent, realizes
from hvkit.properties import (
    HVProperty,
    check_all,
    check_lambda_independence,
    check_locality,
    check_outcome_independence,
    check_parameter_independence,
    check_strong_determinism,
    check_weak_determinism,
)
from hvkit.quantumgen import singlet_model
from hvkit.realizability import chsh_value, local_hvm_exists
from randmodels import (
    rand_empirical,
    rand_hv_mixed,
    rand_local_lambda_indep,
    rand_measure,
)
from test_fiber import fiber_oracle, rand_matched_pair

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert passed, f"criterion {criterion} failed{suffix}"


def test_criterion_1_deterministic_realization_suite():
    """1,000 random empirical models determinize exactly, one hidden atom per positive outcome pair, <10s."""
    rng = random.Random(20240801)
    started = time.monotonic()
    for _ in range(1000):
        e = rand_empirical(rng)
        p = determinize_empirical(e)
        assert realizes(p, e)
        assert check_strong_determinism(p).holds
        # at most the 4 outcome pairs; a pair of mass zero gets no hidden atom
        assert len(p.space("lam")) == len(marginal(e.measure, ("xa", "xb")).weights) <= 4
    elapsed = time.monotonic() - started
    report("1 deterministic-realization x1000", elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_2_local_determinization_suite():
    """500 random local setting-independent models determinize exactly, <30s."""
    rng = random.Random(20240802)
    started = time.monotonic()
    for _ in range(500):
        p = rand_local_lambda_indep(rng, small=True)
        out = determinize_local(p)
        assert equivalent(out, p)
        assert check_strong_determinism(out).holds
        assert check_lambda_independence(out).holds
    elapsed = time.monotonic() - started
    report("2 local-determinization x500", elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_3_property_relationship_suite():
    """2,000 mixed random models: the five logical relationships, zero exceptions.

    Every checker also evaluates its fiber-product characterization
    internally and raises if the verdicts split, so a clean pass doubles
    as the checker-agreement assertion.
    """
    rng = random.Random(20240803)
    for _ in range(2000):
        reports = {r.property: r.holds for r in check_all(rand_hv_mixed(rng))}
        locality = reports[HVProperty.LOCALITY]
        pi = reports[HVProperty.PARAMETER_INDEPENDENCE]
        oi = reports[HVProperty.OUTCOME_INDEPENDENCE]
        weak = reports[HVProperty.WEAK_DETERMINISM]
        strong = reports[HVProperty.STRONG_DETERMINISM]
        assert locality == (pi and oi)
        assert strong == (weak and pi)
        assert strong == (weak and locality)
        assert not strong or weak
        assert not weak or oi
    report("3 property-relationships x2000", True)


def test_criterion_4_venn_fixture_files():
    """The shipped fixture files populate the advertised property regions."""
    singlet = load_model_file(str(FIXTURE_DIR / "rational_singlet_hv.json"))
    assert check_parameter_independence(singlet).holds
    assert not check_outcome_independence(singlet).holds

    signaling = load_model_file(str(FIXTURE_DIR / "signaling_hv.json"))
    assert check_outcome_independence(signaling).holds
    assert not check_parameter_independence(signaling).holds
    assert check_weak_determinism(signaling).holds
    assert not check_strong_determinism(signaling).holds

    coins = load_model_file(str(FIXTURE_DIR / "fair_coin_product_hv.json"))
    assert check_locality(coins).holds
    assert check_lambda_independence(coins).holds
    assert not check_weak_determinism(coins).holds

    determinized = load_model_file(str(FIXTURE_DIR / "pr_box_determinized_hv.json"))
    assert check_strong_determinism(determinized).holds
    assert not check_lambda_independence(determinized).holds
    report("4 venn-fixtures", True)


def test_criterion_5a_pr_box_quantities():
    """PR box: infeasible with bound exactly 2 and value exactly 4, <1s."""
    started = time.monotonic()
    pr = load_model_file(str(FIXTURE_DIR / "pr_box.json"))
    feasible, certificate = local_hvm_exists(pr)
    assert not feasible
    assert certificate.classical_bound == 2
    assert certificate.achieved_value == 4

    # independent enumeration oracle: correlator maximum over all 16
    # deterministic strategies, computed without the library's functional
    best = None
    for fa in cartesian((1, -1), repeat=2):
        for fb in cartesian((1, -1), repeat=2):
            s = fa[0] * fb[0] + fa[0] * fb[1] + fa[1] * fb[0] - fa[1] * fb[1]
            best = s if best is None else max(best, s)
    assert best == 2
    assert chsh_value(pr) == 4
    elapsed = time.monotonic() - started
    report("5a pr-box-quantities", elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_5b_singlet_chsh_value():
    """Singlet at angles (0,90)/(45,135): |CHSH| within 1e-4 of 2*sqrt2, <1s.

    Two sign conventions of the CHSH combination meet here.
    ``chsh_value`` returns E(0,0)+E(0,1)+E(1,0)-E(1,1), with the minus sign
    on context (1,1), so that the PR box reaches 4 (criterion 5a).  The
    angles (0,90)/(45,135) are optimal for the textbook form
    S = E(a,b) - E(a,b') + E(a',b) + E(a',b'), with the minus sign on
    context (0,1) (Clauser, Horne, Shimony & Holt 1969).  With E = -cos(a-b)
    the library's combination is exactly zero at these angles: contexts
    (0,0) and (1,1) share the relative angle 45 degrees and cancel, and
    (0,1)/(1,0) differ by 180 degrees and cancel.  So this test evaluates
    the textbook form from correlators it computes itself, and pins
    ``chsh_value`` to its documented identity on the same model.  The
    library's form reaches 2*sqrt2 once Alice's list is reordered (see
    test_criterion_5b_reordered_angle_assignment).  No local behavior
    reaches |S| > 2.
    """
    started = time.monotonic()
    e = singlet_model((0.0, 90.0), (45.0, 135.0), max_denominator=10**6)

    # independent oracle: correlators straight from the conditional
    # behavior, first outcome atom of each party mapped to +1
    kernel = conditional(e.measure, ("xa", "xb"), ("ya", "yb"))
    xa, xb = e.space("xa").atoms, e.space("xb").atoms
    ya, yb = e.space("ya").atoms, e.space("yb").atoms

    def correlator(i: int, j: int) -> Fraction:
        context = (ya[i], yb[j])
        return sum(
            (
                (1 if oa == xa[0] else -1)
                * (1 if ob == xb[0] else -1)
                * kernel.value(context, (oa, ob))
                for oa in xa
                for ob in xb
            ),
            Fraction(0),
        )

    e00, e01, e10, e11 = (correlator(i, j) for i in (0, 1) for j in (0, 1))
    assert chsh_value(e) == e00 + e01 + e10 - e11
    textbook = e00 - e01 + e10 + e11
    deviation = abs(abs(float(textbook)) - 2.0 * math.sqrt(2.0))
    elapsed = time.monotonic() - started
    report(
        "5b singlet-chsh-value-as-stated",
        deviation < 1e-4 and elapsed < 1.0,
        f"S={float(textbook):+.6f}, |.|-2sqrt2={deviation:.6f}, {elapsed:.2f}s",
    )


def test_criterion_5b_reordered_angle_assignment():
    """The intended magnitude appears once the minus-sign context gets the
    equal-relative-angle pair: Alice's list reordered to (90, 0)."""
    started = time.monotonic()
    e = singlet_model((90.0, 0.0), (45.0, 135.0), max_denominator=10**6)
    deviation = abs(abs(float(chsh_value(e))) - 2.0 * math.sqrt(2.0))
    elapsed = time.monotonic() - started
    report(
        "5b' singlet-chsh-value-reordered",
        deviation < 1e-4 and elapsed < 1.0,
        f"deviation={deviation:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5c_singlet_infeasible():
    """Singlet at angles (0,90)/(45,135) is not locally realizable, <1s."""
    started = time.monotonic()
    e = singlet_model((0.0, 90.0), (45.0, 135.0), max_denominator=10**6)
    feasible, certificate = local_hvm_exists(e)
    assert not feasible
    assert certificate.achieved_value > certificate.classical_bound
    elapsed = time.monotonic() - started
    report("5c singlet-infeasible", elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_6_fiber_product_suite():
    """1,000 random matched pairs: characterization conditions, marginals, uniqueness."""
    rng = random.Random(20240806)
    for index in range(1000):
        q, r = rand_matched_pair(rng, z_size=rng.choice((1, 2, 3)))
        p = fiber_product(q, r, over=("z",))
        # recognition evaluates the three conditional characterizations
        # and raises internally if they ever disagree
        assert is_fiber_product(p, q, r, over=("z",))
        assert measures_equal(reorder(marginal(p, ("x", "z")), ("x", "z")), q)
        assert measures_equal(reorder(marginal(p, ("y", "z")), ("y", "z")), r)
        if index % 4 == 0:
            # independent direct-formula evaluation pins uniqueness
            assert p.weights == fiber_oracle(q, r, ("x",), ("y",), ("z",))
    report("6 fiber-product x1000", True)


def test_criterion_7_conditional_identity_suite():
    """The defining conditional-probability identities, each over >= 500 random instances."""
    rng = random.Random(20240807)

    # defining identity of the conditional, and its marginal invariance
    for _ in range(500):
        p = rand_measure(rng, (2, 2, rng.choice((2, 3))), names=("x", "y", "z"))
        k = conditional(p, ("x",), ("z",))
        z_marg = marginal(p, ("z",))
        xz = marginal(p, ("x", "z"))
        x_atoms = p.layout.space("x").atoms
        target = [a for a in x_atoms if rng.random() < 0.5] or [x_atoms[0]]
        z_atoms = p.layout.space("z").atoms
        given_event = [a for a in z_atoms if rng.random() < 0.5] or [z_atoms[0]]
        integral = sum(
            (
                k.event_value((z,), [(x,) for x in target]) * z_marg.weight((z,))
                for z in given_event
                if k.defined_at((z,))
            ),
            Fraction(0),
        )
        direct = sum((xz.weight((x, z)) for x in target for z in given_event), Fraction(0))
        assert integral == direct

        from_marginal = conditional(xz, ("x",), ("z",))
        assert set(from_marginal.given_atoms()) == set(k.given_atoms())
        for z in k.given_atoms():
            assert from_marginal.row(z) == k.row(z)

    # 0/1 conditionals are stable under conditioning on more information
    for _ in range(500):
        z_atoms = ("0", "1", "2")
        assignment = {z: rng.choice(("0", "1")) for z in z_atoms}
        layout = ProductLayout(
            (FiniteSpace("x", ("0", "1")), FiniteSpace("y", ("0", "1")), FiniteSpace("z", z_atoms))
        )
        raw = {}
        for z in z_atoms:
            for y in ("0", "1"):
                if rng.random() < 0.25:
                    continue
                raw[(assignment[z], y, z)] = rng.randint(1, 6)
        if not raw:
            raw[("0", "0", "0")] = 1
        total = sum(raw.values())
        p = FiniteMeasure(layout, {a: Fraction(n, total) for a, n in raw.items()})
        coarse = conditional(p, ("x",), ("z",))
        fine = conditional(p, ("x",), ("y", "z"))
        for given in coarse.given_atoms():
            for x in ("0", "1"):
                assert coarse.value(given, (x,)) in (0, 1)
        for (y, z) in fine.given_atoms():
            for x in ("0", "1"):
                assert fine.value((y, z), (x,)) == coarse.value((z,), (x,))

    # three readings of independence agree on random common extensions
    for trial in range(500):
        if trial % 2 == 0:
            p = rand_measure(rng, (2, 3), names=("x", "y"))
        else:
            p = product(
                rand_measure(rng, (2,), names=("x",)), rand_measure(rng, (3,), names=("y",))
            )
        q, r = marginal(p, ("x",)), marginal(p, ("y",))
        is_product = measures_equal(p, product(q, r))
        factorizes = all(
            p.weight((x, y)) == q.weight((x,)) * r.weight((y,))
            for x, y in p.layout.atoms()
        )
        k = conditional(p, ("x",), ("y",))
        constant = all(
            k.value(y, (x,)) == q.weight((x,))
            for y in k.given_atoms()
            for x in p.layout.space("x").atoms
        )
        assert is_product == factorizes == constant

    # the settings/hidden independence checker evaluates its three
    # internal readings per call, and the joint/per-party determinism
    # readings likewise; a raise-free run is the agreement assertion
    for _ in range(500):
        m = rand_hv_mixed(rng)
        check_lambda_independence(m)
        check_weak_determinism(m)
    report("7 conditional-identities", True)


def test_criterion_8_cli_round_trips_and_exit_codes(tmp_path, capsys):
    """Round-trips on every fixture; documented exit codes on both pipelines."""
    for name in sorted(FIXTURE_FILES):
        model = load_model_file(str(FIXTURE_DIR / name))
        again = parse_model_text(serialize_model(model))
        assert again.measure.weights == model.measure.weights
        assert again.measure.layout == model.measure.layout

    # PR-box pipeline: nonlocal model -> deterministic realization
    pr_path = str(FIXTURE_DIR / "pr_box.json")
    assert main(["realizability", pr_path]) == 1
    assert main(["chsh", pr_path]) == 0
    out_file = str(tmp_path / "pr_det.json")
    assert main(["determinize", pr_path, "--method", "empirical", "--out", out_file]) == 0
    assert main(["check", out_file, "--property", "strongdet"]) == 0
    assert main(["check", out_file, "--property", "lambda"]) == 1
    assert main(["determinize", str(FIXTURE_DIR / "pr_box_singleton_hv.json"),
                 "--method", "local", "--out", str(tmp_path / "no.json")]) == 1

    # singlet pipeline: generate -> chsh -> realizability
    singlet_path = str(tmp_path / "singlet.json")
    assert main([
        "generate", "singlet", "--angles-a", "0,90", "--angles-b", "45,135",
        "--max-denominator", "1000000", "--out", singlet_path,
    ]) == 0
    assert main(["chsh", singlet_path]) == 0
    assert main(["realizability", singlet_path]) == 1
    assert main(["verify", singlet_path]) == 0

    # malformed input exits 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"spaces": {"xa": ["0"]}, "weights": []}')
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()
    report("8 cli-round-trips-and-exit-codes", True)
