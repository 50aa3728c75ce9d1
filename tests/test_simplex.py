"""The integer-preserving phase-one simplex against a rational-tableau oracle."""

import random
import time
from fractions import Fraction

import pytest

import hvkit.realizability
import hvkit.simplex
from hvkit.errors import DomainError, InternalCheckError
from hvkit.fixtures import pr_box, singlet_chsh_model
from hvkit.measure import conditional
from hvkit.quantumgen import singlet_model
from hvkit.realizability import enumerate_strategies, local_hvm_exists
from hvkit.simplex import FeasibilityResult, solve_feasibility

ONE = Fraction(1)
ZERO = Fraction(0)


def oracle_solve(columns, rhs):
    """Dense rational phase-one simplex with Bland's rule.

    The solver this package used before its pivots became
    integer-preserving, kept as a reference: every entry is a Fraction
    and each pivot divides the pivot row by the pivot element.  Returns
    (solution, dual, pivots).
    """
    columns = [[Fraction(v) for v in col] for col in columns]
    m = len(rhs)
    n = len(columns)
    rows = []
    for i in range(m):
        row = [columns[j][i] for j in range(n)]
        row += [ONE if k == i else ZERO for k in range(m)]
        row.append(rhs[i])
        rows.append(row)
    basis = [n + i for i in range(m)]
    width = n + m + 1
    cost = [ZERO] * width
    for row in rows:
        for j in range(width):
            cost[j] -= row[j]
    for k in range(m):
        cost[n + k] = ZERO

    def pivot(pr, pc):
        pivot_value = rows[pr][pc]
        rows[pr] = [v / pivot_value for v in rows[pr]]
        for i in range(m):
            if i != pr and rows[i][pc] != 0:
                factor = rows[i][pc]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[pr])]
        if cost[pc] != 0:
            factor = cost[pc]
            for j in range(width):
                cost[j] -= factor * rows[pr][j]
        basis[pr] = pc

    pivots = 0
    while True:
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        pivot(leaving, entering)
        pivots += 1

    if -cost[-1] == 0:
        solution = [ZERO] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = rows[i][-1]
        return tuple(solution), None, pivots
    return None, tuple(ONE - cost[n + k] for k in range(m)), pivots


def random_system(rng, m, n, feasible, repeats=0, zero_rows=0):
    """A 0/1 system; feasible ones have b = A x for a random rational x >= 0."""
    columns = [[int(rng.random() < 0.4) for _ in range(m)] for _ in range(n)]
    columns += [list(rng.choice(columns)) for _ in range(repeats)]
    rng.shuffle(columns)
    zeros = rng.sample(range(m), zero_rows)
    if feasible:
        x = [Fraction(rng.randint(1, 4), rng.randint(1, 6)) if rng.random() < 0.5 else ZERO for _ in columns]
        for i in zeros:
            # no column that x uses touches a zero row
            for column, weight in zip(columns, x):
                if weight:
                    column[i] = 0
        rhs = [sum((column[i] * weight for column, weight in zip(columns, x)), ZERO) for i in range(m)]
    else:
        rhs = [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(m)]
        for i in zeros:
            rhs[i] = ZERO
    return columns, rhs


def assert_matches_oracle(columns, rhs):
    result = solve_feasibility(columns, rhs)
    solution, dual, pivots = oracle_solve(columns, rhs)
    assert result.solution == solution
    assert result.dual == dual
    assert result.pivots == pivots
    return result


class TestAgainstOracle:
    def test_random_systems(self):
        rng = random.Random(11)
        verdicts = {True: 0, False: 0}
        for _ in range(120):
            m = rng.randint(1, 7)
            n = rng.randint(1, 12)
            result = assert_matches_oracle(*random_system(rng, m, n, rng.random() < 0.5))
            verdicts[result.feasible] += 1
        assert min(verdicts.values()) >= 20

    def test_degenerate_systems(self):
        # repeated columns and zero right-hand sides force degenerate pivots,
        # where Bland's tie-break decides the leaving row
        rng = random.Random(12)
        verdicts = {True: 0, False: 0}
        for _ in range(120):
            m = rng.randint(2, 7)
            n = rng.randint(2, 10)
            system = random_system(
                rng, m, n, rng.random() < 0.5, repeats=rng.randint(1, 4), zero_rows=rng.randint(1, m - 1)
            )
            result = assert_matches_oracle(*system)
            verdicts[result.feasible] += 1
        assert min(verdicts.values()) >= 20

    def test_general_integer_columns(self):
        rng = random.Random(13)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 8)
            columns = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
            rhs = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(m)]
            assert_matches_oracle(columns, rhs)

    def test_zero_rhs_and_empty_system(self):
        assert_matches_oracle([[1, 0], [1, 1]], [ZERO, ZERO])
        result = assert_matches_oracle([], [ZERO])
        assert result.solution == () and result.pivots == 0


class TestInputValidation:
    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(1), 0.5, 1.0])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(DomainError):
            solve_feasibility([[1, 0], [0, entry]], [ONE, ONE])

    def test_ragged_column_rejected(self):
        with pytest.raises(DomainError):
            solve_feasibility([[1, 0], [1]], [ONE, ONE])

    def test_negative_rhs_rejected(self):
        with pytest.raises(DomainError):
            solve_feasibility([[1]], [Fraction(-1)])


class TestSelfChecks:
    def test_primal_check_rejects_a_wrong_solution(self):
        supports = [[(0, 1)], [(0, 1), (1, 1)]]
        rhs = [ONE, Fraction(1, 2)]
        hvkit.simplex._verify_primal(supports, rhs, [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(InternalCheckError):
            hvkit.simplex._verify_primal(supports, rhs, [ONE, Fraction(1, 2)])
        with pytest.raises(InternalCheckError):
            hvkit.simplex._verify_primal([[(0, 1)], [(0, 1)]], [ONE, ZERO], [Fraction(3, 2), Fraction(-1, 2)])

    def test_dual_check_rejects_a_wrong_certificate(self):
        # x1 = 1, x1 = 2 has no solution; d*y = (-1, 1) separates it
        supports = [[(0, 1), (1, 1)]]
        rhs = [ONE, Fraction(2)]
        hvkit.simplex._verify_dual(supports, rhs, [-1, 1])
        with pytest.raises(InternalCheckError):
            hvkit.simplex._verify_dual(supports, rhs, [1, -1])
        with pytest.raises(InternalCheckError):
            hvkit.simplex._verify_dual(supports, rhs, [-2, 3])

    @pytest.mark.parametrize(
        "columns, rhs, check",
        [
            ([[1, 0], [0, 1]], [ONE, Fraction(1, 3)], "_verify_primal"),
            ([[1, 1]], [ONE, Fraction(2)], "_verify_dual"),
        ],
    )
    def test_both_verdicts_are_verified(self, monkeypatch, columns, rhs, check):
        def refuse(*args):
            raise InternalCheckError("refused")

        monkeypatch.setattr(hvkit.simplex, check, refuse)
        with pytest.raises(InternalCheckError, match="refused"):
            solve_feasibility(columns, rhs)


def solve_and_capture(monkeypatch, e):
    """Run local_hvm_exists on e, returning its verdict and the simplex call."""
    calls = []

    def spy(columns, rhs):
        result = solve_feasibility(columns, rhs)
        calls.append((columns, rhs, result))
        return result

    monkeypatch.setattr(hvkit.realizability, "solve_feasibility", spy)
    verdict = local_hvm_exists(e)
    (call,) = calls
    return verdict, call


class TestRealizabilityLPs:
    @pytest.mark.parametrize("builder, pivots", [(pr_box, 8), (singlet_chsh_model, 10)])
    def test_pivot_counts(self, monkeypatch, builder, pivots):
        (feasible, _), (columns, rhs, result) = solve_and_capture(monkeypatch, builder())
        assert not feasible
        assert isinstance(result, FeasibilityResult)
        assert result.pivots == pivots
        assert (result.solution, result.dual, result.pivots) == oracle_solve(columns, rhs)

    def test_columns_are_zero_one_ints(self, monkeypatch):
        _, (columns, rhs, _) = solve_and_capture(monkeypatch, pr_box())
        assert len(columns) == 16 and len(rhs) == 16
        for column in columns:
            assert all(type(v) is int and v in (0, 1) for v in column)
            # one outcome pair per context, four contexts
            assert sum(column) == 4

    def test_five_by_five_singlet(self):
        e = singlet_model((0, 36, 72, 108, 144), (18, 54, 90, 126, 162))
        start = time.perf_counter()
        feasible, certificate = local_hvm_exists(e)
        elapsed = time.perf_counter() - start
        assert not feasible
        assert elapsed < 5.0, f"5x5 singlet realizability took {elapsed:.2f} s"

        functional = certificate.bell_functional
        ya, yb = e.space("ya"), e.space("yb")
        bound = max(
            sum(
                functional.get((s.outcomes_a[i], s.outcomes_b[j], sa, sb), ZERO)
                for i, sa in enumerate(ya.atoms)
                for j, sb in enumerate(yb.atoms)
            )
            for s in enumerate_strategies(ya, yb, e.space("xa"), e.space("xb"))
        )
        kernel = conditional(e.measure, ("xa", "xb"), ("ya", "yb"))
        achieved = sum(
            coefficient * kernel.value((sa, sb), (oa, ob))
            for (oa, ob, sa, sb), coefficient in functional.items()
        )
        assert bound == certificate.classical_bound
        assert achieved == certificate.achieved_value
        assert achieved > bound
