"""Unit and property tests for the CDCL SAT solver."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormalError
from repro.formal.solver import CdclSolver, luby_sequence


def brute_force_sat(nvars, clauses):
    """Reference: exhaustive satisfiability check."""
    for bits in itertools.product([False, True], repeat=nvars):
        ok = True
        for clause in clauses:
            if not any(
                bits[abs(l) - 1] if l > 0 else not bits[abs(l) - 1] for l in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


def make_solver(nvars, clauses):
    solver = CdclSolver()
    for _ in range(nvars):
        solver.new_var()
    solver.add_clauses(clauses)
    return solver


def check_model(solver, clauses):
    for clause in clauses:
        assert any(solver.model_value(l) for l in clause), f"clause {clause} unsat"


def test_trivial_sat():
    solver = make_solver(1, [[1]])
    assert solver.solve() is True
    assert solver.model_value(1) is True
    assert solver.model_value(-1) is False


def test_trivial_unsat():
    solver = make_solver(1, [[1], [-1]])
    assert solver.solve() is False


def test_empty_formula_is_sat():
    solver = make_solver(3, [])
    assert solver.solve() is True


def test_empty_clause_is_unsat():
    solver = CdclSolver()
    solver.new_var()
    assert solver.add_clause([]) is False
    assert solver.solve() is False


def test_tautology_dropped():
    solver = make_solver(2, [[1, -1], [2]])
    assert solver.solve() is True
    assert solver.model_value(2)


def test_duplicate_literals_handled():
    solver = make_solver(2, [[1, 1, 2]])
    assert solver.solve() is True


def test_unknown_variable_rejected():
    solver = CdclSolver()
    with pytest.raises(FormalError):
        solver.add_clause([1])
    with pytest.raises(FormalError):
        solver._to_internal(0)


def test_unit_propagation_chain():
    # x1 -> x2 -> x3 -> x4, x1 forced.
    clauses = [[1], [-1, 2], [-2, 3], [-3, 4]]
    solver = make_solver(4, clauses)
    assert solver.solve() is True
    assert all(solver.model_value(v) for v in range(1, 5))


def test_pigeonhole_3_into_2_unsat():
    """PHP(3,2): 3 pigeons into 2 holes — classic small UNSAT instance."""
    # var p_{i,j} = pigeon i in hole j ; i in 0..2, j in 0..1
    def var(i, j):
        return i * 2 + j + 1

    clauses = [[var(i, 0), var(i, 1)] for i in range(3)]
    for j in range(2):
        for i1 in range(3):
            for i2 in range(i1 + 1, 3):
                clauses.append([-var(i1, j), -var(i2, j)])
    solver = make_solver(6, clauses)
    assert solver.solve() is False


def test_pigeonhole_4_into_3_unsat():
    def var(i, j):
        return i * 3 + j + 1

    clauses = [[var(i, j) for j in range(3)] for i in range(4)]
    for j in range(3):
        for i1 in range(4):
            for i2 in range(i1 + 1, 4):
                clauses.append([-var(i1, j), -var(i2, j)])
    solver = make_solver(12, clauses)
    assert solver.solve() is False
    assert solver.stats.conflicts > 0


def test_assumptions_sat_then_unsat():
    solver = make_solver(2, [[1, 2]])
    assert solver.solve(assumptions=[-1]) is True
    assert solver.model_value(2) is True
    assert solver.solve(assumptions=[-1, -2]) is False
    # Solver remains usable after an UNSAT-under-assumptions result.
    assert solver.solve() is True


def test_contradictory_assumptions():
    solver = make_solver(2, [[1, 2]])
    assert solver.solve(assumptions=[1, -1]) is False
    assert solver.solve() is True


def test_assumption_against_unit():
    solver = make_solver(1, [[1]])
    assert solver.solve(assumptions=[-1]) is False
    assert solver.solve(assumptions=[1]) is True


def test_incremental_reuse_many_queries():
    # 8-bit adder-free sanity: x_i distinct queries under assumptions.
    solver = make_solver(4, [[1, 2], [3, 4], [-1, -3]])
    results = []
    for a in ([1], [-1], [3], [1, 3]):
        results.append(solver.solve(assumptions=a))
    assert results == [True, True, True, False]


def test_model_requires_sat():
    solver = make_solver(1, [[1], [-1]])
    assert solver.solve() is False
    with pytest.raises(FormalError):
        solver.model_value(1)


def test_model_vector():
    solver = make_solver(2, [[1], [-2]])
    assert solver.solve() is True
    model = solver.model()
    assert model[1] is True and model[2] is False


def test_conflict_limit_returns_none():
    # PHP(5,4) takes enough conflicts to hit a tiny limit.
    def var(i, j):
        return i * 4 + j + 1

    clauses = [[var(i, j) for j in range(4)] for i in range(5)]
    for j in range(4):
        for i1 in range(5):
            for i2 in range(i1 + 1, 5):
                clauses.append([-var(i1, j), -var(i2, j)])
    solver = make_solver(20, clauses)
    result = solver.solve(conflict_limit=2)
    assert result is None
    # And it can still finish the proof afterwards.
    assert solver.solve() is False


def test_luby_sequence():
    assert luby_sequence(15) == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


@st.composite
def random_cnf(draw):
    nvars = draw(st.integers(min_value=1, max_value=8))
    nclauses = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(nclauses):
        size = draw(st.integers(min_value=1, max_value=4))
        clause = [
            draw(st.integers(min_value=1, max_value=nvars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(size)
        ]
        clauses.append(clause)
    return nvars, clauses


@settings(max_examples=150, deadline=None)
@given(random_cnf())
def test_solver_agrees_with_brute_force(problem):
    nvars, clauses = problem
    solver = make_solver(nvars, clauses)
    expected = brute_force_sat(nvars, clauses)
    assert solver.solve() is expected
    if expected:
        check_model(solver, clauses)


@settings(max_examples=60, deadline=None)
@given(random_cnf(), st.lists(st.integers(min_value=1, max_value=4), max_size=3))
def test_solver_assumptions_agree_with_brute_force(problem, assumed_vars):
    nvars, clauses = problem
    assumptions = sorted({v for v in assumed_vars if v <= nvars})
    solver = make_solver(nvars, clauses)
    expected = brute_force_sat(nvars, clauses + [[a] for a in assumptions])
    assert solver.solve(assumptions=assumptions) is expected
    if expected:
        check_model(solver, clauses)
        for a in assumptions:
            assert solver.model_value(a)


@settings(max_examples=40, deadline=None)
@given(random_cnf())
def test_solver_stable_across_repeat_solves(problem):
    nvars, clauses = problem
    solver = make_solver(nvars, clauses)
    first = solver.solve()
    assert solver.solve() is first


def test_cancel_check_aborts_search():
    from repro.formal.solver import CANCEL_CHECK_EVERY

    # PHP(8,7): thousands of conflicts to refute, so the poll (every
    # CANCEL_CHECK_EVERY conflicts) is guaranteed to fire.
    holes = 7

    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(8)]
    for j in range(holes):
        for i1 in range(8):
            for i2 in range(i1 + 1, 8):
                clauses.append([-var(i1, j), -var(i2, j)])
    solver = make_solver(8 * holes, clauses)
    assert solver.solve(cancel_check=lambda: True) is None
    # The abort happens at the first poll, not after the full refutation.
    assert solver.stats.conflicts <= 2 * CANCEL_CHECK_EVERY
    # A cancelled solver is reusable (backtracked to level 0).
    assert solver.solve(conflict_limit=1) is None


def test_cancel_check_false_does_not_change_verdicts():
    solver = make_solver(2, [[1, 2], [-1, 2]])
    assert solver.solve(cancel_check=lambda: False) is True
    unsat = make_solver(1, [[1], [-1]])
    assert unsat.solve(cancel_check=lambda: False) is False


def test_decision_heap_holds_no_redundant_entries():
    """Backtracking re-queues a variable only when its newest heap entry
    is gone or stale: every queued activity is really in the heap, and
    no (activity, variable) entry is ever queued twice."""
    import random

    rng = random.Random(7)
    nvars = 150
    clauses = [[rng.choice((-1, 1)) * rng.randint(1, nvars)
                for _ in range(3)] for _ in range(int(nvars * 4.26))]
    solver = make_solver(nvars, clauses)
    # Stop mid-search, so the heap still holds what the restarts and
    # backtracks queued (a SAT answer would have drained it).
    assert solver.solve(conflict_limit=500) is None
    order = solver._order
    assert len(set(order)) == len(order)
    entries = set(order)
    for var in range(1, nvars + 1):
        queued = solver._queued[var]
        if queued is not None:
            assert (-queued, var) in entries
