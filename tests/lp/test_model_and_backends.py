"""Model construction and backend cross-checking tests."""

import numpy as np
import pytest

from repro.lp import (
    LinExpr,
    Model,
    SolveStatus,
    solve,
    solve_scipy,
    solve_simplex,
)
from repro.lp.backends import available_backends


def test_duplicate_variable_names_rejected():
    m = Model()
    m.add_variable("x")
    with pytest.raises(ValueError):
        m.add_variable("x")


def test_foreign_variable_rejected():
    m1, m2 = Model(), Model()
    x = m1.add_variable("x")
    with pytest.raises(ValueError):
        m2.add_constraint(x <= 1)


def test_unknown_backend_rejected():
    m = Model()
    with pytest.raises(ValueError):
        solve(m, backend="nope")
    assert "scipy" in available_backends()
    assert "simplex" in available_backends()


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_simple_minimization(backend):
    # minimize x + y  s.t.  x + y >= 1, x,y in [0,1]
    m = Model()
    x = m.add_variable("x", 0, 1)
    y = m.add_variable("y", 0, 1)
    m.add_constraint(x + y >= 1)
    m.add_objective_term(x + y)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_prefers_cheap_variable(backend):
    # Two ways to cover a constraint; the cheaper one must be picked.
    m = Model()
    x = m.add_variable("x", 0, 1)
    y = m.add_variable("y", 0, 1)
    m.add_constraint(x + y >= 1)
    m.add_objective_term(x * 1.0 + y * 3.0)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.values[x] == pytest.approx(1.0, abs=1e-6)
    assert sol.values[y] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_equality_constraints(backend):
    m = Model()
    x = m.add_variable("x", 0, 10)
    y = m.add_variable("y", 0, 10)
    m.add_constraint((x + y) == 4)
    m.add_constraint((x - y) == 2)
    m.add_objective_term(x)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.values[x] == pytest.approx(3.0, abs=1e-6)
    assert sol.values[y] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_infeasible_detected(backend):
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_constraint(x >= 2)
    m.add_objective_term(x)
    sol = backend(m)
    assert sol.status is SolveStatus.INFEASIBLE


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_unbounded_detected(backend):
    m = Model()
    x = m.add_variable("x", 0, None)
    m.add_objective_term(-1.0 * x)
    sol = backend(m)
    assert sol.status is SolveStatus.UNBOUNDED


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_max0_lowering(backend):
    # minimize max(0, 1 - x) + 0.5 x  -> optimum at x = 1, value 0.5.
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_max0_term(1 - x)
    m.add_objective_term(x, 0.5)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.values[x] == pytest.approx(1.0, abs=1e-6)
    assert sol.objective == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_max0_prefers_zero_when_costly(backend):
    # minimize max(0, 1 - x) + 2 x -> optimum at x = 0, value 1.
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_max0_term(1 - x)
    m.add_objective_term(x, 2.0)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.values[x] == pytest.approx(0.0, abs=1e-6)
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_abs_lowering(backend):
    # minimize |x - y| + y  s.t. x = 1  -> y = 1 costs 1, y = 0 costs 1;
    # adding a slight preference for pairing picks y to balance.
    m = Model()
    x = m.add_variable("x", 0, 1)
    y = m.add_variable("y", 0, 1)
    m.add_constraint((x + 0) == 1)
    m.add_abs_term(x - y, weight=2.0)
    m.add_objective_term(y, 1.0)
    sol = backend(m)
    assert sol.is_optimal
    # Pairing dominates: y pulled up to x.
    assert sol.values[y] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_objective_offset_carried(backend):
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_objective_term(x + 7.0)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(7.0, abs=1e-6)


def test_solution_helpers():
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_constraint(x >= 0.25)
    m.add_objective_term(x)
    sol = m.solve()
    assert sol.value(x) == pytest.approx(0.25, abs=1e-6)
    assert sol.by_name()["x"] == pytest.approx(0.25, abs=1e-6)
    assert "optimal" in repr(sol)


def test_empty_model_solves():
    m = Model()
    sol = solve_scipy(m)
    assert sol.is_optimal
    sol2 = solve_simplex(m)
    assert sol2.is_optimal


def test_model_without_constraints_simplex():
    m = Model()
    x = m.add_variable("x", 0, 5)
    m.add_objective_term(-1.0 * x)
    sol = solve_simplex(m)
    assert sol.is_optimal
    assert sol.values[x] == pytest.approx(5.0)


def test_standard_form_shapes():
    m = Model()
    x = m.add_variable("x", 0, 1)
    y = m.add_variable("y")
    m.add_constraint(x + y <= 3)
    m.add_constraint(x - y >= -1)
    m.add_constraint((x + 2 * y) == 2)
    m.add_objective_term(x + y)
    form = m.to_standard_form()
    assert form.a_ub.shape == (2, 2)
    assert form.a_eq.shape == (1, 2)
    # >= row was flipped into <=.
    assert np.allclose(form.a_ub[1], [-1.0, 1.0])
    assert form.b_ub[1] == pytest.approx(1.0)


def _sparse_parts(form):
    a_ub = form.a_ub.tocsr()
    a_eq = form.a_eq.tocsr()
    return (
        form.c.tolist(),
        a_ub.shape,
        a_ub.indptr.tolist(),
        a_ub.indices.tolist(),
        a_ub.data.tolist(),
        form.b_ub.tolist(),
        a_eq.shape,
        a_eq.indptr.tolist(),
        a_eq.indices.tolist(),
        a_eq.data.tolist(),
        form.b_eq.tolist(),
        form.bounds,
        [v.name for v in form.variables],
    )


def _dense_as_sparse(form):
    from scipy.sparse import csr_matrix

    form.a_ub = csr_matrix(form.a_ub)
    form.a_eq = csr_matrix(form.a_eq)
    return _sparse_parts(form)


def _cover_models():
    """The same LP twice: cover rows through ``add_cover_term`` and
    through ``add_max0_term(1 - LinExpr.total(...))``, then mixed rows."""
    built = []
    for columnar in (True, False):
        m = Model()
        xs = [m.add_variable(f"x{i}", 0, 1) for i in range(4)]
        for cols in ([2, 0], [3], [1, 3, 0]):
            if columnar:
                m.add_cover_term(cols)
            else:
                m.add_max0_term(1 - LinExpr.total(xs[c] for c in cols))
            if cols == [3]:
                xs.append(m.add_variable("late", 0, 1))
        m.add_constraint(xs[0] + xs[4] <= 1, name="le")
        m.add_abs_term(xs[1] - xs[2], weight=0.2)
        m.add_constraint((xs[0] + 2 * xs[3]) == 1, name="eq")
        m.add_objective_term(xs[0] + 0.5 * xs[4])
        built.append(m)
    return built


def test_cover_term_matches_max0_term():
    """``add_cover_term`` builds the auxiliary, constraint and objective
    entry ``add_max0_term(1 - total)`` does, and the sparse lowering
    (cover block concatenated) equals both the object path's sparse
    lowering and the dense one."""
    columnar, objects = _cover_models()
    assert [v.name for v in columnar.variables] == [
        v.name for v in objects.variables
    ]
    for a, b in zip(columnar.constraints, objects.constraints):
        assert (a.name, a.sense, a.rhs) == (b.name, b.sense, b.rhs)
        assert [(v.name, c) for v, c in a.expr.terms.items()] == [
            (v.name, c) for v, c in b.expr.terms.items()
        ]
    assert [(v.name, c) for v, c in columnar.objective.terms.items()] == [
        (v.name, c) for v, c in objects.objective.terms.items()
    ]
    lowered = _sparse_parts(columnar.to_sparse_form())
    assert lowered == _sparse_parts(objects.to_sparse_form())
    assert lowered == _dense_as_sparse(objects.to_standard_form())
    # The cover block: the leading rows, every entry and rhs -1.
    a_ub = columnar.to_sparse_form().a_ub
    assert a_ub.indptr[:4].tolist() == [0, 3, 5, 9]
    assert a_ub.indices[:9].tolist() == [0, 2, 4, 3, 5, 0, 1, 3, 7]
    assert set(a_ub.data[:9]) == {-1.0}


def test_cover_rows_must_lead():
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_cover_term([0])
    m.add_constraint(x <= 1)
    with pytest.raises(ValueError):
        m.add_cover_term([0])


def test_rollback_truncates_cover_block():
    """Rolling back into the cover block drops its CSR rows too, so
    re-appended rows lower identically to a fresh model's."""
    m = Model()
    for i in range(3):
        m.add_variable(f"x{i}", 0, 1)
    m.add_cover_term([1, 0])
    cp = m.checkpoint()
    m.add_cover_term([2])
    m.add_cover_term([0, 2])
    m.rollback(cp)
    m.add_cover_term([2, 1])

    fresh = Model()
    for i in range(3):
        fresh.add_variable(f"x{i}", 0, 1)
    fresh.add_cover_term([1, 0])
    fresh.add_cover_term([2, 1])
    assert _sparse_parts(m.to_sparse_form()) == _sparse_parts(
        fresh.to_sparse_form()
    )


def test_auto_backend_matches_named():
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_constraint(x >= 0.5)
    m.add_objective_term(x)
    assert m.solve("auto").objective == pytest.approx(
        m.solve("scipy").objective
    )


def test_model_repr_and_stats():
    m = Model("demo")
    x = m.add_variable("x")
    m.add_constraint(x <= 1)
    m.add_objective_term(x)
    assert m.stats()["variables"] == 1
    assert "demo" in repr(m)
    assert m.get_variable("x") is x
    assert m.has_variable("x")
    assert not m.has_variable("y")
