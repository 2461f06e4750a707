"""LP model container with the lowering helpers SherLock's encoder needs.

The paper's objective (Equation 8) contains two non-linear shapes that have
standard LP lowerings:

* ``max(0, expr)`` — used by the Mostly-Protected terms (Equation 2);
  lowered via an auxiliary variable ``t >= expr, t >= 0`` that is minimized.
* ``|expr|`` — used by the Mostly-Paired terms (Equations 6 and 7);
  lowered via ``t >= expr, t >= -expr``.

Both lowerings are exact when the auxiliary variable's objective
coefficient is positive, which is always the case here.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import EQ, GE, LE, Constraint, ExprLike, LinExpr, as_expr
from .solution import Solution
from .variable import Variable


@dataclass
class StandardForm:
    """Standard form: minimize ``c @ x`` subject to
    ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq`` and per-variable bounds.

    ``a_ub``/``a_eq`` are dense from :meth:`Model.to_standard_form` and
    ``scipy.sparse.csr_matrix`` from :meth:`Model.to_sparse_form`;
    backends accept either."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    bounds: List[Tuple[float, Optional[float]]]
    variables: List[Variable]
    objective_offset: float


@dataclass
class ModelCheckpoint:
    """A point a :class:`Model` can roll back to (see :meth:`Model.rollback`).

    Holds the prefix sizes plus a snapshot of the objective, so terms and
    constraints appended after the checkpoint can be discarded and the
    auxiliary-variable numbering replayed identically.
    """

    n_variables: int
    n_constraints: int
    aux_counter: int
    objective_terms: Dict["Variable", float]
    objective_constant: float


class Model:
    """A minimization LP model."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective = LinExpr()
        self._names: Dict[str, Variable] = {}
        self._aux_counter = 0
        # The cover block (see :meth:`add_cover_term`): the leading
        # ``len(self._cover_indptr) - 1`` constraints, kept as CSR rows of
        # sorted column indexes as well.
        self._cover_indptr = array("q", [0])
        self._cover_indices = array("i")

    # -- building -------------------------------------------------------------

    def add_variable(
        self, name: str, lower: float = 0.0, upper: Optional[float] = None
    ) -> Variable:
        """Create a variable with a unique name and register it."""
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        var = Variable(name, lower, upper, index=len(self.variables))
        self.variables.append(var)
        self._names[name] = var
        return var

    def get_variable(self, name: str) -> Variable:
        return self._names[name]

    def has_variable(self, name: str) -> bool:
        return name in self._names

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if name:
            constraint.name = name
        for var in constraint.expr.terms:
            if (
                var.index < 0
                or var.index >= len(self.variables)
                or self.variables[var.index] is not var
            ):
                raise ValueError(
                    f"constraint {name!r} uses variable {var.name!r} that is "
                    f"not registered with this model"
                )
        self.constraints.append(constraint)
        return constraint

    def add_objective_term(self, expr: ExprLike, weight: float = 1.0) -> None:
        """Add ``weight * expr`` to the (minimized) objective.

        Accumulates in place (the historical rebind-via-``+`` copied the
        whole objective per term, making encoding quadratic in terms),
        replicating ``LinExpr.__add__`` exactly: same per-coefficient
        arithmetic, same drop-on-exact-zero, same key insertion order.
        """
        terms_ = self.objective.terms
        if type(expr) is Variable:
            # Scalar fast path; exact: ``as_expr`` would contribute
            # ``1.0 * weight == weight`` and a ``0.0 * weight`` constant.
            new = terms_.get(expr, 0.0) + weight
            if new == 0.0:
                terms_.pop(expr, None)
            else:
                terms_[expr] = new
            return
        other = as_expr(expr) * weight
        for var, coef in other.terms.items():
            new = terms_.get(var, 0.0) + coef
            if new == 0.0:
                terms_.pop(var, None)
            else:
                terms_[var] = new
        self.objective.constant += other.constant

    # -- lowering helpers -------------------------------------------------------

    def _fresh_aux(self, prefix: str) -> Variable:
        self._aux_counter += 1
        return self.add_variable(f"__{prefix}_{self._aux_counter}")

    def add_max0_term(self, expr: ExprLike, weight: float = 1.0) -> Variable:
        """Add ``weight * max(0, expr)`` to the objective; returns the aux var."""
        aux = self._fresh_aux("max0")
        self.add_constraint(aux >= as_expr(expr), name=f"{aux.name}_ge")
        self.add_objective_term(aux, weight)
        return aux

    def add_cover_term(self, columns: Sequence[int]) -> Variable:
        """Add ``max(0, 1 - sum of the columns' variables)``.

        The same auxiliary, constraint and objective entry as
        ``add_max0_term(1 - LinExpr.total(vars))`` for the (distinct)
        variables at ``columns``, built without expression arithmetic.
        The row also goes straight into the cover block's CSR buffers,
        which :meth:`to_sparse_form` concatenates instead of lowering the
        rows one by one.  Cover rows must form a prefix of
        :attr:`constraints`.
        """
        if len(self._cover_indptr) - 1 != len(self.constraints):
            raise ValueError("cover rows must precede every other constraint")
        aux = self._fresh_aux("max0")
        variables = self.variables
        terms = dict.fromkeys([aux, *map(variables.__getitem__, columns)], 1.0)
        self.constraints.append(
            Constraint(LinExpr(terms, -1.0), GE, f"{aux.name}_ge")
        )
        # ``aux`` is the newest column, so it sorts last.
        self._cover_indices.fromlist(sorted(columns))
        self._cover_indices.append(aux.index)
        self._cover_indptr.append(len(self._cover_indices))
        self.objective.terms[aux] = 1.0
        return aux

    def add_abs_term(self, expr: ExprLike, weight: float = 1.0) -> Variable:
        """Add ``weight * |expr|`` to the objective; returns the aux var."""
        aux = self._fresh_aux("abs")
        e = as_expr(expr)
        self.add_constraint(aux >= e, name=f"{aux.name}_pos")
        self.add_constraint(aux >= -e, name=f"{aux.name}_neg")
        self.add_objective_term(aux, weight)
        return aux

    # -- checkpoint / rollback ----------------------------------------------------

    def checkpoint(self) -> ModelCheckpoint:
        """Snapshot the current prefix for a later :meth:`rollback`."""
        return ModelCheckpoint(
            n_variables=len(self.variables),
            n_constraints=len(self.constraints),
            aux_counter=self._aux_counter,
            objective_terms=dict(self.objective.terms),
            objective_constant=self.objective.constant,
        )

    def rollback(self, cp: ModelCheckpoint) -> None:
        """Discard every variable, constraint and objective term added
        after ``cp``; auxiliary numbering resumes from the checkpoint so
        re-appended sections get identical names."""
        for var in self.variables[cp.n_variables:]:
            del self._names[var.name]
        del self.variables[cp.n_variables:]
        del self.constraints[cp.n_constraints:]
        if len(self._cover_indptr) - 1 > cp.n_constraints:
            del self._cover_indices[self._cover_indptr[cp.n_constraints]:]
            del self._cover_indptr[cp.n_constraints + 1:]
        self._aux_counter = cp.aux_counter
        self.objective = LinExpr(cp.objective_terms, cp.objective_constant)

    # -- lowering to matrices -----------------------------------------------------

    def to_standard_form(self) -> StandardForm:
        n = len(self.variables)
        c = np.zeros(n)
        for var, coef in self.objective.terms.items():
            c[var.index] += coef

        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for con in self.constraints:
            row = np.zeros(n)
            for var, coef in con.expr.terms.items():
                row[var.index] += coef
            rhs = con.rhs
            if con.sense == LE:
                ub_rows.append(row)
                ub_rhs.append(rhs)
            elif con.sense == GE:
                ub_rows.append(-row)
                ub_rhs.append(-rhs)
            elif con.sense == EQ:
                eq_rows.append(row)
                eq_rhs.append(rhs)

        a_ub = np.array(ub_rows) if ub_rows else np.zeros((0, n))
        a_eq = np.array(eq_rows) if eq_rows else np.zeros((0, n))
        bounds = [(v.lower, v.upper) for v in self.variables]
        return StandardForm(
            c=c,
            a_ub=a_ub,
            b_ub=np.array(ub_rhs),
            a_eq=a_eq,
            b_eq=np.array(eq_rhs),
            bounds=bounds,
            variables=list(self.variables),
            objective_offset=self.objective.constant,
        )

    @staticmethod
    def _lower_rows(constraints, sense_sign: Dict[str, float]):
        """Lower the constraints whose sense is in ``sense_sign`` into CSR
        components ``(indptr, indices, data, rhs)``, each row negated when
        its sign is -1.  Rows carry sorted column indexes, matching the
        canonical CSR a dense :meth:`to_standard_form` matrix converts to."""
        cols: List[int] = []
        vals: List[float] = []
        indptr: List[int] = [0]
        rhs: List[float] = []
        for con in constraints:
            sign = sense_sign.get(con.sense)
            if sign is None:
                continue
            items = sorted(
                (var.index, coef)
                for var, coef in con.expr.terms.items()
                if coef != 0.0
            )
            cols.extend(i for i, _ in items)
            vals.extend(sign * v for _, v in items)
            indptr.append(len(cols))
            rhs.append(sign * con.rhs)
        return (
            np.array(indptr, dtype=np.int64),
            np.array(cols, dtype=np.int32),
            np.array(vals, dtype=np.float64),
            np.array(rhs, dtype=np.float64),
        )

    def to_sparse_form(self) -> StandardForm:
        """:meth:`to_standard_form` with ``scipy.sparse.csr_matrix``
        constraint matrices and no dense intermediate, value-identical to
        the dense lowering (sense grouping preserves constraint order).

        The cover block is assembled from its CSR buffers by
        concatenation (every entry -1, every right-hand side -1); only
        the rows after it are lowered one by one.  The revised simplex
        and scipy backends consume the sparse matrices directly; only the
        dense-tableau reference backend densifies."""
        from scipy.sparse import csr_matrix

        n = len(self.variables)
        c = np.zeros(n)
        terms = self.objective.terms
        if terms:
            # Keys are unique variables, so plain assignment matches the
            # dense path's ``+=`` accumulation.
            c[np.fromiter((v.index for v in terms), np.intp, len(terms))] = (
                np.fromiter(terms.values(), np.float64, len(terms))
            )

        n_cover = len(self._cover_indptr) - 1
        cover_nnz = len(self._cover_indices)
        rest = self.constraints[n_cover:]
        ub_indptr, ub_cols, ub_vals, ub_rhs = self._lower_rows(
            rest, {LE: 1.0, GE: -1.0}
        )
        ub_indptr = np.concatenate(
            (np.array(self._cover_indptr, dtype=np.int64),
             ub_indptr[1:] + cover_nnz)
        )
        ub_cols = np.concatenate(
            (np.array(self._cover_indices, dtype=np.int32), ub_cols)
        )
        ub_vals = np.concatenate((np.full(cover_nnz, -1.0), ub_vals))
        ub_rhs = np.concatenate((np.full(n_cover, -1.0), ub_rhs))
        eq_indptr, eq_cols, eq_vals, eq_rhs = self._lower_rows(
            rest, {EQ: 1.0}
        )
        bounds = [(v.lower, v.upper) for v in self.variables]
        return StandardForm(
            c=c,
            a_ub=csr_matrix(
                (ub_vals, ub_cols, ub_indptr), shape=(len(ub_rhs), n)
            ),
            b_ub=ub_rhs,
            a_eq=csr_matrix(
                (eq_vals, eq_cols, eq_indptr), shape=(len(eq_rhs), n)
            ),
            b_eq=eq_rhs,
            bounds=bounds,
            variables=list(self.variables),
            objective_offset=self.objective.constant,
        )

    # -- solving -----------------------------------------------------------------

    def solve(self, backend: str = "auto", presolve=True) -> Solution:
        """Solve the model with the requested backend.

        Backends (see :mod:`repro.lp.backends`):

        * ``"auto"`` — scipy/HiGHS when available, else the built-in
          revised simplex;
        * ``"scipy"`` / ``"highs"`` — :func:`scipy.optimize.linprog`;
        * ``"simplex"`` / ``"revised-simplex"`` — the built-in sparse
          revised simplex with an LU-factorized basis (default built-in);
        * ``"dense-tableau"`` — the dense tableau reference
          implementation (escape hatch, byte-identical reports to the
          revised simplex).

        ``presolve`` is forwarded to :func:`repro.lp.backends.solve`:
        ``True`` reduces scale-tier-sized forms first (identity below
        the gate), ``False`` never does, ``"force"`` always does.
        """
        from . import backends

        return backends.solve(self, backend, presolve=presolve)

    def stats(self) -> Dict[str, int]:
        return {
            "variables": len(self.variables),
            "constraints": len(self.constraints),
            "objective_terms": len(self.objective.terms),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Model({self.name!r}, vars={s['variables']}, "
            f"cons={s['constraints']})"
        )
