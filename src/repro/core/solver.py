"""Solve the encoded LP and interpret the assignment (§4.2).

Variables assigned (approximately) 1 identify acquire and release
synchronizations.  The model has no trivial solution: Mostly-Protected
pushes at least one variable per window up, while the rare/regularizer
terms push everything down, so the optimum is a sparse cover of the
observed windows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..lp import Solution, SolveStatus
from ..trace.optypes import Role, SyncOp
from .config import SherlockConfig
from .encoder import IncrementalEncoder, build_model
from .stats import ObservationStore


class SolverError(RuntimeError):
    """Raised when the LP solve does not reach an optimum."""


@dataclass
class InferenceResult:
    """The solver's verdict after one round."""

    acquires: Set[SyncOp] = field(default_factory=set)
    releases: Set[SyncOp] = field(default_factory=set)
    #: Raw probability per candidate (only candidates with variables).
    probabilities: Dict[SyncOp, float] = field(default_factory=dict)
    objective: float = 0.0
    n_variables: int = 0
    n_constraints: int = 0
    backend: str = ""
    #: Performance observability (never serialized — reports must stay
    #: byte-identical between the incremental and rebuild paths).
    encode_s: float = 0.0
    solve_lp_s: float = 0.0
    lp_pivots: int = 0
    #: Basis LU (re)factorizations of the revised simplex backend.
    lp_factorizations: int = 0
    lp_refactorizations: int = 0
    #: Cold-solve phase breakdown of the revised simplex backend
    #: (seconds factorizing, in ftran/btran solves, and pricing) plus
    #: the packed eta-file length; zero for other backends.
    lp_factorize_s: float = 0.0
    lp_ftran_btran_s: float = 0.0
    lp_pricing_s: float = 0.0
    lp_eta_len: int = 0
    #: Presolve + dual re-solve observability (see
    #: :mod:`repro.lp.presolve` / :mod:`repro.lp.dual`): reduction time
    #: and rows/columns eliminated before the backend solve, dual-simplex
    #: re-solve pivots, primal phase-1 iterations, and whether the round
    #: did zero phase-1 work.
    lp_presolve_s: float = 0.0
    lp_presolve_rows_eliminated: int = 0
    lp_presolve_cols_eliminated: int = 0
    lp_dual_iterations: int = 0
    lp_phase1_iterations: int = 0
    lp_phase1_skipped: bool = False
    #: Variables/constraints actually appended this round (equals the
    #: full model size on a rebuild).
    lp_delta_variables: int = 0
    lp_delta_constraints: int = 0
    #: Whether the encoder appended onto last round's model (False on
    #: the rebuild path and on rounds the encoder had to rebuild).
    incremental: bool = False

    @property
    def syncs(self) -> Set[SyncOp]:
        return self.acquires | self.releases

    def sync_names(self) -> Set[str]:
        return {s.op.name for s in self.syncs}

    def contains(self, sync: SyncOp) -> bool:
        return sync in self.acquires or sync in self.releases

    def __repr__(self) -> str:
        return (
            f"InferenceResult(acquires={len(self.acquires)}, "
            f"releases={len(self.releases)}, objective={self.objective:.4g})"
        )


def infer(
    store: ObservationStore,
    config: SherlockConfig,
    encoder: Optional[IncrementalEncoder] = None,
) -> InferenceResult:
    """Encode the store, solve, and threshold the probabilities.

    With an ``encoder`` (see :class:`~repro.core.encoder.IncrementalEncoder`),
    encoding appends this round's delta onto the encoder's persistent
    model and the solve concatenates its columnar cover block; without
    one, the model is rebuilt from the whole store (historical
    path, kept via ``SherlockConfig(incremental=False)``).  Both produce
    byte-identical results.
    """
    t_start = time.perf_counter()
    if encoder is not None:
        model, registry = encoder.encode(store)
    else:
        model, registry = build_model(store, config)
    t_encoded = time.perf_counter()
    if len(registry) == 0:
        return InferenceResult(backend="empty")

    if encoder is not None:
        solution: Solution = encoder.solve(config.backend)
    else:
        solution = model.solve(config.backend, presolve=config.presolve)
    t_solved = time.perf_counter()
    if solution.status is not SolveStatus.OPTIMAL:
        raise SolverError(
            f"LP solve failed with status {solution.status.value} "
            f"({model.stats()})"
        )

    result = InferenceResult(
        objective=solution.objective,
        n_variables=len(model.variables),
        n_constraints=len(model.constraints),
        backend=solution.backend,
        encode_s=t_encoded - t_start,
        solve_lp_s=t_solved - t_encoded,
        lp_pivots=solution.iterations,
        lp_factorizations=solution.factorizations,
        lp_refactorizations=solution.refactorizations,
        lp_factorize_s=solution.factorize_s,
        lp_ftran_btran_s=solution.ftran_btran_s,
        lp_pricing_s=solution.pricing_s,
        lp_eta_len=solution.eta_len,
        lp_presolve_s=solution.presolve_s,
        lp_presolve_rows_eliminated=solution.presolve_rows_eliminated,
        lp_presolve_cols_eliminated=solution.presolve_cols_eliminated,
        lp_dual_iterations=solution.dual_iterations,
        lp_phase1_iterations=solution.phase1_iterations,
        lp_phase1_skipped=solution.phase1_skipped,
        lp_delta_variables=(
            encoder.last_delta_variables
            if encoder is not None
            else len(model.variables)
        ),
        lp_delta_constraints=(
            encoder.last_delta_constraints
            if encoder is not None
            else len(model.constraints)
        ),
        incremental=encoder is not None and not encoder.last_rebuild,
    )
    for sync, variable in registry.items():
        probability = solution.values.get(variable, 0.0)
        result.probabilities[sync] = probability
        if probability >= config.threshold:
            if sync.role is Role.ACQUIRE:
                result.acquires.add(sync)
            else:
                result.releases.add(sync)
    return result


__all__ = ["InferenceResult", "SolverError", "infer"]
