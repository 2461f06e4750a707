"""Per-phase timing and counter metrics for pipeline runs.

Every round the execution engine and the pipeline record how long each
phase took (observe, extract, solve, perturb), whether the round's traces
came from the cache, and how large the LP was.  A :class:`RunMetrics`
instance rides on each :class:`~repro.core.pipeline.RoundResult`;
aggregates over a whole run are exposed as
:attr:`~repro.core.pipeline.SherlockReport.metrics` and printed by
``python -m repro ... --stats``.

Metrics are observability data only: they are intentionally excluded from
:func:`repro.core.serialize.report_to_dict`, so serialized reports stay
byte-identical across serial, parallel, and cached runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable


@dataclass
class RunMetrics:
    """Timings and counters for one round (or an aggregate over rounds)."""

    #: Wall-clock seconds spent executing the app's tests (or loading the
    #: round's traces from the cache).
    observe_s: float = 0.0
    #: Seconds spent extracting windows and ingesting into the store.
    extract_s: float = 0.0
    #: Seconds spent encoding the LP (building/patching the model).
    encode_s: float = 0.0
    #: Seconds spent solving the LP (lowering + backend).
    solve_s: float = 0.0
    #: Seconds spent building the next round's delay plan.
    perturb_s: float = 0.0
    #: Rounds whose traces were served from the trace cache.
    cache_hits: int = 0
    #: Rounds whose traces had to be executed.
    cache_misses: int = 0
    #: Unit-test executions represented (executed or replayed from cache).
    tests_executed: int = 0
    #: Trace events observed across those executions.
    events_observed: int = 0
    #: LP size of the (final, when aggregated) solve.
    lp_variables: int = 0
    lp_constraints: int = 0
    #: Simplex pivots / HiGHS iterations of the round's solve (summed
    #: when aggregated).
    lp_pivots: int = 0
    #: Basis LU factorizations of the revised simplex (total, and the
    #: subset that were mid-solve refactorizations — eta file full or a
    #: numerically unsafe update pivot).  Zero for backends without a
    #: factorized basis; summed when aggregated.
    lp_factorizations: int = 0
    lp_refactorizations: int = 0
    #: Cold-solve phase breakdown of the revised simplex: seconds spent
    #: LU-factorizing the basis, in ftran/btran triangular solves, and
    #: in pricing, plus the packed eta-file length (entries appended).
    #: Zero for other backends; summed when aggregated.  Lets a solver
    #: regression be attributed to a phase without re-profiling.
    lp_factorize_s: float = 0.0
    lp_ftran_btran_s: float = 0.0
    lp_pricing_s: float = 0.0
    lp_eta_len: int = 0
    #: Presolve + dual re-solve counters (scale tier; zero below the
    #: 4096-column gate where presolve is the identity): seconds spent
    #: reducing, rows/columns the reductions removed, dual-simplex
    #: re-solve pivots, primal phase-1 iterations, and how many rounds
    #: did zero phase-1 work (``lp_phase1_skipped``, summed when
    #: aggregated so a 3-round run reports up to 3).
    lp_presolve_s: float = 0.0
    lp_presolve_rows: int = 0
    lp_presolve_cols: int = 0
    lp_dual_iterations: int = 0
    lp_phase1_iterations: int = 0
    lp_phase1_skipped: int = 0
    #: Variables/constraints the encoder actually appended this round —
    #: equals the full LP size on a rebuild, and only the round's delta
    #: on the incremental path (summed when aggregated).
    lp_delta_variables: int = 0
    lp_delta_constraints: int = 0
    #: Directed schedule-search counters (``repro convert``): targets
    #: attempted, targets converted into observed FastTrack races,
    #: targets flagged as candidate false predictions, and directed
    #: schedules executed.  Zero outside conversion passes; summed when
    #: aggregated.
    convert_targets: int = 0
    convert_converted: int = 0
    convert_flagged: int = 0
    convert_runs: int = 0
    #: Worker-process count of the runtime that produced the traces.
    workers: int = 1

    @property
    def total_s(self) -> float:
        """Total wall-clock seconds across all phases."""
        return (
            self.observe_s
            + self.extract_s
            + self.encode_s
            + self.solve_s
            + self.perturb_s
        )

    def merge(self, other: "RunMetrics") -> None:
        """Fold another round's metrics into this aggregate (in place)."""
        self.observe_s += other.observe_s
        self.extract_s += other.extract_s
        self.encode_s += other.encode_s
        self.solve_s += other.solve_s
        self.perturb_s += other.perturb_s
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.tests_executed += other.tests_executed
        self.events_observed += other.events_observed
        # LP sizes are per-solve, not additive; keep the largest (the final
        # round's, under accumulation).  Pivots and deltas are per-round
        # work actually done, so they add up.
        self.lp_variables = max(self.lp_variables, other.lp_variables)
        self.lp_constraints = max(self.lp_constraints, other.lp_constraints)
        self.lp_pivots += other.lp_pivots
        self.lp_factorizations += other.lp_factorizations
        self.lp_refactorizations += other.lp_refactorizations
        self.lp_factorize_s += other.lp_factorize_s
        self.lp_ftran_btran_s += other.lp_ftran_btran_s
        self.lp_pricing_s += other.lp_pricing_s
        self.lp_eta_len += other.lp_eta_len
        self.lp_presolve_s += other.lp_presolve_s
        self.lp_presolve_rows += other.lp_presolve_rows
        self.lp_presolve_cols += other.lp_presolve_cols
        self.lp_dual_iterations += other.lp_dual_iterations
        self.lp_phase1_iterations += other.lp_phase1_iterations
        self.lp_phase1_skipped += other.lp_phase1_skipped
        self.lp_delta_variables += other.lp_delta_variables
        self.lp_delta_constraints += other.lp_delta_constraints
        self.convert_targets += other.convert_targets
        self.convert_converted += other.convert_converted
        self.convert_flagged += other.convert_flagged
        self.convert_runs += other.convert_runs
        self.workers = max(self.workers, other.workers)

    @classmethod
    def aggregate(cls, rounds: Iterable["RunMetrics"]) -> "RunMetrics":
        """Sum a sequence of per-round metrics into one aggregate."""
        total = cls()
        for metrics in rounds:
            if metrics is not None:
                total.merge(metrics)
        return total

    def describe(self) -> str:
        """Multi-line human-readable summary (used by ``--stats``)."""
        return "\n".join(
            [
                f"phases: observe {self.observe_s:.3f}s, "
                f"extract {self.extract_s:.3f}s, "
                f"encode {self.encode_s:.3f}s, "
                f"solve {self.solve_s:.3f}s, "
                f"perturb {self.perturb_s:.3f}s "
                f"(total {self.total_s:.3f}s)",
                f"cache: {self.cache_hits} hits, "
                f"{self.cache_misses} misses",
                f"executions: {self.tests_executed} tests, "
                f"{self.events_observed} events, "
                f"workers={self.workers}",
                f"lp: {self.lp_variables} variables, "
                f"{self.lp_constraints} constraints, "
                f"{self.lp_pivots} pivots, "
                f"{self.lp_factorizations} factorizations "
                f"({self.lp_refactorizations} re-) "
                f"(delta {self.lp_delta_variables}v/"
                f"{self.lp_delta_constraints}c)",
                f"lp solve phases: factorize {self.lp_factorize_s:.3f}s, "
                f"ftran/btran {self.lp_ftran_btran_s:.3f}s, "
                f"pricing {self.lp_pricing_s:.3f}s, "
                f"eta length {self.lp_eta_len}",
                f"lp presolve: {self.lp_presolve_s:.3f}s, "
                f"{self.lp_presolve_rows} rows / "
                f"{self.lp_presolve_cols} cols eliminated; "
                f"re-solve: {self.lp_dual_iterations} dual pivots, "
                f"{self.lp_phase1_iterations} phase-1 iterations, "
                f"phase-1 skipped in {self.lp_phase1_skipped} round(s)",
                f"convert: {self.convert_targets} targets, "
                f"{self.convert_converted} converted, "
                f"{self.convert_flagged} flagged, "
                f"{self.convert_runs} directed runs",
            ]
        )

    def as_dict(self) -> dict:
        """Plain-dict view (stable field order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


__all__ = ["RunMetrics"]
