"""The SherLock pipeline: Observer → Solver → Perturber, over rounds (§4.3).

One :class:`Sherlock` instance runs an application's test suite for N
rounds.  Observations accumulate across rounds; after each round the
Solver re-infers and the Perturber converts the inferred releases into the
next round's delay plan.  No delay is injected in the first round.

Test execution is delegated to an
:class:`~repro.runtime.engine.ExecutionRuntime`, which may fan tests out
across a process pool (``config.engine``) and/or replay rounds from a
trace cache; the default runtime is serial and cache-less, matching
historic behavior.  :meth:`Sherlock.run` is a plain synchronous round
loop (:meth:`Sherlock.arun` runs it in a worker thread for async
callers), and per-phase timings and cache counters land in a
:class:`~repro.runtime.metrics.RunMetrics` on every round.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..runtime.engine import ExecutionRuntime
from ..runtime.metrics import RunMetrics
from ..sim.program import Application
from ..sim.runner import TestExecution
from ..trace.optypes import OpRef
from .config import SherlockConfig
from .encoder import IncrementalEncoder
from .observer import Observer
from .perturber import build_delay_plan
from .solver import InferenceResult, infer
from .stats import ObservationStore
from .windows import WindowExtractor


@dataclass
class RoundResult:
    """Summary of one round."""

    round_index: int
    inference: InferenceResult
    windows_total: int
    racy_pairs_total: int
    events_observed: int
    delays_injected: int
    test_errors: List[str] = field(default_factory=list)
    #: Phase timings and cache counters (observability only; excluded
    #: from serialized reports so runs stay byte-comparable).
    metrics: Optional[RunMetrics] = None


@dataclass
class SherlockReport:
    """Full result of a SherLock run over an application."""

    app_id: str
    app_name: str
    config: SherlockConfig
    rounds: List[RoundResult]
    store: ObservationStore

    @property
    def final(self) -> InferenceResult:
        return self.rounds[-1].inference

    @property
    def inferred(self) -> frozenset:
        return frozenset(self.final.syncs)

    @property
    def metrics(self) -> RunMetrics:
        """Aggregate phase timings and cache counters over all rounds."""
        return RunMetrics.aggregate(
            r.metrics for r in self.rounds if r.metrics is not None
        )

    def inferred_by_round(self) -> List[frozenset]:
        return [frozenset(r.inference.syncs) for r in self.rounds]

    def describe(self) -> str:
        final = self.final
        stats = self.store.stats()
        return (
            f"{self.app_id} ({self.app_name}): "
            f"{len(final.releases)} releases + {len(final.acquires)} "
            f"acquires after {len(self.rounds)} rounds "
            f"({stats['windows']} windows, "
            f"{stats['racy_pairs']} racy pairs)"
        )


class Sherlock:
    """Unsupervised synchronization-operation inference for one app."""

    def __init__(
        self,
        app: Application,
        config: Optional[SherlockConfig] = None,
        runtime: Optional[ExecutionRuntime] = None,
        round_listener: Optional[
            Callable[[int, List[TestExecution]], None]
        ] = None,
    ) -> None:
        self.app = app
        self.config = config or SherlockConfig()
        self.config.validate()
        self.runtime = runtime or ExecutionRuntime(engine=self.config.engine)
        self.observer = Observer(self.config)
        #: Called with ``(round_index, executions)`` after each observed
        #: round — the hook ``repro.fuzz`` uses to sanitize raw traces
        #: without re-running anything.
        self.round_listener = round_listener

    def run(self, rounds: Optional[int] = None) -> SherlockReport:
        """Run the full multi-round pipeline and return the report.

        ``rounds`` overrides the configured round count by deriving a
        ``config.without(rounds=...)`` copy, so ``report.config.rounds``
        always matches the number of rounds that actually ran.
        """
        config = self.config
        if rounds is not None and rounds != config.rounds:
            config = config.without(rounds=rounds)
        store = ObservationStore()
        delay_plan: Dict[OpRef, float] = {}
        round_results: List[RoundResult] = []
        encoder = IncrementalEncoder(config) if config.incremental else None

        for round_index in range(config.rounds):
            t_start = time.perf_counter()
            outcome = self.runtime.observe_round(
                self.app, config, round_index, delay_plan
            )
            executions = outcome.executions
            if self.round_listener is not None:
                self.round_listener(round_index, executions)
            t_observed = time.perf_counter()
            if not config.accumulate_across_runs:
                store = ObservationStore()
            self._ingest(store, executions, config)
            t_extracted = time.perf_counter()

            inference = infer(store, config, encoder=encoder)
            t_solved = time.perf_counter()
            delay_plan = build_delay_plan(inference, config)
            t_perturbed = time.perf_counter()

            metrics = RunMetrics(
                observe_s=t_observed - t_start,
                extract_s=t_extracted - t_observed,
                encode_s=inference.encode_s,
                solve_s=(t_solved - t_extracted) - inference.encode_s,
                perturb_s=t_perturbed - t_solved,
                cache_hits=1 if outcome.cache_hit else 0,
                cache_misses=0 if outcome.cache_hit else 1,
                tests_executed=len(executions),
                events_observed=outcome.events_observed,
                lp_variables=inference.n_variables,
                lp_constraints=inference.n_constraints,
                lp_pivots=inference.lp_pivots,
                lp_factorizations=inference.lp_factorizations,
                lp_refactorizations=inference.lp_refactorizations,
                lp_factorize_s=inference.lp_factorize_s,
                lp_ftran_btran_s=inference.lp_ftran_btran_s,
                lp_pricing_s=inference.lp_pricing_s,
                lp_eta_len=inference.lp_eta_len,
                lp_presolve_s=inference.lp_presolve_s,
                lp_presolve_rows=inference.lp_presolve_rows_eliminated,
                lp_presolve_cols=inference.lp_presolve_cols_eliminated,
                lp_dual_iterations=inference.lp_dual_iterations,
                lp_phase1_iterations=inference.lp_phase1_iterations,
                lp_phase1_skipped=1 if inference.lp_phase1_skipped else 0,
                lp_delta_variables=inference.lp_delta_variables,
                lp_delta_constraints=inference.lp_delta_constraints,
                workers=outcome.workers_used,
            )
            round_results.append(
                RoundResult(
                    round_index=round_index,
                    inference=inference,
                    windows_total=len(store.windows),
                    racy_pairs_total=len(store.racy_pairs),
                    events_observed=sum(len(e.log) for e in executions),
                    delays_injected=sum(
                        len(e.log.delays) for e in executions
                    ),
                    test_errors=[
                        e.error for e in executions if e.error is not None
                    ],
                    metrics=metrics,
                )
            )
        return SherlockReport(
            app_id=self.app.app_id,
            app_name=self.app.name,
            config=config,
            rounds=round_results,
            store=store,
        )

    async def arun(self, rounds: Optional[int] = None) -> SherlockReport:
        """Async façade: :meth:`run` in a worker thread, so the caller's
        event loop stays free.  Byte-identical results to :meth:`run`."""
        return await asyncio.to_thread(self.run, rounds)

    def _ingest(
        self,
        store: ObservationStore,
        executions: List[TestExecution],
        config: Optional[SherlockConfig] = None,
    ) -> None:
        config = config or self.config
        extractor = WindowExtractor(
            near=config.near,
            window_cap=config.window_cap,
            refine=config.enable_window_refinement,
            indexed=config.incremental,
        )
        for execution in executions:
            windows = extractor.extract(execution.log)
            store.ingest_run(execution.log, windows)


__all__ = ["RoundResult", "Sherlock", "SherlockReport"]
