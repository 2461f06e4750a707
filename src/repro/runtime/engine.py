"""Cache-aware execution runtime: in-process, or over a process pool.

The runtime owns *whether* an application's unit tests get executed for
one observed round — consulting a
:class:`~repro.runtime.cache.TraceCache` first and replaying the round
without executing anything on a hit — and *how* they execute: serially
in-process, or fanned out across an optional
``concurrent.futures.ProcessPoolExecutor`` (``engine="serial" |
"process[:N]"``).

Determinism is the contract.  Every unit test runs on a fresh kernel
seeded by ``(config.seed, test qname, round index)`` alone and per-test
context objects are built fresh per execution, so serial, process-pool,
and cached runs yield byte-identical serialized reports (absolute
heap-object ids differ across processes, but SherLock only ever compares
ids within one test's trace and never serializes them).

The surface is synchronous; :meth:`ExecutionRuntime.aobserve_round` is a
thin ``asyncio.to_thread`` façade for async callers.
"""

from __future__ import annotations

import asyncio
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..apps.registry import get_application, resolve_app_id
from ..core.config import SherlockConfig
from ..core.observer import Observer
from ..sim.program import Application
from ..sim.runner import RunOptions, TestExecution, run_unit_test
from .cache import (
    DelayPlan,
    FrozenPlan,
    TraceCache,
    freeze_delay_plan,
    round_key,
    thaw_delay_plan,
)

#: (app_id, config fields, round index, frozen plan, test qname)
WorkerPayload = Tuple[str, Dict[str, Any], int, FrozenPlan, str]

_ENGINE_KINDS = ("serial", "process")


def parse_engine_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split an engine spec string into ``(kind, pool size)``.

    ``"auto" | "serial" | "process[:N]"`` — ``"auto"`` means serial;
    raises ``ValueError`` on anything else.
    """
    if not isinstance(spec, str):
        raise TypeError(
            f"engine spec must be a string, got {type(spec).__name__}"
        )
    kind, sep, arg = spec.partition(":")
    if kind not in ("auto", *_ENGINE_KINDS):
        raise ValueError(
            f"unknown engine spec {spec!r}; choose from "
            f"{['auto', *_ENGINE_KINDS]} (e.g. 'process:4')"
        )
    if not sep:
        return kind, None
    if kind != "process":
        raise ValueError(f"engine spec {kind!r} takes no :N suffix")
    try:
        size = int(arg)
    except ValueError:
        raise ValueError(
            f"engine spec {spec!r}: pool size {arg!r} is not an integer"
        ) from None
    if size < 1:
        raise ValueError(f"engine spec {spec!r}: pool size must be >= 1")
    return kind, size


def execute_test_payload(payload: WorkerPayload) -> TestExecution:
    """Run one unit test from plain data (the worker entry point).

    Rebuilds the application, config, and delay plan from picklable
    primitives so nothing process-specific crosses the pool boundary,
    then executes the test exactly as the serial Observer path would.
    """
    app_id, config_kwargs, round_index, frozen_plan, test_qname = payload
    config = SherlockConfig(**config_kwargs)
    app = get_application(app_id)
    for test in app.tests:
        if test.qname == test_qname:
            break
    else:
        raise KeyError(f"{app_id} has no unit test {test_qname!r}")
    options = RunOptions(
        seed=config.seed,
        run_id=round_index,
        op_cost=config.op_cost,
        delay_plan=thaw_delay_plan(frozen_plan),
        event_filter=Observer(config).event_filter,
        max_steps=config.max_steps,
        schedule_policy=config.schedule_policy,
    )
    return run_unit_test(app, test, options)


def _app_registered(app: Application) -> bool:
    """True when ``app.app_id`` resolves to a registry builder, so jobs
    can rebuild a private instance from the id alone."""
    try:
        return resolve_app_id(app.app_id) == app.app_id
    except KeyError:
        return False


@dataclass
class ObserveOutcome:
    """One observed round plus where its traces came from."""

    executions: List[TestExecution] = field(default_factory=list)
    cache_hit: bool = False
    #: Worker count that actually executed the round (1 on cache hits and
    #: serial/fallback paths).
    workers_used: int = 1
    #: Engine kind that produced the round ("cache" on hits).
    engine: str = "serial"

    @property
    def events_observed(self) -> int:
        return sum(len(e.log) for e in self.executions)


class ExecutionRuntime:
    """Shared execution runtime: trace cache + optional process pool.

    ``engine`` is a spec string: ``None``/``"auto"``/``"serial"`` run
    in-process; ``"process:N"`` fans jobs out over N worker processes
    (an unsized ``"process"`` takes ``os.cpu_count()``).  One runtime
    can serve many :class:`~repro.core.pipeline.Sherlock` instances (the
    experiment regenerators share one across all 8 apps), amortizing
    pool start-up and letting every caller reuse cached rounds.

    Pool contract: results come back in test/payload order; a job that
    raises propagates and leaves the pool healthy; a pool-level failure
    (``BrokenProcessPool``, ``OSError``: dead workers, sandbox, OOM)
    warns with ``RuntimeWarning`` and falls back to serial execution for
    good.  Unregistered apps always run serially, since workers rebuild
    apps from their registry id.

    Lifecycle: ``close()`` is idempotent; once closed, submitting work
    raises ``RuntimeError`` immediately instead of hanging on a dead
    pool.  A ``KeyboardInterrupt``/``SystemExit`` escaping mid-round
    closes the runtime before propagating, so no worker processes
    outlive an aborted run.
    """

    def __init__(
        self,
        engine: Optional[str] = None,
        cache: Optional[TraceCache] = None,
    ) -> None:
        kind, size = parse_engine_spec("auto" if engine is None else engine)
        #: "serial" or "process" (``"auto"`` resolves to serial).
        self.engine = "process" if kind == "process" else "serial"
        #: Pool size (1 for the serial engine).
        self.workers = 1 if kind != "process" else size or os.cpu_count() or 1
        self.cache = cache
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_broken = False
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    # -- core API ------------------------------------------------------------

    def observe_round(
        self,
        app: Application,
        config: SherlockConfig,
        round_index: int,
        delay_plan: Optional[DelayPlan] = None,
    ) -> ObserveOutcome:
        """Traces for one round: cached if seen before, else executed."""
        self._check_open()
        plan = dict(delay_plan or {})
        if self.cache is not None:
            key = self.round_key(app.app_id, config, round_index, plan)
            cached = self.cache.get(key)
            if cached is not None:
                return ObserveOutcome(cached, cache_hit=True, engine="cache")
        with self._teardown_on_interrupt():
            executions, workers_used = self._execute_round(
                app, config, round_index, plan
            )
        if self.cache is not None:
            self.cache.put(key, executions)
        return ObserveOutcome(
            executions, workers_used=workers_used, engine=self.engine
        )

    async def aobserve_round(
        self,
        app: Application,
        config: SherlockConfig,
        round_index: int,
        delay_plan: Optional[DelayPlan] = None,
    ) -> ObserveOutcome:
        """Async façade: :meth:`observe_round` in a worker thread."""
        return await asyncio.to_thread(
            self.observe_round, app, config, round_index, delay_plan
        )

    @staticmethod
    def round_key(
        app_id: str,
        config: SherlockConfig,
        round_index: int,
        delay_plan: Optional[DelayPlan],
    ) -> str:
        """Cache key of one round (only trace-determining fields —
        engine choice deliberately excluded)."""
        return round_key(
            app_id=app_id,
            seed=config.seed,
            op_cost=config.op_cost,
            max_steps=config.max_steps,
            delay_plan=delay_plan,
            round_index=round_index,
            schedule_policy=config.schedule_policy,
        )

    def map_jobs(
        self, fn: Callable[[Any], Any], payloads: List[Any]
    ) -> List[Any]:
        """Run ``fn`` over ``payloads``, one result per payload, in order.

        The campaign-level counterpart of :meth:`observe_round`'s
        per-test fan-out: for a process runtime ``fn`` must be a
        module-level function and every payload picklable.
        """
        self._check_open()
        with self._teardown_on_interrupt():
            results = self._pool_map(fn, payloads)
            if results is None:
                results = [fn(payload) for payload in payloads]
            return results

    # -- execution -----------------------------------------------------------

    def _execute_round(
        self,
        app: Application,
        config: SherlockConfig,
        round_index: int,
        plan: DelayPlan,
    ) -> Tuple[List[TestExecution], int]:
        if self.workers > 1 and _app_registered(app):
            frozen = freeze_delay_plan(plan)
            config_kwargs = asdict(config)
            payloads: List[WorkerPayload] = [
                (app.app_id, config_kwargs, round_index, frozen, test.qname)
                for test in app.tests
            ]
            executions = self._pool_map(execute_test_payload, payloads)
            if executions is not None:
                return executions, self.workers
        return Observer(config).observe_round(app, round_index, plan), 1

    def _pool_map(
        self, fn: Callable[[Any], Any], payloads: List[Any]
    ) -> Optional[List[Any]]:
        """``fn`` over ``payloads`` on the pool, in submission order, or
        ``None`` when the caller should run them serially (no pool, too
        little work, or the pool just failed)."""
        if self.workers < 2 or len(payloads) < 2 or self._pool_broken:
            return None
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return list(self._pool.map(fn, payloads))
        except (BrokenProcessPool, OSError) as exc:
            # Only pool-level failures fall back; a payload that raises
            # anything else propagates and the pool stays healthy.
            self._pool_broken = True
            self._shutdown_pool()
            warnings.warn(
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the cache stays usable)."""
        self._closed = True
        self._shutdown_pool()

    def _shutdown_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "ExecutionRuntime is closed; create a new runtime (a "
                "`with ExecutionRuntime(...)` block only spans its body)"
            )

    @contextmanager
    def _teardown_on_interrupt(self) -> Iterator[None]:
        """Close the runtime when an *interrupt-class* exception escapes.

        Ordinary ``Exception``s (a failing unit test, a bad payload)
        propagate with the pool left healthy; a
        ``KeyboardInterrupt``/``SystemExit`` mid-fan-out would otherwise
        leak live worker processes that hang interpreter shutdown.
        """
        try:
            yield
        except Exception:
            raise
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ExecutionRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        spec = f"process:{self.workers}" if self.engine == "process" else "serial"
        return f"ExecutionRuntime(engine={spec!r}, cache={self.cache!r})"


__all__ = [
    "ExecutionRuntime",
    "ObserveOutcome",
    "WorkerPayload",
    "execute_test_payload",
    "parse_engine_spec",
]
