"""Execution runtime: process-pool fan-out, trace caching, run metrics.

The runtime layer sits between the SherLock pipeline and the simulator:

* :class:`ExecutionRuntime` — consults a trace cache, then executes a
  round's unit tests in-process or across an optional process pool
  (``engine="serial" | "process[:N]"``); synchronous, with a one-line
  ``asyncio.to_thread`` façade (``aobserve_round``) for async callers;
* :class:`TraceCache` — content-addressed memoization of observed rounds
  (in-memory LRU + optional on-disk JSON store under ``.repro_cache/``);
* :class:`RunMetrics` — per-phase timings and cache/LP counters surfaced
  on round results and reports.

Process-pool and cached runs are guaranteed to serialize byte-identically
to serial cold runs; see DESIGN.md § "Runtime" and § "Engines".
"""

from .cache import (
    CACHE_FORMAT_VERSION,
    DEFAULT_CACHE_DIR,
    TraceCache,
    freeze_delay_plan,
    round_key,
    thaw_delay_plan,
)
from .engine import (
    ExecutionRuntime,
    ObserveOutcome,
    execute_test_payload,
    parse_engine_spec,
)
from .metrics import RunMetrics

__all__ = [
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "ExecutionRuntime",
    "ObserveOutcome",
    "RunMetrics",
    "TraceCache",
    "execute_test_payload",
    "freeze_delay_plan",
    "parse_engine_spec",
    "round_key",
    "thaw_delay_plan",
]
