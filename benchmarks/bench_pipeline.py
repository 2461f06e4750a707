"""Micro-benchmarks of the pipeline's components and execution modes.

The execution-mode trio (serial cold / parallel / warm cache) measures the
runtime layer's wall-clock leverage: on a multi-core box the process pool
beats serial cold, and the warm trace cache beats both by skipping test
execution entirely.  All three produce byte-identical serialized reports.
"""

import json

import repro
from repro.apps.registry import get_application
from repro.core import Sherlock, SherlockConfig, ObservationStore, WindowExtractor, infer
from repro.core.observer import Observer
from repro.core.serialize import report_to_dict
from repro.runtime import ExecutionRuntime, TraceCache


def _canonical(report):
    return json.dumps(report_to_dict(report), sort_keys=True)


def test_full_pipeline_one_app(benchmark):
    """End-to-end 3-round SherLock run on App-2 (serial cold baseline)."""

    def run():
        app = get_application("App-2")
        return Sherlock(app, SherlockConfig(rounds=3, seed=0)).run()

    report = benchmark(run)
    assert len(report.final.syncs) >= 4


def test_full_pipeline_parallel(benchmark):
    """Same run fanned out across a 4-worker process pool.

    The pool is created once (as a long-lived service would) so the
    benchmark measures steady-state parallel execution, not fork cost.
    """
    config = SherlockConfig(rounds=3, seed=0)
    baseline = _canonical(repro.run("App-2", config))
    with ExecutionRuntime(engine="process:4") as runtime:
        repro.run("App-2", config, engine=runtime)  # warm the pool up

        report = benchmark(lambda: repro.run("App-2", config, engine=runtime))
    assert _canonical(report) == baseline


def test_full_pipeline_warm_cache(benchmark):
    """Same run replayed from a warm in-memory trace cache."""
    config = SherlockConfig(rounds=3, seed=0)
    baseline = _canonical(repro.run("App-2", config))
    cache = TraceCache()
    repro.run("App-2", config, cache=cache)  # cold run populates the cache

    report = benchmark(lambda: repro.run("App-2", config, cache=cache))
    assert _canonical(report) == baseline
    assert report.metrics.cache_hits == 3  # every round served warm


def test_solver_only(benchmark):
    """LP encode+solve on App-1's accumulated observations."""
    app = get_application("App-1")
    config = SherlockConfig(rounds=1, seed=0)
    observer = Observer(config)
    store = ObservationStore()
    extractor = WindowExtractor(config.near, config.window_cap)
    for execution in observer.observe_round(app, 0, {}):
        store.ingest_run(execution.log, extractor.extract(execution.log))

    result = benchmark(lambda: infer(store, config))
    assert result.n_variables > 0


def test_tracing_only(benchmark):
    """One observed round of App-4's test suite."""
    app = get_application("App-4")
    config = SherlockConfig(seed=0)
    observer = Observer(config)

    executions = benchmark(lambda: observer.observe_round(app, 0, {}))
    assert sum(len(e.log) for e in executions) > 100
