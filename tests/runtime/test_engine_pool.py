"""Pool-failure semantics of the execution runtime's process pool.

Regression for the pool-poisoning bug: a *task-level* exception (one
payload raising) used to be swallowed by the serial fallback and mark the
pool broken for the rest of the process.  Only pool-level failures
(``BrokenProcessPool``, ``OSError``) may trigger the fallback; task
exceptions propagate and the pool stays healthy.
"""

import pytest

from repro.apps.registry import get_application
from repro.core import SherlockConfig
from repro.runtime import ExecutionRuntime


def _double(x):
    return 2 * x


def _boom(x):
    if x == 2:
        raise ValueError(f"payload {x} failed")
    return x


class _ExplodingPool:
    """Stands in for a pool whose workers died (pool-level failure)."""

    def map(self, fn, payloads):
        raise OSError("worker processes are gone")

    def shutdown(self, wait=True):
        pass


class TestTaskExceptions:
    def test_task_exception_propagates(self):
        with ExecutionRuntime(engine="process:2") as runtime:
            with pytest.raises(ValueError, match="payload 2 failed"):
                runtime.map_jobs(_boom, [1, 2, 3])

    def test_task_exception_does_not_poison_pool(self):
        with ExecutionRuntime(engine="process:2") as runtime:
            with pytest.raises(ValueError):
                runtime.map_jobs(_boom, [1, 2, 3])
            assert not runtime._pool_broken
            # The pool still serves parallel work afterwards.
            assert runtime.map_jobs(_double, [1, 2, 3]) == [2, 4, 6]

    def test_task_exception_emits_no_warning(self):
        import warnings

        with ExecutionRuntime(engine="process:2") as runtime:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError):
                    runtime.map_jobs(_boom, [1, 2, 3])


class TestPoolFailures:
    def test_pool_failure_falls_back_to_serial(self):
        runtime = ExecutionRuntime(engine="process:2")
        runtime._pool = _ExplodingPool()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = runtime.map_jobs(_double, [1, 2, 3])
        assert result == [2, 4, 6]
        assert runtime._pool_broken
        runtime.close()

    def test_broken_pool_stays_serial(self):
        runtime = ExecutionRuntime(engine="process:2")
        runtime._pool = _ExplodingPool()
        with pytest.warns(RuntimeWarning):
            runtime.map_jobs(_double, [1, 2])
        # No new pool is spun up once broken.
        assert runtime.map_jobs(_double, [4, 5]) == [8, 10]
        assert runtime._pool is None
        runtime.close()


class TestRoundFanOut:
    def test_round_falls_back_to_serial_on_pool_failure(self):
        app = get_application("App-5")
        config = SherlockConfig(rounds=1, seed=0)
        with ExecutionRuntime() as serial:
            expected = serial.observe_round(app, config, 0)
        with ExecutionRuntime(engine="process:2") as runtime:
            runtime._pool = _ExplodingPool()
            with pytest.warns(RuntimeWarning, match="falling back"):
                outcome = runtime.observe_round(app, config, 0)
        assert outcome.workers_used == 1
        assert [e.test_name for e in outcome.executions] == [
            e.test_name for e in expected.executions
        ]
        assert [len(e.log) for e in outcome.executions] == [
            len(e.log) for e in expected.executions
        ]

    def test_unregistered_app_runs_serially(self):
        app = get_application("App-5")
        app.info.app_id = "App-Unregistered"
        config = SherlockConfig(rounds=1, seed=0)
        with ExecutionRuntime(engine="process:2") as runtime:
            outcome = runtime.observe_round(app, config, 0)
            assert runtime._pool is None  # no pool was ever started
        assert outcome.workers_used == 1
        assert len(outcome.executions) == len(app.tests)
