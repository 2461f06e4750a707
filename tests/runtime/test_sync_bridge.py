"""Synchronous entry points and their async façades.

``repro.run()`` is plain synchronous code: callable without an event
loop and from inside a running one.  ``repro.arun()`` and
``ExecutionRuntime.aobserve_round()`` run the same synchronous work in a
worker thread, so an awaiting caller's event loop keeps turning.
"""

import asyncio
import json

import repro
from repro.core import SherlockConfig
from repro.core.serialize import report_to_dict
from repro.runtime import ExecutionRuntime


def canonical(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


class TestRunStaysSynchronous:
    def test_repro_run_works_without_event_loop(self):
        report = repro.run("App-5", SherlockConfig(rounds=1, seed=0))
        assert report.app_id == "App-5"

    def test_repro_run_works_inside_running_loop(self):
        async def call_run():
            return repro.run("App-5", SherlockConfig(rounds=1, seed=0))

        report = asyncio.run(call_run())
        assert report.app_id == "App-5"
        assert len(report.rounds) == 1


class TestAsyncFacades:
    def test_arun_leaves_the_loop_running(self):
        """A sibling ticker keeps advancing while ``arun`` is awaited,
        and the report is byte-identical to the synchronous run."""
        config = SherlockConfig(rounds=2, seed=0)
        expected = canonical(repro.run("App-2", config))

        async def main():
            ticks = 0
            done = False

            async def ticker():
                nonlocal ticks
                while not done:
                    ticks += 1
                    await asyncio.sleep(0)

            task = asyncio.create_task(ticker())
            report = await repro.arun("App-2", config)
            done = True
            await task
            return report, ticks

        report, ticks = asyncio.run(main())
        assert canonical(report) == expected
        assert ticks > 1

    def test_aobserve_round_matches_observe_round(self):
        app = repro.get_application("App-5")
        config = SherlockConfig(rounds=1, seed=0)
        with ExecutionRuntime() as rt:
            sync = rt.observe_round(app, config, 0)
            async_ = asyncio.run(rt.aobserve_round(app, config, 0))
        assert [len(e.log) for e in async_.executions] == [
            len(e.log) for e in sync.executions
        ]
        assert async_.engine == sync.engine == "serial"
