"""The execution runtime's engine surface: spec parsing, how ``engine=``
arguments become a runtime, the CLI's ``--engine``/``--workers``
folding, ``repro.arun``, and runtime lifecycle guarantees.

The byte-identity matrix (serial == process == cached) lives in
``test_runtime_determinism.py``; this file covers the API surface and
the engine-specific semantics around it.
"""

import asyncio
import json
import os
import warnings

import pytest

import repro
from repro.cli import _engine_spec, main
from repro.core import SherlockConfig
from repro.core.serialize import report_to_dict
from repro.fuzz import CampaignConfig
from repro.predict import PowerConfig
from repro.predict.convert import ConvertConfig
from repro.runtime import ExecutionRuntime, TraceCache, parse_engine_spec


def canonical(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def _square(x):
    return x * x


# -- spec parsing ------------------------------------------------------------


class TestParseEngineSpec:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("auto", ("auto", None)),
            ("serial", ("serial", None)),
            ("process", ("process", None)),
            ("process:4", ("process", 4)),
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_engine_spec(spec) == expected

    @pytest.mark.parametrize(
        "spec",
        ["threads", "process:0", "process:-1", "process:x", "serial:2",
         "auto:4", "", "async", "async:8"],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_engine_spec(spec)

    def test_non_string_raises_type_error(self):
        with pytest.raises(TypeError):
            parse_engine_spec(4)


def _rejects_via_run(spec):
    repro.run("App-5", SherlockConfig(rounds=1), engine=spec)


def _rejects_via_config(spec):
    SherlockConfig(engine=spec).validate()


def _rejects_via_runtime(spec):
    ExecutionRuntime(engine=spec)


def _rejects_via_campaign(spec):
    CampaignConfig(app_ids=["App-7"], engine=spec).validate()


def _rejects_via_power(spec):
    PowerConfig(app_ids=["App-7"], engine=spec).validate()


def _rejects_via_convert(spec):
    ConvertConfig(app_ids=["App-5"], engine=spec).validate()


@pytest.mark.parametrize("spec", ["async", "async:2"])
@pytest.mark.parametrize(
    "entry",
    [
        _rejects_via_run,
        _rejects_via_config,
        _rejects_via_runtime,
        _rejects_via_campaign,
        _rejects_via_power,
        _rejects_via_convert,
    ],
    ids=["run", "config", "runtime", "campaign", "power", "convert"],
)
def test_async_spec_rejected_by_every_entry_point(entry, spec):
    """The async engine is gone: every entry point names the valid
    kinds instead of silently falling back."""
    with pytest.raises(ValueError, match=r"'serial', 'process'"):
        entry(spec)


@pytest.mark.parametrize("spec", ["async", "async:2"])
def test_async_spec_rejected_by_cli(spec, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--engine", spec, "infer", "App-5"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# -- engine= arguments -------------------------------------------------------


class TestCoerceEngine:
    """How an ``engine=`` argument becomes a runtime, including the
    CLI's ``--engine``/``--workers`` folding into one spec string."""

    def test_default_is_serial(self):
        for spec in (None, "auto", "serial"):
            rt = ExecutionRuntime(engine=spec)
            assert (rt.engine, rt.workers) == ("serial", 1)

    def test_auto_with_workers_picks_process_pool(self):
        spec = _engine_spec(None, 3)
        assert spec == "process:3"
        rt = ExecutionRuntime(engine=spec)
        assert (rt.engine, rt.workers) == ("process", 3)

    def test_sized_specs(self):
        assert ExecutionRuntime(engine="process:5").workers == 5

    def test_unsized_specs_size_from_default_workers(self):
        assert _engine_spec("process", 6) == "process:6"
        assert _engine_spec("serial", 6) == "serial"

    def test_unsized_specs_fall_back_to_cpu_count(self):
        assert _engine_spec("process", 1) == "process"
        rt = ExecutionRuntime(engine="process")
        assert rt.workers == (os.cpu_count() or 1)

    def test_engine_instance_passes_through(self):
        """A caller-owned runtime is used as-is (its cache wins) and
        stays open for the next call."""
        config = SherlockConfig(rounds=1, seed=0)
        cache = TraceCache()
        with ExecutionRuntime(cache=cache) as rt:
            repro.run("App-5", config, engine=rt, cache=None)
            assert not rt.closed
            warm = repro.run("App-5", config, engine=rt)
        assert warm.metrics.cache_hits == 1

    def test_config_rejects_bad_spec_at_construction(self):
        with pytest.raises(ValueError, match="engine spec"):
            SherlockConfig(engine="threads")
        assert SherlockConfig(engine="process:2").engine == "process:2"


class TestLegacyKwargShims:
    """``workers`` survives only as the CLI's ``--workers`` knob, folded
    into an engine spec; the library kwargs are gone."""

    def test_workers_one_maps_to_serial(self):
        assert _engine_spec(None, 1) == "serial"

    def test_workers_n_maps_to_process_pool(self):
        assert _engine_spec(None, 4) == "process:4"

    @pytest.mark.parametrize(
        "kwargs", [{"workers": 2}, {"runtime": None}]
    )
    def test_removed_run_kwargs_raise_type_error(self, kwargs):
        with pytest.raises(TypeError):
            repro.run("App-5", SherlockConfig(rounds=1), **kwargs)

    def test_removed_entry_points_are_gone(self):
        assert not hasattr(repro, "run_sherlock")
        assert not hasattr(repro.core, "run_sherlock")
        with pytest.raises(TypeError):
            ExecutionRuntime(workers=2)
        with pytest.raises(TypeError):
            CampaignConfig(app_ids=["App-7"], workers=2)

    def test_new_api_emits_no_deprecation_warning(self):
        config = SherlockConfig(rounds=1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.run("App-5", config, engine="serial", cache="memory")


# -- rounds and the async entry point ----------------------------------------


class TestAsyncEngineRounds:
    """Rounds driven through ``repro.arun`` (the async entry point over
    the synchronous engines) and the engine metrics rounds carry."""

    def test_round_metrics_surface_in_report(self):
        config = SherlockConfig(rounds=2, seed=0)
        report = repro.run("App-7", config, engine="process:2")
        assert [r.metrics.workers for r in report.rounds] == [2, 2]
        assert "workers=2" in report.metrics.describe()

    def test_arun_matches_sync_run(self):
        config = SherlockConfig(rounds=2, seed=0)
        baseline = repro.run("App-7", config)
        report = asyncio.run(repro.arun("App-7", config))
        assert canonical(report) == canonical(baseline)

    def test_arun_with_memory_cache_replays_identically(self):
        config = SherlockConfig(rounds=2, seed=0)
        cache = TraceCache()

        async def twice():
            cold = await repro.arun("App-7", config, cache=cache)
            warm = await repro.arun("App-7", config, cache=cache)
            return cold, warm

        cold, warm = asyncio.run(twice())
        assert canonical(cold) == canonical(warm)
        assert warm.metrics.cache_hits == 2
        assert warm.metrics.cache_misses == 0  # nothing ran


# -- runtime lifecycle -------------------------------------------------------


class TestRuntimeLifecycle:
    def test_close_is_idempotent(self):
        rt = ExecutionRuntime(engine="process:2")
        rt.close()
        rt.close()
        assert rt.closed

    def test_closed_runtime_rejects_work(self):
        rt = ExecutionRuntime()
        rt.close()
        with pytest.raises(RuntimeError, match="closed"):
            rt.map_jobs(lambda x: x, [1])
        with pytest.raises(RuntimeError, match="closed"):
            rt.observe_round(
                repro.get_application("App-5"), SherlockConfig(), 0
            )

    def test_engine_close_is_idempotent(self):
        for spec in ("serial", "process:2"):
            rt = ExecutionRuntime(engine=spec)
            assert rt.map_jobs(_square, [1, 2, 3]) == [1, 4, 9]
            rt.close()
            rt.close()
            assert rt._pool is None

    def test_interrupt_tears_runtime_down(self):
        rt = ExecutionRuntime()

        def interrupt(_):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            rt.map_jobs(interrupt, [1])
        assert rt.closed

    def test_ordinary_exception_leaves_runtime_open(self):
        rt = ExecutionRuntime()

        def boom(_):
            raise ValueError("job failed")

        with pytest.raises(ValueError):
            rt.map_jobs(boom, [1])
        assert not rt.closed
        assert rt.map_jobs(lambda x: x * 2, [3]) == [6]
        rt.close()

    def test_runtime_reports_engine_name_in_outcome(self):
        config = SherlockConfig(rounds=1, seed=0)
        app = repro.get_application("App-5")
        with ExecutionRuntime(engine="process:2") as rt:
            outcome = rt.observe_round(app, config, 0)
        assert outcome.engine == "process"
        assert outcome.workers_used == 2

    def test_cache_hit_skips_engine(self):
        config = SherlockConfig(rounds=1, seed=0)
        app = repro.get_application("App-5")
        cache = TraceCache()
        with ExecutionRuntime(engine="serial", cache=cache) as rt:
            rt.observe_round(app, config, 0)
            outcome = rt.observe_round(app, config, 0)
        assert outcome.cache_hit
        assert outcome.engine == "cache"
        assert outcome.workers_used == 1
