"""Differential tests for the analysis fast path.

Two independent equivalence contracts:

* the incremental encoder (``SherlockConfig(incremental=True)``, the
  default) must serialize byte-identically to the rebuild-from-scratch
  escape hatch (``incremental=False``) over full multi-round runs, and
* the indexed window extractor must return exactly the windows (same
  order, same sides) as the historical all-pairs scan on arbitrary logs.
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from repro.apps.registry import all_applications, app_ids, family_app_ids
from repro.core import SherlockConfig
from repro.core.encoder import IncrementalEncoder, build_model
from repro.core.pipeline import Sherlock
from repro.core.serialize import report_to_dict
from repro.core.stats import ObservationStore
from repro.core.windows import WindowExtractor
from repro.trace import OpType, TraceEvent, TraceLog

APP_IDS = [app.app_id for app in all_applications()]


def _canonical(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


@pytest.mark.parametrize("app_id", APP_IDS)
def test_incremental_matches_rebuild_reports(app_id):
    """incremental=True and incremental=False serialize byte-identically
    over a full 3-round run — every round's objective, LP sizes, syncs
    and probabilities."""
    fast = Sherlock(
        _app(app_id), SherlockConfig(rounds=3, incremental=True)
    ).run()
    slow = Sherlock(
        _app(app_id), SherlockConfig(rounds=3, incremental=False)
    ).run()
    assert _canonical(fast) == _canonical(slow)


def _app(app_id):
    from repro.apps.registry import get_application

    return get_application(app_id)


def test_incremental_appends_instead_of_rebuilding():
    """After round 1 the encoder patches the model: subsequent rounds
    report delta sizes strictly below the full LP size."""
    report = Sherlock(
        _app(APP_IDS[-1]), SherlockConfig(rounds=3, incremental=True)
    ).run()
    last = report.rounds[-1].metrics
    assert last.lp_delta_variables < last.lp_variables
    assert last.lp_delta_constraints < last.lp_constraints


SMALL_APP_IDS = app_ids() + family_app_ids()


def _round_logs(app_id, rounds):
    """Per-round trace logs of a default ``rounds``-round run."""
    logs = []
    Sherlock(
        _app(app_id),
        SherlockConfig(rounds=rounds),
        round_listener=lambda i, execs: logs.append([e.log for e in execs]),
    ).run()
    return logs


#: The small apps' logs are replayed under every ablation.
_small_app_logs = functools.lru_cache(maxsize=None)(_round_logs)


def _lowered(form):
    """Every value of a standard form the backends read, as plain lists
    (exact float comparison: the LP must be the same bit for bit)."""
    a_ub = csr_matrix(form.a_ub)
    a_eq = csr_matrix(form.a_eq)
    return {
        "c": form.c.tolist(),
        "a_ub.shape": a_ub.shape,
        "a_ub.indptr": a_ub.indptr.tolist(),
        "a_ub.indices": a_ub.indices.tolist(),
        "a_ub.data": a_ub.data.tolist(),
        "b_ub": form.b_ub.tolist(),
        "a_eq.shape": a_eq.shape,
        "a_eq.nnz": a_eq.nnz,
        "b_eq": form.b_eq.tolist(),
        "bounds": form.bounds,
        "names": [v.name for v in form.variables],
        "offset": form.objective_offset,
    }


def _replay_and_compare(app_id, logs, config, dense=True):
    """Ingest a run's ``logs`` round by round; after each round the
    incremental encoder's lowered LP must equal a fresh
    ``build_model(store)`` lowering.  Returns each round's
    ``last_rebuild``."""
    extractor = WindowExtractor(
        near=config.near,
        window_cap=config.window_cap,
        refine=config.enable_window_refinement,
    )
    store = ObservationStore()
    encoder = IncrementalEncoder(config)
    rebuilds = []
    for round_index, round_logs in enumerate(logs):
        for log in round_logs:
            store.ingest_run(log, extractor.extract(log))
        model, _ = encoder.encode(store)
        reference, _ = build_model(store, config)
        expected = (
            reference.to_standard_form() if dense
            else reference.to_sparse_form()
        )
        got = _lowered(model.to_sparse_form())
        want = _lowered(expected)
        for key in want:
            assert got[key] == want[key], (app_id, round_index, key)
        assert len(model.constraints) == len(reference.constraints)
        rebuilds.append(encoder.last_rebuild)
    return rebuilds


def test_incremental_encoder_model_equals_build_model():
    """Round by round, on all 10 apps, the incremental encoder's lowered
    LP (cover block concatenated) equals ``build_model(store)
    .to_standard_form()``: ``c``, ``a_ub`` CSR, ``b_ub``, bounds and
    variable names.  The replays include rounds where new racy pairs
    force a rebuild, and rounds that only append."""
    config = SherlockConfig(rounds=3)
    rebuilds = {
        app_id: _replay_and_compare(app_id, _small_app_logs(app_id, 3), config)
        for app_id in SMALL_APP_IDS
    }
    assert all(r[0] for r in rebuilds.values())
    assert any(not r for rs in rebuilds.values() for r in rs[1:])
    # App-6 adds a racy pair in round 1, App-5 in round 2.
    assert rebuilds["App-6"][1] and rebuilds["App-5"][2]


@pytest.mark.parametrize(
    "ablation",
    [
        {"hyp_mostly_protected": False},
        {"prop_read_acq_write_rel": False},
        {"enable_race_removal": False},
    ],
    ids=["no-mostly-protected", "no-read-acq-write-rel", "no-race-removal"],
)
def test_incremental_encoder_ablations_equal_build_model(ablation):
    config = SherlockConfig(rounds=3, **ablation)
    for app_id in SMALL_APP_IDS:
        _replay_and_compare(app_id, _small_app_logs(app_id, 3), config)


def test_incremental_encoder_equals_build_model_at_scale():
    """App-XL1, one round: the scale tier's cover block lowers exactly
    like ``build_model``'s rows (compared sparse: a dense lowering costs
    rows x columns x 8 bytes at this size)."""
    logs = _round_logs("App-XL1", 1)
    _replay_and_compare("App-XL1", logs, SherlockConfig(rounds=1), dense=False)


def test_rebuild_round_reports_not_incremental():
    """A round whose new racy pairs force a rebuild reports
    ``incremental=False`` and a delta equal to the whole LP; an
    appending round reports ``incremental=True``."""
    report = Sherlock(_app("App-6"), SherlockConfig(rounds=3)).run()
    rebuilt, appended = report.rounds[1], report.rounds[2]
    assert rebuilt.racy_pairs_total > report.rounds[0].racy_pairs_total
    assert rebuilt.inference.incremental is False
    assert rebuilt.metrics.lp_delta_variables == rebuilt.metrics.lp_variables
    assert (
        rebuilt.metrics.lp_delta_constraints
        == rebuilt.metrics.lp_constraints
    )
    assert appended.inference.incremental is True
    assert appended.metrics.lp_delta_variables < appended.metrics.lp_variables


FIELDS = ["C::a", "C::b", "D::x"]
METHODS = ["C::m", "D::n"]


@st.composite
def mixed_logs(draw):
    """Random multi-thread traces mixing memory accesses and calls."""
    n = draw(st.integers(2, 40))
    log = TraceLog()
    t = 0.0
    open_calls = {1: [], 2: [], 3: []}
    for _ in range(n):
        t += draw(st.floats(0.001, 0.05))
        tid = draw(st.integers(1, 3))
        kind = draw(st.integers(0, 3))
        if kind == 2:
            log.append(
                TraceEvent(
                    timestamp=t,
                    thread_id=tid,
                    optype=OpType.ENTER,
                    name=draw(st.sampled_from(METHODS)),
                    address=0,
                )
            )
            open_calls[tid].append(log.events[-1].name)
        elif kind == 3 and open_calls[tid]:
            log.append(
                TraceEvent(
                    timestamp=t,
                    thread_id=tid,
                    optype=OpType.EXIT,
                    name=open_calls[tid].pop(),
                    address=0,
                )
            )
        else:
            log.append(
                TraceEvent(
                    timestamp=t,
                    thread_id=tid,
                    optype=draw(
                        st.sampled_from([OpType.READ, OpType.WRITE])
                    ),
                    name=draw(st.sampled_from(FIELDS)),
                    address=draw(st.integers(1, 2)),
                )
            )
    return log


def _window_key(w):
    return (
        w.pair_key,
        w.a_time,
        w.b_time,
        w.racy,
        tuple(w.release_side.items()),
        tuple(w.acquire_side.items()),
    )


@given(mixed_logs(), st.floats(0.01, 2.0), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_indexed_extraction_equals_allpairs(log, near, cap):
    """The indexed fast path and the historical all-pairs scan must
    produce identical windows — same order, same sides (key order
    included, since downstream float identity depends on it)."""
    indexed = WindowExtractor(near=near, window_cap=cap, indexed=True)
    allpairs = WindowExtractor(near=near, window_cap=cap, indexed=False)
    wi = indexed.extract(log)
    wa = allpairs.extract(log)
    assert [_window_key(w) for w in wi] == [_window_key(w) for w in wa]


@given(mixed_logs(), st.floats(0.01, 1.0))
@settings(max_examples=40, deadline=None)
def test_indexed_extraction_equals_allpairs_with_refinement(log, near):
    indexed = WindowExtractor(
        near=near, window_cap=5, refine=True, indexed=True
    )
    allpairs = WindowExtractor(
        near=near, window_cap=5, refine=True, indexed=False
    )
    assert [_window_key(w) for w in indexed.extract(log)] == [
        _window_key(w) for w in allpairs.extract(log)
    ]
