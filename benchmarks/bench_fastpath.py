"""Analysis fast-path benchmarks: indexed extraction + incremental re-solve.

Measures, per application, the two fast paths this repo's analysis layer
ships against their reference implementations:

* **window extraction** — the indexed conflict-group scan
  (``WindowExtractor(indexed=True)``, the default) vs the historical
  all-pairs scan, over every trace a full multi-round run produces;
* **round-N re-solve** — the final round's ``infer`` with an
  :class:`~repro.core.encoder.IncrementalEncoder` (append + columnar
  cover block) vs the rebuild-from-scratch path;
* **backend solve** — the final-round LP solved once per backend
  (scipy, the sparse revised simplex, the dense tableau reference), a
  like-for-like comparison on the identical model.

Both pairs are *equivalence-checked first* (identical windows, identical
solver outputs), so the timings compare implementations of the same
function.  ``tools/bench_report.py`` drives :func:`run_suite` and writes
the results to ``BENCH_PR3.json``.

The **scale tier** (:func:`run_scale_suite`) benchmarks the synthetic
``App-XL1..XL3`` workloads: each backend's cold solve runs in its own
subprocess (clean peak-RSS accounting, and a wall-clock budget the dense
tableau will blow at these sizes — a run that exceeds the budget is
recorded at the budget with ``capped: true``, an honest lower bound).
The scale tier skips scipy (its interior-point path is minutes per solve
here) and skips the extraction/re-solve pairs — it exists to compare the
two built-in simplex backends where their asymptotics separate.

Run directly for a quick look::

    PYTHONPATH=src python benchmarks/bench_fastpath.py App-2 App-8
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.apps.registry import all_applications, get_application
from repro.core import SherlockConfig
from repro.core.encoder import IncrementalEncoder, build_model
from repro.core.pipeline import Sherlock
from repro.core.solver import infer
from repro.core.stats import ObservationStore
from repro.core.windows import WindowExtractor

DEFAULT_ROUNDS = 3
DEFAULT_REPEATS = 5

#: Denominator floor for speedup/rate ratios: a sub-nanosecond timing is
#: measurement noise, and dividing by it would write ``inf``/``nan``
#: into the BENCH json (which strict JSON parsers — and the CI gate —
#: reject).
MIN_TIMING_DENOMINATOR_S = 1e-9


def safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with the denominator clamped away
    from zero, so fast machines can't push ``inf``/``nan`` into the
    report."""
    return numerator / max(denominator, MIN_TIMING_DENOMINATOR_S)


def collect_round_logs(
    app_id: str, rounds: int = DEFAULT_ROUNDS, seed: int = 0
) -> List[List]:
    """Run the full pipeline once and capture each round's trace logs."""
    logs_by_round: Dict[int, List] = {}
    config = SherlockConfig(rounds=rounds, seed=seed)
    Sherlock(
        get_application(app_id),
        config,
        round_listener=lambda i, execs: logs_by_round.setdefault(
            i, [e.log for e in execs]
        ),
    ).run()
    return [logs_by_round[i] for i in sorted(logs_by_round)]


def bench_extraction(
    logs: List, config: SherlockConfig, repeats: int = DEFAULT_REPEATS
) -> Dict[str, float]:
    """Best-of-N extraction wall-clock, indexed vs all-pairs, plus an
    equivalence check over every log."""
    timings: Dict[str, float] = {}
    window_counts = {}
    for label, indexed in (("indexed", True), ("allpairs", False)):
        extractor = WindowExtractor(
            near=config.near, window_cap=config.window_cap, indexed=indexed
        )
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            count = 0
            for log in logs:
                count += len(extractor.extract(log))
            best = min(best, time.perf_counter() - t0)
        timings[f"extract_{label}_s"] = best
        window_counts[label] = count
    if window_counts["indexed"] != window_counts["allpairs"]:
        raise AssertionError(
            "indexed and all-pairs extraction disagree: "
            f"{window_counts['indexed']} != {window_counts['allpairs']}"
        )
    events = sum(len(log) for log in logs)
    timings["events"] = events
    timings["windows"] = window_counts["indexed"]
    timings["extract_events_per_s"] = safe_ratio(
        events, timings["extract_indexed_s"]
    )
    timings["extract_speedup"] = safe_ratio(
        timings["extract_allpairs_s"], timings["extract_indexed_s"]
    )
    return timings


def bench_resolve(
    logs_by_round: List[List],
    config: SherlockConfig,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, float]:
    """Best-of-N wall-clock of the *final* round's ``infer``:
    incremental (append + columnar cover block) vs rebuild-from-scratch."""
    extractor = WindowExtractor(
        near=config.near, window_cap=config.window_cap
    )
    windows_by_round = [
        [(log, extractor.extract(log)) for log in round_logs]
        for round_logs in logs_by_round
    ]

    def final_round_time(encoder: Optional[IncrementalEncoder]) -> float:
        store = ObservationStore()
        last = 0.0
        for round_windows in windows_by_round:
            for log, windows in round_windows:
                store.ingest_run(log, windows)
            t0 = time.perf_counter()
            infer(store, config, encoder=encoder)
            last = time.perf_counter() - t0
        return last

    incremental = min(
        final_round_time(IncrementalEncoder(config))
        for _ in range(repeats)
    )
    rebuild = min(final_round_time(None) for _ in range(repeats))
    return {
        "resolve_incremental_s": incremental,
        "resolve_rebuild_s": rebuild,
        "resolve_speedup": safe_ratio(rebuild, incremental),
    }


def bench_warm_phase1(
    logs_by_round: List[List], config: SherlockConfig
) -> Dict[str, int]:
    """Phase-1 work done by the warm-started (incremental) rounds: with
    the carried-basis portfolio in place this must be zero, and the CI
    gate (``tools/bench_report.py``) holds it there.  Runs the built-in
    revised simplex explicitly — the phase-1/dual counters are its
    observability; scipy's are always zero."""
    config = config.without(backend="simplex")
    extractor = WindowExtractor(
        near=config.near, window_cap=config.window_cap
    )
    store = ObservationStore()
    encoder = IncrementalEncoder(config)
    phase1 = 0
    skipped = 0
    for round_index, round_logs in enumerate(logs_by_round):
        for log in round_logs:
            store.ingest_run(log, extractor.extract(log))
        inference = infer(store, config, encoder=encoder)
        if round_index > 0:
            phase1 += inference.lp_phase1_iterations
            skipped += 1 if inference.lp_phase1_skipped else 0
    return {
        "warm_phase1_iterations": phase1,
        "warm_phase1_skipped": skipped,
    }


#: Backends timed by :func:`bench_backends`, keyed by the suffix used in
#: the result dict (``solve_<key>_s``).
BACKENDS = {
    "scipy": "scipy",
    "revised": "revised-simplex",
    "dense_tableau": "dense-tableau",
}


def bench_backends(
    logs_by_round: List[List],
    config: SherlockConfig,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, float]:
    """Best-of-N wall-clock of one cold solve of the *final* round's LP,
    per backend, on the identical model built once up front."""
    extractor = WindowExtractor(
        near=config.near, window_cap=config.window_cap
    )
    store = ObservationStore()
    for round_logs in logs_by_round:
        for log in round_logs:
            store.ingest_run(log, extractor.extract(log))
    model, _registry = build_model(store, config)

    timings: Dict[str, float] = {}
    objectives = {}
    for key, backend in BACKENDS.items():
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            solution = model.solve(backend=backend)
            best = min(best, time.perf_counter() - t0)
        timings[f"solve_{key}_s"] = best
        objectives[key] = solution.objective
    spread = max(objectives.values()) - min(objectives.values())
    if spread > 1e-6:
        raise AssertionError(
            f"backends disagree on the final-round objective: {objectives}"
        )
    return timings


def bench_app(
    app_id: str,
    rounds: int = DEFAULT_ROUNDS,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
) -> Dict[str, float]:
    """All fast-path measurements for one application."""
    config = SherlockConfig(rounds=rounds, seed=seed)
    logs_by_round = collect_round_logs(app_id, rounds=rounds, seed=seed)
    flat = [log for round_logs in logs_by_round for log in round_logs]
    result: Dict[str, float] = {"app_id": app_id, "rounds": rounds}
    result.update(bench_extraction(flat, config, repeats))
    result.update(bench_resolve(logs_by_round, config, repeats))
    result.update(bench_backends(logs_by_round, config, repeats))
    result.update(bench_warm_phase1(logs_by_round, config))
    return result


def run_suite(
    app_ids: Optional[List[str]] = None,
    rounds: int = DEFAULT_ROUNDS,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
) -> Dict:
    """Benchmark every requested app (default: all registered apps)."""
    if app_ids is None:
        app_ids = [app.app_id for app in all_applications()]
    apps = [
        bench_app(app_id, rounds=rounds, repeats=repeats, seed=seed)
        for app_id in app_ids
    ]
    return {
        "benchmark": "fastpath",
        "rounds": rounds,
        "repeats": repeats,
        "seed": seed,
        "apps": apps,
    }


# -- scale tier -----------------------------------------------------------------

#: Backends timed on the scale tier.  scipy is deliberately absent: its
#: interior-point solver takes minutes per scale-tier LP, and the tier
#: exists to compare the two built-in simplex backends.
SCALE_BACKENDS = {
    "revised": "revised-simplex",
    "dense_tableau": "dense-tableau",
}

#: Wall-clock budget for one scale-tier cold solve.  A backend that
#: exceeds it is recorded *at* the budget with ``capped: true`` — an
#: honest lower bound on its solve time (the dense tableau needs days,
#: not minutes, on the larger configs).
DEFAULT_SCALE_BUDGET_S = 900.0

#: Extra subprocess wall-clock on top of the solve budget for building
#: the workload (trace generation + ingest + encode + lowering).
_SCALE_BUILD_ALLOWANCE_S = 300.0


def collect_scale_logs(app_id: str, rounds: int, seed: int) -> List:
    """Generate a scale app's unperturbed round traces via the program
    API only (no pipeline: a pipeline run would *solve* every round,
    tripling the cost of producing a workload we only want to solve
    once per backend)."""
    from repro.sim.runner import RunOptions, run_unit_test

    app = get_application(app_id)
    logs = []
    for round_id in range(rounds):
        for test in app.tests:
            execution = run_unit_test(
                app, test, RunOptions(seed=seed, run_id=round_id)
            )
            if execution.error is not None:
                raise RuntimeError(
                    f"{app_id} test failed: {execution.error}"
                )
            logs.append(execution.log)
    return logs


def scale_worker(app_id: str, backend: str, rounds: int, seed: int) -> Dict:
    """Build the scale workload and run one cold solve — the subprocess
    body behind :func:`bench_scale_app`.  Returns (and ``--scale-worker``
    prints) a flat result dict including this process's peak RSS."""
    import resource

    config = SherlockConfig(rounds=rounds, seed=seed)
    t0 = time.perf_counter()
    logs = collect_scale_logs(app_id, rounds, seed)
    extractor = WindowExtractor(
        near=config.near, window_cap=config.window_cap
    )
    store = ObservationStore()
    for log in logs:
        store.ingest_run(log, extractor.extract(log))
    windows = store.stats()["windows"]
    model, _registry = build_model(store, config)
    form = model.to_sparse_form()
    build_s = time.perf_counter() - t0

    from repro.lp import backends as lp_backends

    t0 = time.perf_counter()
    solution = lp_backends.solve(model, backend, form=form)
    solve_s = time.perf_counter() - t0
    if not solution.is_optimal:
        raise RuntimeError(
            f"{backend} on {app_id} ended {solution.status.value}"
        )
    stats = model.stats()
    return {
        "app_id": app_id,
        "backend": backend,
        "rounds": rounds,
        "seed": seed,
        "windows": windows,
        "lp_variables": stats["variables"],
        "lp_constraints": stats["constraints"],
        "build_s": build_s,
        "solve_s": solve_s,
        "objective": solution.objective,
        "iterations": solution.iterations,
        "factorizations": solution.factorizations,
        "refactorizations": solution.refactorizations,
        "factorize_s": solution.factorize_s,
        "ftran_btran_s": solution.ftran_btran_s,
        "pricing_s": solution.pricing_s,
        "eta_len": solution.eta_len,
        "presolve_s": solution.presolve_s,
        "presolve_rows": solution.presolve_rows_eliminated,
        "presolve_cols": solution.presolve_cols_eliminated,
        "phase1_iterations": solution.phase1_iterations,
        "phase1_skipped": bool(solution.phase1_skipped),
        "dual_iterations": solution.dual_iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        // 1024,
        "capped": False,
    }


def scale_warm_worker(app_id: str, rounds: int, seed: int) -> Dict:
    """Incremental multi-round solve at scale — the subprocess body
    behind the ``warm`` leg of :func:`bench_scale_app`.  Runs the
    encoder's carried-basis path round by round and reports per-round
    solve time plus the phase-1/dual counters the gate asserts on
    (warm rounds must do zero phase-1 iterations)."""
    import resource

    from repro.sim.runner import RunOptions, run_unit_test

    config = SherlockConfig(rounds=rounds, seed=seed, backend="simplex")
    app = get_application(app_id)
    extractor = WindowExtractor(
        near=config.near,
        window_cap=config.window_cap,
        refine=config.enable_window_refinement,
        indexed=True,
    )
    store = ObservationStore()
    encoder = IncrementalEncoder(config)
    per_round = []
    for round_id in range(rounds):
        for test in app.tests:
            execution = run_unit_test(
                app, test, RunOptions(seed=seed, run_id=round_id)
            )
            if execution.error is not None:
                raise RuntimeError(
                    f"{app_id} test failed: {execution.error}"
                )
            store.ingest_run(
                execution.log, extractor.extract(execution.log)
            )
        t0 = time.perf_counter()
        inference = infer(store, config, encoder=encoder)
        per_round.append(
            {
                "round": round_id,
                "solve_s": time.perf_counter() - t0,
                "iterations": inference.lp_pivots,
                "phase1_iterations": inference.lp_phase1_iterations,
                "phase1_skipped": bool(inference.lp_phase1_skipped),
                "dual_iterations": inference.lp_dual_iterations,
                "presolve_rows": inference.lp_presolve_rows_eliminated,
                "presolve_cols": inference.lp_presolve_cols_eliminated,
            }
        )
    warm_rounds = per_round[1:]
    return {
        "app_id": app_id,
        "rounds": rounds,
        "seed": seed,
        "per_round": per_round,
        "solve_s": sum(r["solve_s"] for r in per_round),
        "phase1_iterations": sum(
            r["phase1_iterations"] for r in warm_rounds
        ),
        "phase1_skipped": sum(
            1 for r in warm_rounds if r["phase1_skipped"]
        ),
        "dual_iterations": sum(r["dual_iterations"] for r in warm_rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        // 1024,
        "capped": False,
    }


def _run_scale_worker(
    app_id: str, backend: str, rounds: int, seed: int, budget_s: float
) -> Dict:
    """One cold solve in a fresh subprocess: clean per-backend peak-RSS
    and a kill switch for solves that blow the budget."""
    repo_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(repo_root, "src"), repo_root]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--scale-worker",
        app_id,
        backend,
        "--rounds",
        str(rounds),
        "--seed",
        str(seed),
    ]
    try:
        proc = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=budget_s + _SCALE_BUILD_ALLOWANCE_S,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return {
            "app_id": app_id,
            "backend": backend,
            "rounds": rounds,
            "seed": seed,
            "solve_s": float(budget_s),
            "capped": True,
        }
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale worker {app_id}/{backend} failed:\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["solve_s"] > budget_s:
        # Finished, but past the budget: record the cap so the gate
        # treats it like the timeout it effectively was.
        result["capped"] = True
        result["solve_s"] = float(budget_s)
    return result


def _run_scale_warm(
    app_id: str, rounds: int, seed: int, budget_s: float
) -> Dict:
    """The warm leg in a fresh subprocess, budget-capped like a cold
    solve (the whole multi-round incremental run shares one budget)."""
    repo_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(repo_root, "src"), repo_root]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--scale-warm-worker",
        app_id,
        "--rounds",
        str(rounds),
        "--seed",
        str(seed),
    ]
    try:
        proc = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=budget_s + _SCALE_BUILD_ALLOWANCE_S,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return {
            "app_id": app_id,
            "rounds": rounds,
            "seed": seed,
            "solve_s": float(budget_s),
            "capped": True,
        }
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale warm worker {app_id} failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def bench_scale_app(
    app_id: str,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = 0,
    budget_s: float = DEFAULT_SCALE_BUDGET_S,
    backend_keys: Optional[List[str]] = None,
    warm: bool = False,
) -> Dict:
    """Scale-tier measurements for one synthetic app: per-backend cold
    solve (subprocess-isolated, budget-capped), LP shape, peak RSS, and
    with ``warm`` an incremental multi-round leg whose warm rounds the
    gate requires to skip phase 1."""
    keys = list(backend_keys or SCALE_BACKENDS)
    entry: Dict = {
        "app_id": app_id,
        "tier": "scale",
        "rounds": rounds,
        "seed": seed,
        "backends": {},
    }
    if warm:
        warm_result = _run_scale_warm(app_id, rounds, seed, budget_s)
        entry["warm"] = {
            k: v
            for k, v in warm_result.items()
            if k not in ("app_id", "rounds", "seed")
        }
    objectives = {}
    for key in keys:
        result = _run_scale_worker(
            app_id, SCALE_BACKENDS[key], rounds, seed, budget_s
        )
        if not result.get("capped"):
            for field in ("windows", "lp_variables", "lp_constraints"):
                entry.setdefault(field, result[field])
            objectives[key] = result["objective"]
        entry["backends"][key] = {
            k: v
            for k, v in result.items()
            if k not in ("app_id", "rounds", "seed")
        }
    if len(objectives) > 1:
        spread = max(objectives.values()) - min(objectives.values())
        if spread > 1e-6:
            raise AssertionError(
                f"scale backends disagree on {app_id}: {objectives}"
            )
    return entry


def run_scale_suite(
    app_ids: Optional[List[str]] = None,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = 0,
    budget_s: float = DEFAULT_SCALE_BUDGET_S,
    backend_keys: Optional[List[str]] = None,
    warm: bool = False,
) -> List[Dict]:
    """Benchmark the scale tier (default: every registered scale app)."""
    from repro.apps.registry import scale_app_ids

    if app_ids is None:
        app_ids = scale_app_ids()
    return [
        bench_scale_app(
            app_id,
            rounds=rounds,
            seed=seed,
            budget_s=budget_s,
            backend_keys=backend_keys,
            warm=warm,
        )
        for app_id in app_ids
    ]


def main(argv: Optional[List[str]] = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("apps", nargs="*", help="app ids (default: all)")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale-worker",
        nargs=2,
        metavar=("APP_ID", "BACKEND"),
        default=None,
        help="internal: run one scale cold solve and print JSON",
    )
    parser.add_argument(
        "--scale-warm-worker",
        metavar="APP_ID",
        default=None,
        help="internal: run one incremental warm-round leg and print JSON",
    )
    args = parser.parse_args(argv)
    if args.scale_worker is not None:
        app_id, backend = args.scale_worker
        result = scale_worker(app_id, backend, args.rounds, args.seed)
        print(json.dumps(result))
        return
    if args.scale_warm_worker is not None:
        result = scale_warm_worker(
            args.scale_warm_worker, args.rounds, args.seed
        )
        print(json.dumps(result))
        return
    suite = run_suite(args.apps or None, args.rounds, args.repeats)
    for entry in suite["apps"]:
        print(
            f"{entry['app_id']}: extract {entry['extract_indexed_s']*1e3:.2f}ms "
            f"({entry['extract_speedup']:.1f}x vs all-pairs, "
            f"{entry['extract_events_per_s']:.0f} events/s), "
            f"round-{suite['rounds']} re-solve "
            f"{entry['resolve_incremental_s']*1e3:.2f}ms "
            f"({entry['resolve_speedup']:.1f}x vs rebuild), "
            f"cold solve scipy {entry['solve_scipy_s']*1e3:.2f}ms / "
            f"revised {entry['solve_revised_s']*1e3:.2f}ms / "
            f"dense {entry['solve_dense_tableau_s']*1e3:.2f}ms"
        )


if __name__ == "__main__":
    main()
