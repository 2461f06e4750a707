"""The repository's benchmark: end-to-end metrics, or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload infer-xl --seed 0 --seconds 60 --trace 0

Workloads (see ``workloads.py``): ``infer-xl`` and ``fuzz-small``, which
``BENCHMARK.json`` declares, and ``predict-xl``, which it leaves out.
Every pass runs in a fresh interpreter (``worker.py``) on inputs from
its own workload seed (``input_seed``) and under a ``PYTHONHASHSEED``,
both derived from (seed, pass index), with the
BLAS/OpenMP thread pools capped at the number of usable cores.  Passes
repeat while another one fits in ``--seconds`` (at least one runs).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (fresh
interpreter to ready: imports, the first HiGHS solve, building the
apps; the median of at least five set-ups), ``wall_s``, ``cpu_s`` and
``events_per_s`` of the run's slowest pass, and the median
``peak_rss_mb`` of a pass.

``--trace 1`` runs pairs of passes under one hash seed, the first
untraced and the second with every layer's entry points wrapped
(``benchtrace.py``), and prints the per-layer metrics of the traced
pass, the tracing overhead against its untraced twin, and checks that
both serialize to the same digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the details: per-pass input and hash seeds and report digests,
the most distinct digests one input gave under different hash seeds
(``digest_variants``; above 1 means the report depends on the hash
seed), the output checks, the quality metrics (``sync_precision``,
``sync_recall``, ``races_predicted``, ``conversions_frac``,
``lambda_unstable_schedules``),
``failed_frac``, and the host (cores, load average, Python/numpy/scipy
versions).  Span files
and the details go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchtrace import per_layer_metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups measured per untraced run (passes plus set-up-only starts).
SETUP_SAMPLES = 5
#: No pass starts when one as long as the last would end past this.
DEADLINE_S = 140.0
#: Hard limit on one worker process.
WORKER_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def input_seed(seed: int, pass_index: int) -> int:
    """Workload seed of one pass.  Passes 0 and 1 share inputs, as do
    2 and 3, and so on: a run spans several inputs, because
    one input's cost varies by up to a third between seeds (infer-xl's
    encoder time, for one), while each pair runs one input under two
    hash seeds, so that ``digest_variants`` shows whether the report
    depends on the hash seed."""
    return seed * 1000 + 10 * (pass_index // 2)


def hash_seed(seed: int, pass_index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{pass_index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path, pass_hash_seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["PYTHONHASHSEED"] = str(pass_hash_seed)
    cores = str(usable_cores())
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = cores
    return env


def run_worker(
    root: Path,
    workload: str,
    seed: int,
    pass_index: int,
    pass_hash_seed: int,
    *,
    trace: bool = False,
    setup_only: bool = False,
    spans_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Start one worker; return its result with ``setup_s`` added."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--pass-id", str(pass_index),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=root,
        env=child_env(root, pass_hash_seed),
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_s = None
    result: Optional[Dict[str, Any]] = None
    try:
        for line in proc.stdout:
            if line.startswith("PERFBENCH READY"):
                setup_s = time.perf_counter() - t0
            elif line.startswith("PERFBENCH RESULT "):
                result = json.loads(line[len("PERFBENCH RESULT "):])
        returncode = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if returncode != 0 or setup_s is None:
        raise BenchError(
            f"worker for {workload} (pass {pass_index}) exited with "
            f"{returncode}"
        )
    if result is None:
        if not setup_only:
            raise BenchError(f"worker for {workload} printed no result")
        result = {}
    result["setup_s"] = setup_s
    result["input_seed"] = seed
    result["hash_seed"] = pass_hash_seed
    return result


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _repeat(seconds: float, t_start: float, once) -> List[Any]:
    """Call ``once(i)`` once, then again while a call as long as the
    last one would still end within ``seconds``; a run so takes about
    ``seconds`` whether the host is fast or slow at the moment."""
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(once(len(results)))
        now = time.perf_counter()
        if (now - t_start) + (now - t0) > min(seconds, DEADLINE_S):
            return results


def measure(root: Path, args, out_dir: Path) -> Dict[str, Any]:
    workload = WORKLOADS[args.workload]
    t_start = time.perf_counter()
    checks: List[Dict[str, bool]] = []
    details: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": usable_cores(),
        "loadavg_start": list(os.getloadavg()),
    }

    def untraced(i: int) -> Dict[str, Any]:
        return run_worker(
            root, workload.name, input_seed(args.seed, i), i,
            hash_seed(args.seed, i),
        )

    if args.trace:

        def pair(i: int):
            plain = untraced(i)
            traced = run_worker(
                root, workload.name, plain["input_seed"], i,
                plain["hash_seed"],
                trace=True,
                spans_out=out_dir / f"spans-{workload.name}-{args.seed}-{i}.jsonl",
            )
            return plain, traced

        pairs = _repeat(args.seconds, t_start, pair)
        passes = [p for pr in pairs for p in pr]
        for plain, traced in pairs:
            checks.append(plain["checks"])
            digest_ok = plain.get("digest") is not None and (
                plain.get("digest") == traced.get("digest")
            )
            checks.append(
                dict(traced["checks"], traced_digest_matches=digest_ok)
            )
            traced["layers"]["trace.overhead_frac"] = (
                traced["wall_s"] / plain["wall_s"] - 1.0
            )
        metrics = {
            name: {
                "value": _median([t["layers"][name] for _, t in pairs]),
                "unit": unit,
            }
            for name, unit, _ in per_layer_metric_specs()
        }
    else:
        passes = _repeat(args.seconds, t_start, untraced)
        checks = [p["checks"] for p in passes]
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(
                run_worker(
                    root, workload.name, args.seed, len(setups),
                    hash_seed(args.seed, len(setups)), setup_only=True,
                )["setup_s"]
            )
        details["setup_samples"] = setups
        # The slowest pass, not the median one: this host's cores run in
        # their usual, contended state most of the time but drop into a
        # ~2x faster one for seconds to minutes at random, and a run's
        # median follows that while its slowest pass mostly does not.
        values = {
            "setup_s": _median(setups),
            "wall_s": max(p["wall_s"] for p in passes),
            "cpu_s": max(p["cpu_s"] for p in passes),
            "events_per_s": min(
                p.get("events", 0) / p["wall_s"] for p in passes
            ),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }

    attempted = sum(len(c) for c in checks)
    failed = sum(1 for c in checks for ok in c.values() if not ok)
    plain_passes = [p for p in passes if "layers" not in p]
    details.update(
        loadavg_end=list(os.getloadavg()),
        versions=passes[0]["versions"],
        passes=[
            {
                "input_seed": p["input_seed"],
                "hash_seed": p["hash_seed"],
                "traced": "layers" in p,
                "digest": p.get("digest"),
                "events": p.get("events"),
                "setup_s": p["setup_s"],
                "wall_s": p["wall_s"],
                "cpu_s": p["cpu_s"],
                "peak_rss_mb": p["peak_rss_mb"],
                "failed_checks": sorted(
                    k for k, ok in p["checks"].items() if not ok
                ),
                "error": p["error"],
            }
            for p in passes
        ],
        digest_variants=max(
            len({p.get("digest") for p in plain_passes
                 if p["input_seed"] == seed})
            for seed in {p["input_seed"] for p in plain_passes}
        ),
        failed_frac={"value": failed / attempted, "unit": "ratio"},
        quality={
            name: {
                "value": _median(
                    [p["quality"][name] for p in plain_passes if "quality" in p]
                ),
                "unit": unit,
            }
            for name, unit in workload.quality
        },
    )
    return {
        "details": details,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the root of a repro checkout "
            "(src/repro not found)",
            file=sys.stderr,
        )
        return 2
    # Compile once, untimed, so no pass's set-up pays for bytecode.
    compileall.compile_dir(str(root / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        measured = measure(root, args, out_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    details_path = (
        out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    details_path.write_text(json.dumps(measured["details"], indent=2))
    print(json.dumps({"perfbench": measured["details"]}, sort_keys=True))
    print(json.dumps(measured["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
