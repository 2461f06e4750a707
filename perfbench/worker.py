"""One benchmark pass in a fresh interpreter (started by ``run.py``).

Set-up (imports, first-call costs, building the workload's apps) runs
first and is announced with a ``PERFBENCH READY`` line, so the parent
can time it from process start.  Then one pass runs, traced or not; only
the program call is timed, and its result is digested and checked
afterwards.  The outcome is printed as one ``PERFBENCH RESULT {json}``
line.  A pass that raises is reported as failing every check it
attempted; a set-up that fails exits non-zero.

    python3 perfbench/worker.py --workload infer-xl --seed 0 --pass-id 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from workloads import WORKLOADS


def _emit(kind: str, payload: str = "") -> None:
    sys.stdout.write(f"PERFBENCH {kind} {payload}\n")
    sys.stdout.flush()


def _set_up(workload) -> tuple:
    import numpy
    import scipy
    import repro  # noqa: F401  (the import is part of set-up)
    from repro.apps.registry import get_application
    from repro.lp import Model

    # First-call costs belong to set-up, not to the first timed pass:
    # scipy.optimize's import and HiGHS's first solve.
    model = Model()
    x = model.add_variable("x", 0.0, 1.0)
    model.add_constraint(x >= 0.5)
    model.add_objective_term(x)
    model.solve("auto")
    apps = {app_id: get_application(app_id) for app_id in workload.app_ids()}
    versions = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    return apps, versions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    apps, versions = _set_up(workload)
    _emit("READY")
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from benchtrace import Tracer, layer_metrics

        tracer = Tracer(pass_id=args.pass_id).install()
    error = None
    outcome = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        raw = workload.run(args.seed, apps)
    except Exception:  # the pass's failure is a measured outcome
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu1 = time.process_time()
    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if error is None:
        try:
            outcome = workload.check(args.seed, apps, raw)
        except Exception:
            error = traceback.format_exc()

    result = {
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": rss_mb,
        "versions": versions,
        "error": error,
    }
    if outcome is None:
        result["checks"] = {name: False for name in workload.checks}
    else:
        result.update(
            digest=outcome.digest,
            events=outcome.events,
            checks=outcome.checks,
            quality=outcome.quality,
        )
    if tracer is not None:
        layers = layer_metrics(tracer.spans, tracer.counts, wall)
        result["layers"] = layers
        # A hook patched at a name no caller uses records nothing: fail
        # the pass rather than report a zero.
        missing = tracer.uncovered(workload.layers)
        for layer in workload.layers:
            result["checks"][f"traced_{layer}"] = layer not in missing
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    _emit("RESULT", json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
