"""The benchmark's three workloads.

Each drives a public entry point of ``repro`` with the serial engine,
the default LP backend (``auto``: scipy/HiGHS) and no trace cache; the
workload seed is the only input that varies between runs.  Output checks
use references that do not come from the code under test: the apps'
hand-written ground truth, FastTrack's first races, and the campaign's
own independent oracles (sanitizer, permutation replay).

* ``infer-xl``: ``repro.run("App-XL2", rounds=3)`` -- one large trace
  set and one large incrementally grown LP (observe, extract, encode,
  presolve, solve).  No predict, sanitizer or oracle work.
* ``predict-xl``: ``repro.predict_races("App-XL1", spec="manual")`` --
  closure, witness construction and validation (which runs the
  sanitizer), FastTrack.  No encoding or LP work.
* ``fuzz-small``: the ``repro fuzz --convert`` flow -- a campaign over
  the 10 paper and family apps x 4 schedules with oracles, then a
  conversion pass on its schedule targets.  Hundreds of tiny traces and
  many small LPs, so fixed per-call cost dominates.  Its output checks
  are the campaign's own verdict (no sanitizer violations, no
  permutation mismatches), the ground-truth and predicted-witness
  oracles, and the planted races' conversion.  The lambda-stability
  oracle runs and is timed, but its failures are counted
  (``lambda_unstable_schedules``), not checked: on some schedules of
  App-4 and App-8 the LP leaves candidates at the 0.9 probability
  threshold, and a 1% change of lambda (or another ``PYTHONHASHSEED``)
  flips them.  The campaign reports that as a finding and its default,
  non-strict verdict accepts it; it is not a wrong output.

``BENCHMARK.json`` declares ``infer-xl`` and ``fuzz-small`` only.  One
``predict-xl`` pass takes about 25 s while the predict and sanitizer
paths are quadratic, so with it a run could hold one pass and the
repeated runs of all three no longer fit the benchmark's time budget;
the predict layers are still measured on ``fuzz-small``, and
``predict-xl`` stays runnable by hand (``--workload predict-xl``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple


@dataclass
class PassOutcome:
    """What one pass produced, for the output checks and the metrics."""

    digest: str
    #: Trace events the pass produced or analysed.
    events: int
    checks: Dict[str, bool]
    quality: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Apps built during set-up, before the timed pass, and handed to
    #: ``run`` by id.
    app_ids: Callable[[], List[str]]
    #: Names of the output checks one pass attempts (fixed up front, so
    #: a pass that raises fails all of them).
    checks: Tuple[str, ...]
    #: Quality metrics as ``(name, unit)``.
    quality: Tuple[Tuple[str, str], ...]
    #: Layers that must record at least one span on this workload.
    layers: Tuple[str, ...]
    #: The timed pass: ``run(seed, apps)`` calls the program only.
    run: Callable[[int, Dict[str, Any]], Any]
    #: ``check(seed, apps, result)`` digests and checks a pass's result
    #: after the clock has stopped.
    check: Callable[[int, Dict[str, Any], Any], PassOutcome]


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _strip_elapsed(value: Any) -> Any:
    """Drop wall-clock fields so a digest covers only report content."""
    if isinstance(value, dict):
        return {
            k: _strip_elapsed(v) for k, v in value.items() if k != "elapsed_s"
        }
    if isinstance(value, list):
        return [_strip_elapsed(v) for v in value]
    return value


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# -- infer-xl --------------------------------------------------------------

INFER_ROUNDS = 3


def _run_infer(seed: int, apps: Dict[str, Any]) -> Any:
    import repro
    from repro.core.config import SherlockConfig

    config = SherlockConfig(rounds=INFER_ROUNDS, seed=seed, engine="serial")
    return repro.run(apps["App-XL2"], config, cache=None)


def _check_infer(seed: int, apps: Dict[str, Any], report: Any) -> PassOutcome:
    from repro.core.serialize import report_to_dict

    app = apps["App-XL2"]
    truth = set(app.ground_truth.syncs)
    inferred = set(report.final.syncs)
    correct = len(inferred & truth)
    checks = {}
    for r in report.rounds:
        # infer() raises SolverError on any status but OPTIMAL, so a
        # round that returned with an LP was solved to optimality.
        checks[f"round{r.round_index}_solved_optimal"] = (
            r.inference.n_variables > 0 and r.inference.backend != "empty"
        )
    checks["ground_truth_sync_recovered"] = (
        correct >= 1 or not report.store.windows
    )
    return PassOutcome(
        digest=_digest(report_to_dict(report)),
        events=sum(r.events_observed for r in report.rounds),
        checks=checks,
        quality={
            "sync_precision": _ratio(correct, len(inferred)),
            "sync_recall": _ratio(correct, len(truth)),
        },
    )


# -- predict-xl ------------------------------------------------------------


def _run_predict(seed: int, apps: Dict[str, Any]) -> Any:
    import repro

    return repro.predict_races(apps["App-XL1"], spec="manual", seed=seed)


def _check_predict(
    seed: int, apps: Dict[str, Any], report: Any
) -> PassOutcome:
    from repro.sim.runner import RunOptions, run_application

    # ``predict_races`` returns no traces: replay the same deterministic
    # run to count the events it analysed.
    options = RunOptions(seed=seed, run_id=0, schedule_policy="random")
    executions = run_application(apps["App-XL1"], options)
    payload = {
        "races": [r.to_dict() for r in report.races],
        "ft_first": [
            None if f is None else [f.field_name, f.address, f.timestamp]
            for f in report.ft_first
        ],
        "superset_ok": report.superset_ok,
        "predicted_only": report.predicted_only_fields,
        "unwitnessed": report.unwitnessed_fields,
        "per_test": {
            name: [
                a.pairs_checked,
                a.pairs_predicted,
                a.unwitnessed_pairs,
                a.invalid_witnesses,
            ]
            for name, a in sorted(report.per_test.items())
        },
    }
    checks = {
        "predicted_superset_of_fasttrack_first": report.superset_ok,
        "zero_invalid_witnesses": not any(
            a.invalid_witnesses for a in report.per_test.values()
        ),
        "every_race_validated": all(r.validated for r in report.races),
    }
    return PassOutcome(
        digest=_digest(payload),
        events=sum(len(e.log) for e in executions),
        checks=checks,
        quality={"races_predicted": float(len(report.races))},
    )


# -- fuzz-small ------------------------------------------------------------

FUZZ_SCHEDULES = 4


def _fuzz_apps() -> List[str]:
    from repro.apps.registry import app_ids, family_app_ids

    return list(app_ids()) + list(family_app_ids())


def _run_fuzz(seed: int, apps: Dict[str, Any]) -> Any:
    from repro.fuzz import CampaignConfig, run_campaign
    from repro.predict.convert import ConvertConfig, run_conversion

    # Campaign and conversion jobs build their apps by id, as the CLI
    # does; the set-up instances serve only as ground-truth references.
    campaign = run_campaign(
        CampaignConfig(
            app_ids=list(apps),
            schedules=FUZZ_SCHEDULES,
            base_seed=seed,
            rounds=3,
            engine="serial",
        )
    )
    conversion = run_conversion(
        ConvertConfig(
            app_ids=list(apps),
            base_seed=seed,
            rounds=3,
            engine="serial",
            targets=campaign.schedule_targets() or None,
        )
    )
    return campaign, conversion


def _check_fuzz(seed: int, apps: Dict[str, Any], result: Any) -> PassOutcome:
    campaign, conversion = result
    truth = {
        app_id: {s.display() for s in app.ground_truth.syncs}
        for app_id, app in apps.items()
    }
    correct = inferred = true_total = 0
    for result in campaign.results:
        found = set(result.inferred)
        correct += len(found & truth[result.app_id])
        inferred += len(found)
        true_total += len(truth[result.app_id])
    failed_oracles = [
        o["name"] for r in campaign.results for o in r.oracle_failures
    ]
    checks = {
        "zero_sanitizer_violations": campaign.total_violations == 0,
        "zero_permutation_mismatches": (
            campaign.total_permutation_mismatches == 0
        ),
        "ground_truth_oracle_passed": "ground-truth" not in failed_oracles,
        "predicted_witnesses_valid": (
            "predicted-unwitnessed" not in failed_oracles
        ),
        "planted_races_converted": not conversion.planted_unconverted(),
    }
    payload = {
        "campaign": _strip_elapsed(campaign.to_dict()),
        "conversion": _strip_elapsed(conversion.to_dict()),
    }
    return PassOutcome(
        digest=_digest(payload),
        events=sum(r.events_observed for r in campaign.results),
        checks=checks,
        quality={
            "sync_precision": _ratio(correct, inferred),
            "sync_recall": _ratio(correct, true_total),
            "conversions_frac": _ratio(
                conversion.total_converted, conversion.total_targets
            ),
            "lambda_unstable_schedules": float(
                failed_oracles.count("lambda-stability")
            ),
        },
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="infer-xl",
            why="default inference path at scale: one large trace set "
            "and one large incrementally grown LP (App-XL2, 3 rounds)",
            app_ids=lambda: ["App-XL2"],
            checks=tuple(
                f"round{i}_solved_optimal" for i in range(INFER_ROUNDS)
            ) + ("ground_truth_sync_recovered",),
            quality=(("sync_precision", "ratio"), ("sync_recall", "ratio")),
            layers=(
                "sim", "runtime", "core.windows", "core.stats",
                "core.encoder", "lp.presolve", "lp.solve", "core.perturber",
            ),
            run=_run_infer,
            check=_check_infer,
        ),
        Workload(
            name="predict-xl",
            why="predictive race detection at scale: closure, witness "
            "validation and sanitizer on App-XL1, no LP work",
            app_ids=lambda: ["App-XL1"],
            checks=(
                "predicted_superset_of_fasttrack_first",
                "zero_invalid_witnesses",
                "every_race_validated",
            ),
            quality=(("races_predicted", "count"),),
            layers=(
                "sim", "predict.closure", "predict.witness",
                "predict.detector", "racedet", "fuzz.sanitizer",
            ),
            run=_run_predict,
            check=_check_predict,
        ),
        Workload(
            name="fuzz-small",
            why="fuzz --convert over the 10 small apps: hundreds of tiny "
            "traces and small LPs, where per-call cost dominates",
            app_ids=_fuzz_apps,
            checks=(
                "zero_sanitizer_violations",
                "zero_permutation_mismatches",
                "ground_truth_oracle_passed",
                "predicted_witnesses_valid",
                "planted_races_converted",
            ),
            quality=(
                ("sync_precision", "ratio"),
                ("sync_recall", "ratio"),
                ("conversions_frac", "ratio"),
                ("lambda_unstable_schedules", "count"),
            ),
            # Every layer but presolve, which is gated off below 4096
            # LP columns.
            layers=(
                "sim", "runtime", "core.windows", "core.stats",
                "core.encoder", "lp.solve", "core.perturber",
                "predict.closure", "predict.witness", "predict.detector",
                "racedet", "fuzz.sanitizer", "fuzz.oracles",
                "predict.convert",
            ),
            run=_run_fuzz,
            check=_check_fuzz,
        ),
    )
}
