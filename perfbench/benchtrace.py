"""Span tracing for the benchmark, installed from outside the program.

The traced run wraps each layer's public entry points at the name its
callers look them up by (a class attribute, or the module global a
caller imported with ``from x import f``).  Each wrapped call records a
span ``(id, layer, start, end, parent, pass)`` in memory; counts are
read from the wrapped calls' arguments and return values.  Nothing under
``src/`` is edited, and an untraced pass installs nothing.

A call into a layer that is already on the span stack (for example
``SyncPreservingClosure.__init__`` calling ``sync_pairings``) is one
logical call of that layer and records no second span, so a layer's
busy time never counts the same interval twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in pipeline order (module names of the program).
LAYERS: Tuple[str, ...] = (
    "sim",
    "runtime",
    "core.windows",
    "core.stats",
    "core.encoder",
    "lp.presolve",
    "lp.solve",
    "core.perturber",
    "predict.closure",
    "predict.witness",
    "predict.detector",
    "racedet",
    "fuzz.sanitizer",
    "fuzz.oracles",
    "predict.convert",
)

#: Counts derived from the wrapped calls, with their unit and direction.
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.tests", "count", "lower"),
    ("core.windows.windows", "count", "lower"),
    ("core.stats.racy_pairs", "count", "lower"),
    ("core.encoder.variables", "count", "lower"),
    ("core.encoder.constraints", "count", "lower"),
    ("lp.presolve.rows_eliminated", "count", "higher"),
    ("lp.solve.pivots", "count", "lower"),
    ("core.perturber.delays", "count", "lower"),
    ("predict.detector.pairs_checked", "count", "lower"),
    ("predict.detector.hit_ratio", "ratio", "higher"),
    ("predict.witness.built", "count", "lower"),
    ("predict.witness.valid_ratio", "ratio", "higher"),
    ("racedet.races", "count", "higher"),
    ("fuzz.sanitizer.events", "count", "lower"),
    ("predict.convert.runs", "count", "lower"),
)

#: Run-level figures of a traced pass.
RUN_LEVEL: Tuple[Tuple[str, str, str], ...] = (
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unaccounted_frac", "ratio", "lower"),
)


def per_layer_metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    specs: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.busy_s", "s", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
    specs.extend(COUNTS)
    specs.extend(RUN_LEVEL)
    return specs


class HookError(LookupError):
    """A hook names an attribute the program does not have."""


# -- counters over return values ------------------------------------------


def _executions(counts: Counter, args: tuple, result: Any) -> None:
    counts["sim.tests"] += len(result)
    counts["sim.events"] += sum(len(e.log) for e in result)


def _windows(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.windows.windows"] += len(result)


def _racy_pairs(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.stats.racy_pairs"] += len(result.new_racy_pairs)


def _model(counts: Counter, args: tuple, result: Any) -> None:
    model = result[0]
    counts["core.encoder.variables"] += len(model.variables)
    counts["core.encoder.constraints"] += len(model.constraints)


def _presolve(counts: Counter, args: tuple, result: Any) -> None:
    counts["lp.presolve.rows_eliminated"] += result.rows_eliminated


def _pivots(counts: Counter, args: tuple, result: Any) -> None:
    counts["lp.solve.pivots"] += result.iterations


def _delays(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.perturber.delays"] += len(result)


def _analysis(counts: Counter, args: tuple, result: Any) -> None:
    counts["predict.detector.pairs_checked"] += result.pairs_checked
    counts["_pairs_predicted"] += result.pairs_predicted


def _built(counts: Counter, args: tuple, result: Any) -> None:
    if result is not None:
        counts["predict.witness.built"] += 1


def _validated(counts: Counter, args: tuple, result: Any) -> None:
    if not result:
        counts["_witnesses_valid"] += 1


def _races(counts: Counter, args: tuple, result: Any) -> None:
    counts["racedet.races"] += len(result.races)


def _sanitized(counts: Counter, args: tuple, result: Any) -> None:
    counts["fuzz.sanitizer.events"] += len(args[1].log)


def _directed_run(counts: Counter, args: tuple, result: Any) -> None:
    counts["predict.convert.runs"] += 1


Counter_fn = Optional[Callable[[Counter, tuple, Any], None]]

#: ``(layer, module, attribute path, counter)``: one line per name a
#: caller looks a layer entry point up by.
HOOKS: Tuple[Tuple[str, str, str, Counter_fn], ...] = (
    ("sim", "repro.core.observer", "Observer.observe_round", _executions),
    ("sim", "repro.predict.harness", "run_application", _executions),
    ("sim", "repro.predict.convert", "run_application", _executions),
    ("runtime", "repro.runtime.engine", "ExecutionRuntime.observe_round",
     None),
    ("runtime", "repro.runtime.engine", "ExecutionRuntime.aobserve_round",
     None),
    ("core.windows", "repro.core.windows", "WindowExtractor.extract",
     _windows),
    ("core.stats", "repro.core.stats", "ObservationStore.ingest_run",
     _racy_pairs),
    ("core.encoder", "repro.core.encoder", "IncrementalEncoder.encode",
     _model),
    ("core.encoder", "repro.core.solver", "build_model", _model),
    ("lp.presolve", "repro.lp.presolve", "presolve_form", _presolve),
    ("lp.solve", "repro.core.encoder", "IncrementalEncoder.solve", _pivots),
    ("lp.solve", "repro.lp.model", "Model.solve", _pivots),
    ("core.perturber", "repro.core.pipeline", "build_delay_plan", _delays),
    ("predict.closure", "repro.predict.closure",
     "SyncPreservingClosure.__init__", None),
    ("predict.closure", "repro.predict.closure", "sync_pairings", None),
    ("predict.closure", "repro.predict.witness", "sync_pairings", None),
    ("predict.witness", "repro.predict.detector", "build_witness", _built),
    ("predict.witness", "repro.predict.detector", "validate_witness",
     _validated),
    ("predict.detector", "repro.predict.detector",
     "PredictiveDetector.analyze", _analysis),
    ("racedet", "repro.racedet.fasttrack", "FastTrack.analyze", _races),
    ("fuzz.sanitizer", "repro.fuzz.sanitizer", "TraceSanitizer.sanitize",
     _sanitized),
    ("fuzz.oracles", "repro.fuzz.campaign", "ground_truth_oracle", None),
    ("fuzz.oracles", "repro.fuzz.campaign", "lambda_stability_oracle",
     None),
    ("fuzz.oracles", "repro.fuzz.campaign", "predicted_unwitnessed_oracle",
     None),
    ("predict.convert", "repro.predict.convert", "run_baseline_job", None),
    ("predict.convert", "repro.predict.convert", "run_convert_job",
     _directed_run),
)


# -- the recorder ----------------------------------------------------------


@dataclass(frozen=True)
class Span:
    id: int
    layer: str
    start: float
    end: float
    parent: Optional[int]
    pass_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the hooks that feed it.

    The benchmark's passes run on one thread at a time (serial engine),
    so one stack of open spans gives every span its parent.
    """

    def __init__(self, pass_id: int = 0) -> None:
        self.pass_id = pass_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[Tuple[int, str, float]] = []
        self._open_layers: Counter = Counter()
        self._next_id = 0
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, layer: str) -> Optional[int]:
        if self._open_layers[layer]:
            return None
        self._next_id += 1
        self._stack.append((self._next_id, layer, time.perf_counter()))
        self._open_layers[layer] += 1
        return self._next_id

    def _close(self, span_id: Optional[int]) -> None:
        if span_id is None:
            return
        end = time.perf_counter()
        sid, layer, start = self._stack.pop()
        if sid != span_id:
            raise RuntimeError(
                f"span stack out of order: closing {span_id}, top is {sid}"
            )
        self._open_layers[layer] -= 1
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(sid, layer, start, end, parent, self.pass_id))

    def _wrap(self, layer: str, fn: Callable, count: Counter_fn) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                span_id = tracer._open(layer)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(span_id)
                if count is not None and span_id is not None:
                    count(tracer.counts, args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span_id)
            if count is not None and span_id is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    # -- hooks -------------------------------------------------------------

    def install(self, hooks=HOOKS) -> "Tracer":
        """Patch every hook; raises :class:`HookError` on a missing name."""
        try:
            for layer, module_name, path, count in hooks:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for name in owners:
                    owner = _lookup(owner, name, module_name, path)
                original = _lookup(owner, attr, module_name, path)
                if not callable(original):
                    raise HookError(f"{module_name}.{path} is not callable")
                if hasattr(original, "_perfbench_layer"):
                    raise HookError(f"{module_name}.{path} is already wrapped")
                wrapper = self._wrap(layer, original, count)
                wrapper._perfbench_layer = layer
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.layer,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "pass": span.pass_id,
                        }
                    )
                    + "\n"
                )

    def uncovered(self, layers) -> List[str]:
        """The given layers that recorded no span."""
        seen = {span.layer for span in self.spans}
        return [layer for layer in layers if layer not in seen]


def _lookup(owner: Any, name: str, module_name: str, path: str) -> Any:
    # ``vars`` rather than ``getattr``: a class hook must patch the
    # class that defines the method, not an inherited one.
    if inspect.isclass(owner):
        if name not in vars(owner):
            raise HookError(f"{module_name}.{path}: no {name!r} on {owner}")
        return vars(owner)[name]
    try:
        return getattr(owner, name)
    except AttributeError:
        raise HookError(f"{module_name}.{path}: no {name!r}") from None


def layer_metrics(
    spans: List[Span], counts: Counter, pass_wall_s: float
) -> Dict[str, float]:
    """Per-layer calls, busy and self time, the counts, and the share of
    the pass no span covers.  ``trace.overhead_frac`` needs the untraced
    pass and is filled in by the caller."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.duration
            )
    out: Dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.busy_s"] = sum(s.duration for s in mine)
        out[f"{layer}.self_s"] = sum(
            s.duration - child_time.get(s.id, 0.0) for s in mine
        )
    for name, _, _ in COUNTS:
        out[name] = counts.get(name, 0)
    checked = counts.get("predict.detector.pairs_checked", 0)
    out["predict.detector.hit_ratio"] = (
        counts.get("_pairs_predicted", 0) / checked if checked else 0.0
    )
    built = counts.get("predict.witness.built", 0)
    out["predict.witness.valid_ratio"] = (
        counts.get("_witnesses_valid", 0) / built if built else 0.0
    )
    covered = sum(s.duration for s in spans if s.parent is None)
    out["trace.unaccounted_frac"] = (
        max(0.0, pass_wall_s - covered) / pass_wall_s if pass_wall_s else 0.0
    )
    out["trace.overhead_frac"] = 0.0
    return out
