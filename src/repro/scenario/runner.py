"""The scenario front door: fingerprint, cache, retry, inject, run.

:func:`run_scenario` wraps :func:`~repro.scenario.compose.compose_run`
with the same execution discipline the sweep executor gives curves:

* results are content-addressed by :meth:`ScenarioSpec.fingerprint`
  and stored in a :class:`ScenarioStore` (the sweep cache's layout
  holding scenario documents) — a warm replay returns the stored
  document bit-identical to the simulation;
* a non-quiet spec first runs (or cache-hits) its quiet twin, so every
  congested result carries its slowdown baseline;
* the spec's ``faults`` entries become a :class:`~repro.faults.plan.
  FaultPlan` window keyed by the scenario name, injected through the
  very same :mod:`repro.faults.inject` hooks the exec tier uses, and
  survived by retrying — recovery is bit-identical to a clean run;
* every result passes sanity validation before it is returned or
  cached, so an injected corruption is always caught, never stored.

No wall-clock reads anywhere on this path: simulated time comes from
the engine, retry behaviour from attempt numbers.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.core.sizes import netpipe_sizes
from repro.exec.cache import SweepCache
from repro.faults.inject import FaultError, apply_pre_fault, corrupt_result
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.scenario.compose import compose_run
from repro.scenario.result import ScenarioResult
from repro.scenario.spec import ScenarioSpec

#: Environment variable naming a default scenario store directory.
SCENARIO_CACHE_ENV = "REPRO_SCENARIO_CACHE"

#: Retry headroom beyond the injected fault windows (matches the exec
#: tier's instinct: transient faults deserve a couple of clean shots).
DEFAULT_EXTRA_RETRIES = 2


class ScenarioExecutionError(RuntimeError):
    """A scenario that could not produce a valid result within its
    retry budget."""


class ScenarioStore(SweepCache):
    """The sweep cache's layout and semantics (:mod:`repro.store`),
    holding :class:`~repro.scenario.result.ScenarioResult` documents."""

    env_var = SCENARIO_CACHE_ENV

    @staticmethod
    def _decode(payload: bytes) -> ScenarioResult:
        return ScenarioResult.from_jsonable(json.loads(payload))

    def put(self, fingerprint: str, result: ScenarioResult) -> Path | None:
        payload = json.dumps(result.to_jsonable(), indent=2, sort_keys=True)
        return self.write(fingerprint, (payload + "\n").encode())


@dataclass
class ScenarioReport:
    """How a result was obtained (the part the fingerprint excludes)."""

    fingerprint: str
    cached: bool
    attempts: int
    trace: object | None = None  #: the Recorder when ``trace=True``


def _scenario_corrupt(result: ScenarioResult) -> ScenarioResult:
    """A recognisably-damaged copy (CORRUPT fault, scenario shape).

    Negated times can never come out of a real run, so validation is
    guaranteed to reject the damage — the same contract as
    :func:`repro.faults.inject.corrupt_result` for curves.
    """
    return dataclasses.replace(
        result,
        completion_time=-result.completion_time,
        curve=(corrupt_result(result.curve)
               if result.curve is not None else None),
    )


def _validate_result(spec: ScenarioSpec,
                     result: ScenarioResult) -> str | None:
    """Why ``result`` cannot be ``spec``'s outcome (None if it can)."""
    if (not math.isfinite(result.completion_time)
            or result.completion_time <= 0):
        return (f"completion time must be positive and finite, "
                f"got {result.completion_time!r}")
    if result.curve is not None:
        sizes = (spec.workload.sizes if spec.workload.sizes is not None
                 else netpipe_sizes())
        point_sizes = [p.size for p in result.curve.points]
        if point_sizes != list(sizes):
            return (f"curve covers sizes {point_sizes}, "
                    f"schedule wants {list(sizes)}")
        for point in result.curve.points:
            if not math.isfinite(point.oneway_time) or point.oneway_time <= 0:
                return (f"one-way time for size {point.size} must be "
                        f"positive and finite, got {point.oneway_time!r}")
    return None


def _merged_plan(spec: ScenarioSpec,
                 fault_plan: FaultPlan | None) -> FaultPlan:
    """The spec's fault entries (as windows on the scenario name)
    followed by any externally supplied plan."""
    spec_windows = tuple(
        FaultSpec(label=spec.name, kind=FaultKind(entry.kind),
                  times=entry.times)
        for entry in spec.faults
    )
    extra = fault_plan.specs if fault_plan is not None else ()
    return FaultPlan(spec_windows + tuple(extra))


def run_scenario(
    spec: ScenarioSpec,
    cache: ScenarioStore | None = None,
    retries: int | None = None,
    fault_plan: FaultPlan | None = None,
    trace: bool = False,
) -> tuple[ScenarioResult, ScenarioReport]:
    """Run (or replay) one scenario; returns (result, report).

    ``retries`` defaults to the injected fault windows plus
    :data:`DEFAULT_EXTRA_RETRIES`, so every spec-declared fault is
    recoverable by construction.  ``trace=True`` attaches a
    :class:`repro.obs.Recorder` to the engine and bypasses the store
    in both directions (a replayed document has no events to record).
    """
    spec.validate()
    fingerprint = spec.fingerprint()

    if cache is not None and not trace:
        hit = cache.get(fingerprint)
        if hit is not None:
            return hit, ScenarioReport(fingerprint=fingerprint, cached=True,
                                       attempts=0)

    # The congested run carries its quiet twin's completion time as the
    # slowdown baseline; the twin is itself cached under its own
    # fingerprint, so it costs one simulation ever.  Faults stay on the
    # outer spec only — the baseline must run clean.
    quiet_completion: float | None = None
    if not spec.is_quiet():
        quiet_result, _ = run_scenario(spec.quiet(), cache=cache)
        quiet_completion = quiet_result.completion_time

    plan = _merged_plan(spec, fault_plan)
    if retries is None:
        retries = DEFAULT_EXTRA_RETRIES + sum(
            s.times for s in plan.specs if s.label == spec.name
        )

    last_error = "no attempts made"
    attempts = 0
    for attempt in range(retries + 1):
        attempts = attempt + 1
        fault = plan.action_for(spec.name, attempt) if plan else None
        recorder = None
        try:
            if fault is not None:
                apply_pre_fault(fault, allow_crash=False)
            if trace:
                from repro.obs import Recorder

                recorder = Recorder(meta={
                    "label": spec.name,
                    "library": spec.library,
                    "config": spec.config,
                })
            run = compose_run(spec, recorder=recorder)
            result = ScenarioResult(
                name=spec.name,
                fingerprint=fingerprint,
                library=run.library,
                config=run.config,
                nranks=spec.nranks,
                topology=run.topology,
                workload_kind=spec.workload.kind,
                completion_time=run.completion_time,
                events_processed=run.events_processed,
                curve=run.curve,
                flows=run.flows,
                quiet_completion_time=quiet_completion,
            )
            if fault is not None and fault.kind is FaultKind.CORRUPT:
                result = _scenario_corrupt(result)
        except FaultError as exc:
            last_error = str(exc)
            continue
        problem = _validate_result(spec, result)
        if problem is None:
            report = ScenarioReport(fingerprint=fingerprint, cached=False,
                                    attempts=attempts, trace=recorder)
            if cache is not None and not trace:
                cache.put(fingerprint, result)
            return result, report
        last_error = problem
    raise ScenarioExecutionError(
        f"scenario {spec.name!r} failed to produce a valid result after "
        f"{attempts} attempt(s): {last_error}"
    )
