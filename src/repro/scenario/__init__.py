"""Declarative whole-cluster scenarios with background congestion.

The paper measures two-node ping-pong on a quiet wire; real clusters
run N-rank jobs over shared switches under cross-traffic.  This package
turns "figure 3, but on a 16-node two-tier tree with 30% background
all-to-all" into one fingerprintable spec file:

* :mod:`repro.scenario.spec` — the TOML/JSON schema as dataclasses,
  parsed and emitted by one field-driven codec, with path-addressed
  validation errors (``traffic[1].rate: ...``); TOML is read only,
  the wire form is JSON;
* :mod:`repro.scenario.traffic` — deterministic background traffic
  generators (constant-rate, on/off bursty, subtractive all-to-all);
* :mod:`repro.scenario.compose` — instantiates fabric topology,
  library protocol endpoints, workload and traffic onto one engine
  (names resolve through :mod:`repro.experiments.names`, shared with
  :mod:`repro.serve`);
* :mod:`repro.scenario.result` — per-flow and aggregate outcomes,
  including the slowdown against the quiet-network twin;
* :mod:`repro.scenario.runner` — fingerprint-addressed store and the
  retrying, fault-injectable execution path (warm replay
  bit-identical);
* :mod:`repro.scenario.cli` — ``python -m repro scenario
  run/list/validate``.

A 2-rank quiet crossbar ping-pong spec degenerates to the exact
two-node code path the figures use, so its curve is bit-identical to
:func:`repro.exec.execute_sweeps` for the same library and config.
"""

from repro.scenario.compose import compose_run
from repro.scenario.result import FlowResult, ScenarioResult
from repro.scenario.runner import (
    ScenarioExecutionError,
    ScenarioReport,
    ScenarioStore,
    run_scenario,
)
from repro.scenario.spec import (
    CpuSpec,
    FaultEntry,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    load_spec,
    parse_spec,
    scenario_salt,
)

__all__ = [
    "CpuSpec",
    "FaultEntry",
    "FlowResult",
    "ScenarioExecutionError",
    "ScenarioReport",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenarioStore",
    "SpecError",
    "TopologySpec",
    "TrafficSpec",
    "WorkloadSpec",
    "compose_run",
    "load_spec",
    "parse_spec",
    "run_scenario",
    "scenario_salt",
]
