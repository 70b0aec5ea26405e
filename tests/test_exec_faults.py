"""Chaos tier: every injected fault class recovers, observably.

Each test injects a deterministic failure (:mod:`repro.faults`) into a
sweep batch and proves three things: the run *completes*, the results
are *identical* to the fault-free run (retries re-run a deterministic
engine), and the :class:`~repro.exec.RunReport` *records* the recovery
(attempts, timeouts, degradation, events) so nothing fails silently.
"""

import warnings

import pytest

from repro.core import netpipe_sizes
from repro.exec import (
    SweepCache,
    SweepExecutionError,
    SweepRequest,
    execute_sweeps,
)
from repro.experiments import configs
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_result,
)
from repro.mplib import Mpich, MpLite, Pvm, RawTcp

pytestmark = pytest.mark.faults

CFG = configs.pc_netgear_ga620()
#: Tiny schedule: these tests are about recovery, not curves.
SIZES = tuple(netpipe_sizes(stop=1 << 12))
#: Keep retry backoff negligible for test wall time.
FAST = dict(backoff=0.001)


def _requests():
    return [
        SweepRequest("tcp", RawTcp(), CFG, sizes=SIZES),
        SweepRequest("mpich", Mpich.tuned(), CFG, sizes=SIZES),
        SweepRequest("mplite", MpLite(), CFG, sizes=SIZES),
        SweepRequest("pvm", Pvm.tuned(), CFG, sizes=SIZES),
    ]


def _curves(results):
    return [[(p.size, p.oneway_time) for p in r.points] for r in results]


@pytest.fixture(scope="module")
def baseline():
    """The fault-free outcome every chaos run must reproduce exactly."""
    results, report = execute_sweeps(_requests())
    assert report.retries_performed == 0 and not report.events
    return _curves(results)


# ---------------------------------------------------------------------------
# the FaultPlan itself


def test_plan_windows_stack_per_label():
    plan = FaultPlan((
        FaultSpec("a", FaultKind.CRASH, times=1),
        FaultSpec("a", FaultKind.RAISE, times=2),
        FaultSpec("b", FaultKind.HANG, times=1, hang_seconds=0.5),
    ))
    assert plan.action_for("a", 0).kind is FaultKind.CRASH
    assert plan.action_for("a", 1).kind is FaultKind.RAISE
    assert plan.action_for("a", 2).kind is FaultKind.RAISE
    assert plan.action_for("a", 3) is None
    assert plan.action_for("b", 0).kind is FaultKind.HANG
    assert plan.action_for("b", 1) is None
    assert plan.action_for("c", 0) is None
    assert plan.labels() == ["a", "b"]
    assert bool(plan) and not bool(FaultPlan())


def test_plan_validates():
    with pytest.raises(ValueError):
        FaultSpec("a", FaultKind.RAISE, times=0)
    with pytest.raises(ValueError):
        FaultSpec("a", FaultKind.HANG, hang_seconds=0.0)
    with pytest.raises(TypeError):
        FaultPlan(("not a spec",))
    with pytest.raises(ValueError):
        FaultPlan.seeded(["a"], seed=1, rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan.seeded(["a"], seed=1, kinds=())


def test_seeded_plan_is_deterministic_and_seed_sensitive():
    labels = [f"sweep-{i}" for i in range(40)]
    one = FaultPlan.seeded(labels, seed=7, kinds=tuple(FaultKind), rate=0.5)
    two = FaultPlan.seeded(labels, seed=7, kinds=tuple(FaultKind), rate=0.5)
    assert one == two  # no hidden RNG state anywhere
    other = FaultPlan.seeded(labels, seed=8, kinds=tuple(FaultKind), rate=0.5)
    assert one != other
    assert FaultPlan.seeded(labels, seed=7, rate=0.0).specs == ()
    everyone = FaultPlan.seeded(labels, seed=7, rate=1.0)
    assert everyone.labels() == labels


# ---------------------------------------------------------------------------
# fault class 1: transient exception


def test_transient_raise_recovers(baseline):
    plan = FaultPlan.single("mpich", FaultKind.RAISE, times=2)
    results, report = execute_sweeps(_requests(), fault_plan=plan, **FAST)
    assert _curves(results) == baseline
    by_label = {s.label: s for s in report.stats}
    assert by_label["mpich"].attempts == 3
    assert by_label["tcp"].attempts == 1
    assert report.retries_performed == 2
    kinds = [e.kind for e in report.events]
    assert kinds == ["fault", "fault"]
    assert all("InjectedFault" in e.detail for e in report.events)
    assert "x3 attempts" in report.render()


def test_retry_budget_exhausts_with_clear_error():
    plan = FaultPlan.single("mpich", FaultKind.RAISE, times=5)
    with pytest.raises(SweepExecutionError, match="'mpich'.*3 attempt"):
        execute_sweeps(_requests(), fault_plan=plan, retries=2, **FAST)


# ---------------------------------------------------------------------------
# fault class 2: hang past the deadline


def test_hang_is_timed_out_and_retried_serially(baseline):
    plan = FaultPlan.single("pvm", FaultKind.HANG, hang_seconds=0.2)
    results, report = execute_sweeps(
        _requests(), fault_plan=plan, timeout=0.05, **FAST
    )
    assert _curves(results) == baseline
    by_label = {s.label: s for s in report.stats}
    assert by_label["pvm"].timed_out and by_label["pvm"].attempts == 2
    assert report.timeouts == 1
    assert [e.kind for e in report.events] == ["timeout"]
    assert "TIMEOUT" in report.render()


def test_hang_is_timed_out_and_retried_in_pool(baseline):
    plan = FaultPlan.single("tcp", FaultKind.HANG, hang_seconds=1.0)
    results, report = execute_sweeps(
        _requests(), max_workers=2, fault_plan=plan, timeout=0.25, **FAST
    )
    assert _curves(results) == baseline
    by_label = {s.label: s for s in report.stats}
    assert by_label["tcp"].timed_out and by_label["tcp"].attempts == 2
    assert any(e.kind == "timeout" for e in report.events)
    assert not report.degraded_to_serial  # an abandoned worker is not a break


# ---------------------------------------------------------------------------
# fault class 3: corrupted result


def test_corrupt_result_is_rejected_and_retried(baseline):
    plan = FaultPlan.single("mplite", FaultKind.CORRUPT)
    results, report = execute_sweeps(_requests(), fault_plan=plan, **FAST)
    assert _curves(results) == baseline
    by_label = {s.label: s for s in report.stats}
    assert by_label["mplite"].attempts == 2
    assert [e.kind for e in report.events] == ["corrupt-result"]
    assert "non-physical" in report.events[0].detail


def test_corruption_never_poisons_the_cache(tmp_path, baseline):
    cache = SweepCache(tmp_path)
    plan = FaultPlan.single("tcp", FaultKind.CORRUPT)
    execute_sweeps(_requests(), cache=cache, fault_plan=plan, **FAST)
    warm, report = execute_sweeps(_requests(), cache=cache)
    assert report.sweeps_simulated == 0  # every entry was good enough to trust
    assert _curves(warm) == baseline


def test_corrupt_result_helper_is_always_detectable():
    (clean,), _ = execute_sweeps([_requests()[0]])
    damaged = corrupt_result(clean)
    assert [p.size for p in damaged.points] == [p.size for p in clean.points]
    assert all(p.oneway_time < 0 for p in damaged.points)


# ---------------------------------------------------------------------------
# fault class 4: hard worker crash -> pool break -> serial degradation


def test_worker_crash_degrades_to_serial(baseline):
    plan = FaultPlan.single("mpich", FaultKind.CRASH)
    results, report = execute_sweeps(
        _requests(), max_workers=2, fault_plan=plan, **FAST
    )
    assert _curves(results) == baseline
    assert report.degraded_to_serial
    broken = [e for e in report.events if e.kind == "pool-broken"]
    assert len(broken) == 1 and broken[0].label == "<pool>"
    by_label = {s.label: s for s in report.stats}
    assert by_label["mpich"].attempts >= 2  # pool attempt + serial re-run
    assert "re-run serially" in report.render()


def test_crash_outside_a_pool_downgrades_to_retryable_exception(baseline):
    # Serial mode must never let an injected crash kill the main process.
    plan = FaultPlan.single("mpich", FaultKind.CRASH)
    results, report = execute_sweeps(_requests(), fault_plan=plan, **FAST)
    assert _curves(results) == baseline
    assert not report.degraded_to_serial
    assert [e.kind for e in report.events] == ["fault"]
    assert "InjectedWorkerCrash" in report.events[0].detail


# ---------------------------------------------------------------------------
# the acceptance batch: crash + hang + transient raise together


def test_chaos_batch_completes_with_correct_results(baseline):
    plan = FaultPlan((
        FaultSpec("mpich", FaultKind.CRASH),
        FaultSpec("pvm", FaultKind.HANG, hang_seconds=1.0),
        FaultSpec("mplite", FaultKind.RAISE),
    ))
    results, report = execute_sweeps(
        _requests(), max_workers=2, fault_plan=plan,
        timeout=10.0, retries=3, **FAST,
    )
    assert _curves(results) == baseline
    assert report.degraded_to_serial  # the crash broke the pool
    assert report.retries_performed >= 1
    assert len(report.stats) == len(_requests())
    text = report.render()
    assert "re-run serially" in text and "pool-broken" in text


# ---------------------------------------------------------------------------
# robustness plumbing around the faults


def test_no_plan_means_no_events_and_single_attempts(baseline):
    results, report = execute_sweeps(_requests())
    assert _curves(results) == baseline
    assert all(s.attempts == 1 and not s.timed_out for s in report.stats)
    assert report.events == [] and report.retries_performed == 0


def test_cache_write_failure_is_a_warning_not_an_error(tmp_path, monkeypatch, baseline):
    def boom(path, payload):
        raise OSError("disk full")

    monkeypatch.setattr("repro.store.write_atomic", boom)
    cache = SweepCache(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results, report = execute_sweeps(_requests(), cache=cache)
    assert _curves(results) == baseline  # the run itself is unharmed
    assert cache.write_errors == len(_requests())
    assert any("disk full" in str(w.message) for w in caught)
    failed = [e for e in report.events if e.kind == "cache-write-failed"]
    assert len(failed) == len(_requests())


def test_injected_fault_is_an_exception_not_a_baseclass_catch():
    with pytest.raises(InjectedFault):
        from repro.faults import apply_pre_fault

        apply_pre_fault(FaultSpec("x", FaultKind.RAISE), allow_crash=True)


def test_env_knobs_parse_with_clear_messages(monkeypatch):
    from repro.exec import (
        RETRIES_ENV,
        TIMEOUT_ENV,
        default_retries,
        default_timeout,
    )

    monkeypatch.delenv(TIMEOUT_ENV, raising=False)
    monkeypatch.delenv(RETRIES_ENV, raising=False)
    assert default_timeout() is None
    assert default_retries() == 2
    monkeypatch.setenv(TIMEOUT_ENV, "2.5")
    assert default_timeout() == 2.5
    monkeypatch.setenv(TIMEOUT_ENV, "soon")
    with pytest.raises(ValueError, match="REPRO_EXEC_TIMEOUT.*'soon'"):
        default_timeout()
    monkeypatch.setenv(TIMEOUT_ENV, "-1")
    with pytest.raises(ValueError, match="REPRO_EXEC_TIMEOUT"):
        default_timeout()
    monkeypatch.setenv(RETRIES_ENV, "0")
    assert default_retries() == 0
    monkeypatch.setenv(RETRIES_ENV, "many")
    with pytest.raises(ValueError, match="REPRO_EXEC_RETRIES.*'many'"):
        default_retries()
