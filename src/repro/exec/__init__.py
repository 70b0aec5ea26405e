"""Parallel sweep execution with a content-addressed result cache.

The executor layer the experiment harness runs on::

    from repro.exec import SweepRequest, SweepCache, execute_sweeps

    requests = [SweepRequest("mpich", Mpich.tuned(), cfg)]
    results, report = execute_sweeps(
        requests, max_workers=4, cache=SweepCache("~/.cache/repro")
    )

The executor retries failed attempts, times out stuck ones, survives
crashed workers by degrading to serial execution, and validates every
result before returning or caching it — see
:mod:`repro.exec.scheduler` for the full story and :mod:`repro.faults`
for the deterministic fault injection the chaos tests use to prove it.

Long-lived callers resolve an :class:`ExecPolicy` once and drive
:func:`execute_with_policy` — that is how the :mod:`repro.serve` query
front end runs every request through the same hardened core.  Tier
routing (sim vs closed-form analytic) is its own reusable piece,
:mod:`repro.exec.tiers`.

:class:`SweepCache` is one namespace of :mod:`repro.store`, which
states the on-disk semantics every store shares.  See
docs/PERFORMANCE.md for the cache layout and invalidation rules,
docs/SERVING.md for the serving architecture on top, and
docs/TESTING.md for the test tiers covering this package.
"""

from repro.exec.cache import CACHE_DIR_ENV, SweepCache
from repro.exec.errors import SweepExecutionError
from repro.exec.fingerprint import (
    CODE_SALT,
    canonicalize,
    code_salt,
    source_digest,
    sweep_fingerprint,
)
from repro.exec.knobs import (
    RETRIES_ENV,
    TIER_ENV,
    TIMEOUT_ENV,
    VALID_TIERS,
    WORKERS_ENV,
    default_retries,
    default_tier,
    default_timeout,
    default_workers,
)
from repro.exec.policy import ExecPolicy
from repro.exec.scheduler import (
    ExecEvent,
    RunReport,
    SweepRequest,
    SweepStats,
    execute_sweeps,
    execute_with_policy,
)
from repro.exec.tiers import TierPlan, analytic_ineligibility, plan_tiers

__all__ = [
    "CACHE_DIR_ENV",
    "CODE_SALT",
    "ExecEvent",
    "ExecPolicy",
    "RETRIES_ENV",
    "RunReport",
    "SweepCache",
    "SweepExecutionError",
    "SweepRequest",
    "SweepStats",
    "TIER_ENV",
    "TIMEOUT_ENV",
    "TierPlan",
    "VALID_TIERS",
    "WORKERS_ENV",
    "analytic_ineligibility",
    "canonicalize",
    "code_salt",
    "default_retries",
    "default_tier",
    "default_timeout",
    "default_workers",
    "execute_sweeps",
    "execute_with_policy",
    "plan_tiers",
    "source_digest",
    "sweep_fingerprint",
]
