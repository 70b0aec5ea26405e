"""Persist and compare NetPIPE results (np.out for the 21st century).

NetPIPE writes ``np.out`` (size, time, Mb/s rows) for gnuplot; we write
JSON with full metadata, plus loaders and a regression comparator so a
curve measured today can be diffed against a stored baseline — the
workflow a cluster admin uses to notice a driver update regressing the
network.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.core.results import NetPipeResult

#: Format tag written into every file, checked on load.
FORMAT = "repro-netpipe-result"
FORMAT_VERSION = 1


def result_to_dict(result: NetPipeResult) -> dict:
    """JSON-ready representation of one curve."""
    sizes, times = result.columns()
    return {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "library": result.library,
        "config": result.config,
        "points": [
            {"size": size, "oneway_time": oneway_time}
            for size, oneway_time in zip(sizes, times)
        ],
    }


def result_from_dict(data: Mapping) -> NetPipeResult:
    """Inverse of :func:`result_to_dict`, with format validation."""
    if data.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported version {data.get('version')} (expected {FORMAT_VERSION})"
        )
    points = data["points"]
    return NetPipeResult.from_columns(
        str(data["library"]),
        str(data["config"]),
        [int(p["size"]) for p in points],
        [float(p["oneway_time"]) for p in points],
    )


def save_result(result: NetPipeResult, path: str | Path) -> None:
    """Write one curve as JSON, atomically.

    The document lands via tmp file + ``os.replace`` in the target
    directory, so an interrupted run can never leave a truncated
    baseline (or sweep-cache entry) behind: readers see either the old
    complete file or the new complete file, never a partial one.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    tmp.write_text(json.dumps(result_to_dict(result), indent=2))
    os.replace(tmp, path)


def load_result(path: str | Path) -> NetPipeResult:
    """Read one curve back."""
    return result_from_dict(json.loads(Path(path).read_text()))


def save_netpipe_out(result: NetPipeResult, path: str | Path) -> None:
    """Classic NetPIPE np.out: 'bytes  seconds  Mbps' columns, gnuplot-ready."""
    lines = [
        f"{p.size:>12d}  {p.oneway_time:.9e}  {p.mbps:12.6f}" for p in result.points
    ]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class RegressionReport:
    """Comparison of a fresh curve against a stored baseline."""

    baseline: NetPipeResult
    current: NetPipeResult
    tolerance: float
    regressions: tuple[tuple[int, float, float], ...]  # (size, base, cur) Mb/s

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def latency_change(self) -> float:
        """current/baseline latency ratio (>1 = got slower)."""
        return self.current.latency_us / self.baseline.latency_us

    @property
    def peak_change(self) -> float:
        """current/baseline peak-throughput ratio (<1 = got slower)."""
        return self.current.max_mbps / self.baseline.max_mbps

    def render(self) -> str:
        lines = [
            f"regression check: {self.current.library} vs baseline "
            f"(tolerance {self.tolerance:.0%})",
            f"  latency {self.baseline.latency_us:.1f} -> "
            f"{self.current.latency_us:.1f} us ({self.latency_change:.2f}x)",
            f"  peak {self.baseline.max_mbps:.1f} -> "
            f"{self.current.max_mbps:.1f} Mb/s ({self.peak_change:.2f}x)",
        ]
        for size, base, cur in self.regressions:
            lines.append(
                f"  REGRESSION at {size} B: {base:.1f} -> {cur:.1f} Mb/s"
            )
        if self.ok:
            lines.append("  OK: no point regressed beyond tolerance")
        return "\n".join(lines)


def compare_to_baseline(
    baseline: NetPipeResult,
    current: NetPipeResult,
    tolerance: float = 0.05,
    min_size: int = 64,
) -> RegressionReport:
    """Flag every size where the current curve lost more than
    ``tolerance`` against the baseline.

    Sub-``min_size`` points are excluded (they are latency-dominated
    and better judged by the latency summary).  Both curves must share
    their size schedule.
    """
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must be in (0, 1)")
    base_sizes = [p.size for p in baseline.points]
    cur_sizes = [p.size for p in current.points]
    if base_sizes != cur_sizes:
        raise ValueError("curves were measured on different size schedules")
    regressions = []
    for bp, cp in zip(baseline.points, current.points):
        if bp.size < min_size:
            continue
        if cp.mbps < bp.mbps * (1.0 - tolerance):
            regressions.append((bp.size, bp.mbps, cp.mbps))
    return RegressionReport(
        baseline=baseline,
        current=current,
        tolerance=tolerance,
        regressions=tuple(regressions),
    )
