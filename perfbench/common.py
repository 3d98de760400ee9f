"""Shared plumbing of the benchmark: paths, resource meters, statistics
and the result line.

Every workload module returns a :class:`Result`; ``run.py`` prints its
human-readable table and then, as the last line of standard output, the
one-line JSON result.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
from dataclasses import dataclass, field
from typing import Any, Iterable

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_PATH = os.path.join(HERE, "config.json")

#: Scratch space for generated corpora, caches and daemon state.  It lives
#: in the working directory (the root of the checkout) and is removed when
#: a run ends; span files go to :data:`OUT_DIR` and stay.
WORK_DIR = ".perfbench-work"
OUT_DIR = ".perfbench-out"


def load_config() -> dict[str, Any]:
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def fresh_dir(*parts: str) -> str:
    path = os.path.join(WORK_DIR, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- statistics --------------------------------------------------------------


def quantile(values: Iterable[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of ``values``."""
    vals = sorted(values)
    if not vals:
        raise ValueError("quantile of no values")
    rank = max(1, math.ceil(q * len(vals)))
    return vals[rank - 1]


# -- resource meters ---------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    """user + sys CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class CpuMeter:
    """CPU seconds of this process, its reaped children and any live
    child processes named in ``pids`` (the serve daemon)."""

    def __init__(self, pids: Iterable[int] = ()) -> None:
        self.pids = tuple(pids)
        self._start = self._now()

    def _now(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
        return total + sum(_proc_cpu_s(pid) for pid in self.pids)

    def elapsed(self) -> float:
        return self._now() - self._start


def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Peak RSS of this process plus the largest reaped child plus every
    live child named in ``pids``, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0 + sum(proc_peak_rss_mb(p) for p in pids)


# -- results -----------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Result:
    """What one workload run measured and checked."""

    workload: str
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool]] = field(default_factory=list)
    #: End-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: Workload-specific figures printed in the table only (the workload's
    #: own names for the numbers behind the shared metrics, and more).
    details: dict[str, Metric] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> bool:
        self.checks.append((name, bool(ok)))
        return bool(ok)

    def put(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), note)

    def detail(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.details[name] = Metric(float(value), unit, int(samples), note)

    def conform(self, spec: list[dict[str, Any]], idle_ok: bool) -> None:
        """Order the metrics as ``spec`` lists them and check their units.

        A per-layer metric a workload does not exercise reads 0 (the
        layer stayed idle); a missing end-to-end metric is an error.
        Metrics ``spec`` does not name move to the details.
        """
        ordered: dict[str, Metric] = {}
        for entry in spec:
            name, unit = entry["name"], entry["unit"]
            metric = self.metrics.pop(name, None)
            if metric is None:
                if not idle_ok:
                    raise RuntimeError(f"workload {self.workload} did not measure {name}")
                metric = Metric(0.0, unit, 0, "layer idle on this workload")
            if metric.unit != unit:
                raise RuntimeError(f"{name} measured in {metric.unit}, declared in {unit}")
            ordered[name] = metric
        self.details.update(self.metrics)
        self.metrics = ordered

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok in self.checks)

    def render(self) -> str:
        lines = [f"workload {self.workload}"]
        for title, table in (("metric", self.metrics), ("detail", self.details)):
            for name, m in table.items():
                note = f"  ({m.note})" if m.note else ""
                lines.append(
                    f"  {title:6s} {name:40s} {m.value:>16.6g} {m.unit:<20s} "
                    f"n={m.samples}{note}"
                )
        share = self.failed / self.attempted if self.attempted else 1.0
        lines.append(
            f"  {'detail':6s} {'error_share':40s} {share:>16.6g} {'ratio':<20s} "
            f"n={self.attempted}  (failed {self.failed})"
        )
        for name, ok in self.checks:
            lines.append(f"  check  {name:40s} {'ok' if ok else 'FAILED'}")
        return "\n".join(lines)

    def json_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": max(1, self.attempted),
                "failed": self.failed,
                "metrics": {
                    name: {"value": m.value, "unit": m.unit}
                    for name, m in self.metrics.items()
                },
            },
            sort_keys=False,
        )

