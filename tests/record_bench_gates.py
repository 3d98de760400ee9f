"""Record the golden problem lists of ``benchmarks.harness.compare``.

Builds a matrix of mutated copies of the committed baseline report —
every value gate just past and just inside its bound, every optional
section and category deleted, the conditional gates on both sides of
their condition — runs ``compare(baseline, mutated)`` on each, and
writes the baseline plus every case's mutations and problem list to
``tests/fixtures/bench_gates.json``.  ``tests/test_bench_gates.py``
replays the cases against the current ``compare``.

Run from the repository root; the optional argument is the checkout
whose ``benchmarks.harness`` produces the expected lists (default: this
one)::

    python tests/record_bench_gates.py [CHECKOUT]

A case whose ``compare`` raised records ``{"raised": "<ExcType>"}``
instead of a list.
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(ROOT, "benchmarks", "baseline", "BENCH_baseline.json")
FIXTURE = os.path.join(HERE, "fixtures", "bench_gates.json")

#: Relative step used for "just past" / "just inside" a bound.
EPS = 1e-6


def get(report: dict[str, Any], path: str) -> Any:
    for key in path.split("."):
        report = report[key]
    return report


def apply(report: dict[str, Any], ops: list[list[Any]]) -> dict[str, Any]:
    """A mutated deep copy: ``["set", path, value]`` / ``["del", path]``."""
    out = copy.deepcopy(report)
    for op, path, *value in ops:
        head, _, leaf = path.rpartition(".")
        parent = get(out, head) if head else out
        if op == "set":
            parent[leaf] = value[0]
        else:
            del parent[leaf]
    return out


def build_cases(base: dict[str, Any]) -> list[tuple[str, list[list[Any]]]]:
    cases: list[tuple[str, list[list[Any]]]] = [("unchanged", [])]

    def add(name: str, *ops: list[Any]) -> None:
        cases.append((name, list(ops)))

    def floor(name: str, path: str, bound: float) -> None:
        add(f"{name} past floor", ["set", path, bound * (1 - EPS)])
        add(f"{name} inside floor", ["set", path, bound * (1 + EPS)])

    def ceiling(name: str, path: str, bound: float) -> None:
        add(f"{name} past ceiling", ["set", path, bound * (1 + EPS)])
        add(f"{name} inside ceiling", ["set", path, bound * (1 - EPS)])

    # -- build phases ----------------------------------------------------
    for phase in base["phases"]:
        add(f"phase {phase} failed", ["set", f"phases.{phase}.ok", False])
    add("ir not deterministic", ["set", "ir_deterministic", False])
    floor("warm hit rate", "phases.warm.hit_rate", 0.9)
    add("warm hit rate at floor", ["set", "phases.warm.hit_rate", 0.9])
    warm = base["phases"]["warm"]["norm_wall"]
    ceiling("warm norm_wall", "phases.warm.norm_wall", warm * 1.25 + 0.25)
    # -- queries ---------------------------------------------------------
    cats = base["queries"]["categories"]
    for name, cat in cats.items():
        floor(f"query {name}", f"queries.categories.{name}.norm_qps",
              cat["norm_qps"] * 0.5)
        add(f"query {name} deleted", ["del", f"queries.categories.{name}"])
    for fast, slow in (("path", "path_naive"), ("analysis", "analysis_naive")):
        floor(f"{fast} speedup", f"queries.categories.{fast}.qps",
              5.0 * cats[slow]["qps"])
    add("queries deleted", ["del", "queries"])
    # -- serve -----------------------------------------------------------
    floor("serve hot slowdown", "serve.categories.hot.rps",
          cats["path"]["qps"] / 5.0)
    for builds in (0, 2):
        add(f"serve index_builds {builds}", ["set", "serve.index_builds", builds])
    add("serve index_builds deleted", ["del", "serve.index_builds"])
    for name, cat in base["serve"]["categories"].items():
        floor(f"serve {name}", f"serve.categories.{name}.norm_rps",
              cat["norm_rps"] * 0.5)
        add(f"serve {name} deleted", ["del", f"serve.categories.{name}"])
    # -- cold_init -------------------------------------------------------
    add("cold rebuilds 1", ["set", "cold_init.rebuilds", 1])
    add("cold rebuilds deleted", ["del", "cold_init.rebuilds"])
    floor("cold speedup", "cold_init.speedup_vs_scratch", 14.0)
    add("cold speedup deleted", ["del", "cold_init.speedup_vs_scratch"])
    for name, value in base["cold_init"]["norm_open"].items():
        ceiling(f"cold_init {name}", f"cold_init.norm_open.{name}",
                value * 1.5 + 0.05)
        add(f"cold_init {name} deleted", ["del", f"cold_init.norm_open.{name}"])
    # -- scale -----------------------------------------------------------
    add("scale digest unstable", ["set", "scale.digest_stable", False])
    add("scale ir not deterministic", ["set", "scale.ir_deterministic", False])
    for phase in base["scale"]["phases"]:
        add(f"scale phase {phase} failed",
            ["set", f"scale.phases.{phase}.ok", False])
    floor("scale warm hit rate", "scale.phases.warm.hit_rate", 0.9)
    add("scale doctor errors", ["set", "scale.doctor.errors", 1])
    for label, path in (("cold", "phases.cold"), ("warm", "phases.warm"),
                        ("doctor", "doctor")):
        value = get(base["scale"], path)["norm_wall"]
        ceiling(f"scale {label}", f"scale.{path}.norm_wall", value * 1.5 + 0.25)
        add(f"scale {label} norm_wall deleted", ["del", f"scale.{path}.norm_wall"])
    # -- fleet -----------------------------------------------------------
    pols = base["fleet"]["policies"]
    perf_j = pols["performance"]["energy_j"]
    add("fleet digest unstable", ["set", "fleet.digest_stable", False])
    add("powersave past performance energy",
        ["set", "fleet.policies.powersave.energy_j", perf_j * (1 + EPS)])
    add("powersave at performance energy",
        ["set", "fleet.policies.powersave.energy_j", perf_j])
    add("ondemand slo fail",
        ["set", "fleet.policies.ondemand.slo_attainment", 0.99])
    add("ondemand energy fail",
        ["set", "fleet.policies.ondemand.energy_j", perf_j])
    add("ondemand energy inside",
        ["set", "fleet.policies.ondemand.energy_j", perf_j * (1 - EPS)])
    add("ondemand slo and energy fail",
        ["set", "fleet.policies.ondemand.slo_attainment", 0.99],
        ["set", "fleet.policies.ondemand.energy_j", perf_j * 2])
    add("performance policy deleted", ["del", "fleet.policies.performance"])
    floor("fleet norm_rate", "fleet.norm_rate", base["fleet"]["norm_rate"] * 0.5)
    add("fleet norm_rate deleted", ["del", "fleet.norm_rate"])
    # -- sweep -----------------------------------------------------------
    add("sweep digest unstable", ["set", "sweep.digest_stable", False])
    for cpus, jobs in ((3, 4), (4, 3), (4, 4), (8, 4)):
        for speedup in (1.999, 2.0):
            add(f"sweep cpus {cpus} jobs {jobs} speedup {speedup}",
                ["set", "sweep.cpus", cpus], ["set", "sweep.jobs", jobs],
                ["set", "sweep.parallel_speedup", speedup])
    add("sweep speedup deleted at 4 cpus",
        ["set", "sweep.cpus", 4], ["set", "sweep.jobs", 4],
        ["del", "sweep.parallel_speedup"])
    floor("sweep single cell", "sweep.single_cell_norm_rate", 2476.637 * 0.5)
    floor("sweep serial cells", "sweep.serial.norm_cells_per_s",
          base["sweep"]["serial"]["norm_cells_per_s"] * 0.5)
    add("sweep serial cells deleted", ["del", "sweep.serial.norm_cells_per_s"])
    # -- optional sections and fields ------------------------------------
    for section in ("serve", "cold_init", "scale", "fleet", "sweep"):
        add(f"{section} deleted", ["del", section])
    add("scale doctor errors deleted", ["del", "scale.doctor.errors"])
    add("scale warm phase deleted", ["del", "scale.phases.warm"])
    add("sweep single cell deleted", ["del", "sweep.single_cell_norm_rate"])
    add("warm hit rate deleted", ["del", "phases.warm.hit_rate"])
    add("query path norm_qps deleted", ["del", "queries.categories.path.norm_qps"])
    # -- several sections failing at once (problem order) ----------------
    add("everything failing",
        ["set", "phases.cold.ok", False], ["set", "ir_deterministic", False],
        ["set", "phases.warm.norm_wall", warm * 10],
        ["set", "queries.categories.by_id.norm_qps", 1.0],
        ["set", "serve.index_builds", 3],
        ["set", "cold_init.rebuilds", 2],
        ["set", "scale.digest_stable", False],
        ["set", "fleet.policies.ondemand.slo_attainment", 0.5],
        ["set", "sweep.digest_stable", False],
        ["set", "sweep.serial.norm_cells_per_s", 1.0])
    return cases


def record(checkout: str) -> dict[str, Any]:
    sys.path.insert(0, checkout)
    harness = importlib.import_module("benchmarks.harness")
    with open(BASELINE, encoding="utf-8") as fh:
        base = json.load(fh)
    cases = []
    for name, ops in build_cases(base):
        try:
            expected: Any = harness.compare(base, apply(base, ops))
        except Exception as exc:  # recorded in the fixture, not hidden
            expected = {"raised": type(exc).__name__}
        cases.append({"name": name, "ops": ops, "expected": expected})
    return {"baseline": base, "cases": cases}


if __name__ == "__main__":
    data = record(os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ROOT))
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data['cases'])} cases to {FIXTURE}")
