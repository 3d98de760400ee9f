"""Differential test of the benchmark CI gate (``benchmarks.harness.compare``).

``tests/fixtures/bench_gates.json`` holds a baseline report and a matrix
of mutated copies of it, each with the problem list the hand-written
``compare`` produced before the gates became the :data:`GATES` table
(recorded by ``tests/record_bench_gates.py``).  The table must give the
same strings in the same order on every case.  No bench run is needed.
"""

from __future__ import annotations

import json
import os

import pytest

from tests.record_bench_gates import FIXTURE, apply

harness = pytest.importorskip("benchmarks.harness")

with open(FIXTURE, encoding="utf-8") as _fh:
    DATA = json.load(_fh)
BASELINE = DATA["baseline"]
CASES = {case["name"]: case for case in DATA["cases"]}

#: Cases where a metric the hand-written gate skipped when missing now
#: fails its row (stricter): the extra problems the table reports.
STRICTER = {
    "scale doctor errors deleted": [
        "scale bench: doctor found None error(s) in the generated corpus "
        "(generator must be doctor-clean)"
    ],
    "scale warm phase deleted": [
        "scale bench warm hit rate 0% below the 90% floor"
    ],
    "sweep single cell deleted": [
        "sweep bench: single-cell norm_rate 0.000 fell below the schema-6 "
        "cursor-engine floor 1238.319 (the memoized inner loop must stay at "
        "least as fast as the pre-memo simulator)"
    ],
}

#: How the message of each of the old ``compare``'s 33 branches starts.
BRANCHES = (
    "phase cold: build failed",
    "parallel build is not byte-identical to sequential",
    "warm hit rate ",
    "warm build regressed",
    "query bench 'getter': missing",
    "query bench 'getter' regressed",
    "compiled path query engine only",
    "hot serve dispatch is",
    "serve bench built the hosted index",
    "serve bench 'hot': missing",
    "serve bench 'hot' regressed",
    "warm image open rebuilt the index",
    "warm image open only",
    "cold_init bench 'core_only': missing",
    "cold_init bench 'core_only' regressed",
    "scale bench: generator digest is not stable",
    "scale bench: parallel corpus build is not byte-identical",
    "scale bench phase warm: build failed",
    "scale bench warm hit rate",
    "scale bench: doctor found 1 error(s)",
    "scale bench doctor: missing",
    "scale bench doctor regressed",
    "fleet bench: report is not byte-identical",
    "fleet bench: powersave used more energy",
    "fleet bench: ondemand SLO attainment",
    "fleet bench: ondemand saved no energy",
    "fleet bench: missing from current report",
    "fleet bench regressed",
    "sweep bench: report is not byte-identical",
    "sweep bench: parallel speedup",
    "sweep bench: single-cell norm_rate",
    "sweep bench: serial cells/s missing",
    "sweep bench regressed",
)


@pytest.mark.parametrize("name", list(CASES))
def test_gate_matches_recorded_problems(name):
    case = CASES[name]
    problems = harness.compare(BASELINE, apply(BASELINE, case["ops"]))
    expected = case["expected"]
    if isinstance(expected, dict):
        # The hand-written gate raised on the deleted field; the table
        # reports a problem instead.
        assert problems, expected
    elif problems != expected:
        extra = STRICTER.get(name, [])
        assert extra and all(p in problems for p in extra), problems
        assert [p for p in problems if p not in extra] == expected


def test_every_branch_is_exercised():
    messages = [
        p for case in CASES.values()
        if isinstance(case["expected"], list) for p in case["expected"]
    ]
    for fragment in BRANCHES:
        assert any(p.startswith(fragment) for p in messages), fragment


def test_committed_baseline_passes_against_itself():
    path = os.path.join(
        os.path.dirname(harness.__file__), "baseline", "BENCH_baseline.json"
    )
    baseline = harness.load_report(path)
    assert harness.compare(baseline, baseline) == []


def test_every_gate_row_is_well_formed():
    kinds = {"true", "equal", "floor", "base_floor", "base_ceiling",
             "ratio_floor", "ratio_ceiling"}
    for gate in harness.GATES:
        assert gate.kind in kinds, gate
        assert bool(gate.missing) == gate.kind.startswith("base_"), gate
        assert isinstance(gate.path, tuple) == gate.kind.startswith("ratio_"), gate
