"""E9 — runtime query API cost (Sec. IV).

The query API is meant for *run-time* introspection inside adaptive
applications, so its operations must be cheap.  Timed: xpdl_init (loading
the runtime file + building the query index), attribute getters, browsing,
path queries, and the derived-attribute analysis functions, on the
composed liu_gpu_server model (2694 elements).

The compiled engine (IRIndex + cached path plans + memoized analyses) is
benchmarked against the naive evaluators it replaced: ``*_naive`` cases
re-parse the path string and walk the whole tree per call.  E9b reports
the resulting speedups (the CI harness gates them at >= 5x; see
``benchmarks/harness.py``).
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import emit_table

from repro.ir import IRModel
from repro.runtime import query_all, xpdl_init
from repro.runtime.paths import query_all_naive
from repro.units import POWER, read_metric

HOT_PATH = "//cache[@name='L3']"


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, liu_server):
    path = str(tmp_path_factory.mktemp("e9") / "liu.xir")
    IRModel.from_model(liu_server.root, {"system": "liu_gpu_server"}).save(path)
    return path


def _analysis_naive(ctx):
    """The pre-index analysis functions: one physical walk per call."""
    root = ctx.ir.root
    cores = sum(1 for n in ctx._physical_walk(root) if n.kind == "core")
    cuda = 0
    for n in ctx._physical_walk(root):
        if n.kind in ("device", "gpu") and any(
            c.kind == "programming_model"
            and "cuda" in c.attrs.get("type", "").lower()
            for c in ctx.ir.children_of(n)
        ):
            cuda += 1
    power = 0.0
    for n in ctx._physical_walk(root):
        q = read_metric(n.attrs, "static_power", expect=POWER)
        if q is not None:
            power += q.magnitude
    return cores, cuda, power


def test_e9_init(benchmark, model_file):
    ctx = benchmark(xpdl_init, model_file)
    assert len(ctx.ir) == 2694
    emit_table(
        "E9a",
        "runtime model file",
        ["file size (KiB)", "elements"],
        [[f"{os.path.getsize(model_file) / 1024:.1f}", "2694"]],
    )


def test_e9_getter(benchmark, model_file):
    ctx = xpdl_init(model_file)
    gpu = ctx.by_id("gpu1")

    def getters():
        return gpu.get_compute_capability(), gpu.get_quantity("static_power")

    cc, sp = benchmark(getters)
    assert cc == "3.5"


def test_e9_browse(benchmark, model_file):
    ctx = xpdl_init(model_file)

    def browse():
        node = ctx.root
        for _ in range(3):
            kids = node.children()
            if not kids:
                break
            node = kids[0]
        return node

    benchmark(browse)


def test_e9_by_id(benchmark, model_file):
    ctx = xpdl_init(model_file)
    ctx.by_id("gpu1")  # warm the index

    def lookup():
        return ctx.by_id("gpu1")

    handle = benchmark(lookup)
    assert handle is not None


def test_e9_path_query(benchmark, model_file):
    ctx = xpdl_init(model_file)

    def query():
        return query_all(ctx, HOT_PATH)

    result = benchmark(query)
    assert len(result) == 1


def test_e9_path_query_naive(benchmark, model_file):
    """The uncompiled evaluator, kept as the comparison subject."""
    ctx = xpdl_init(model_file)

    def query():
        return query_all_naive(ctx, HOT_PATH)

    result = benchmark(query)
    assert len(result) == 1


def test_e9_analysis_functions(benchmark, model_file):
    ctx = xpdl_init(model_file)

    def analyze():
        return (
            ctx.count_cores(),
            ctx.count_cuda_devices(),
            ctx.total_static_power(),
        )

    cores, cuda, power = benchmark(analyze)
    assert cores == 2500 and cuda == 1


def test_e9_analysis_naive(benchmark, model_file):
    ctx = xpdl_init(model_file)
    cores, cuda, power = benchmark(_analysis_naive, ctx)
    assert cores == 2500 and cuda == 1


def test_e9_compiled_speedup(model_file):
    """E9b: compiled engine vs naive evaluators (acceptance: >= 5x)."""
    ctx = xpdl_init(model_file)

    def rate(fn, min_duration_s=0.2):
        fn()
        n, t0 = 0, time.perf_counter()
        while True:
            fn()
            n += 1
            dt = time.perf_counter() - t0
            if dt >= min_duration_s:
                return n / dt

    assert query_all(ctx, HOT_PATH) == query_all_naive(ctx, HOT_PATH)
    path_qps = rate(lambda: query_all(ctx, HOT_PATH))
    path_naive_qps = rate(lambda: query_all_naive(ctx, HOT_PATH))
    analysis_qps = rate(
        lambda: (
            ctx.count_cores(),
            ctx.count_cuda_devices(),
            ctx.total_static_power(),
        )
    )
    analysis_naive_qps = rate(lambda: _analysis_naive(ctx))

    path_speedup = path_qps / path_naive_qps
    analysis_speedup = analysis_qps / analysis_naive_qps
    emit_table(
        "E9b",
        "compiled query engine vs naive evaluation (liu_gpu_server)",
        ["category", "naive (q/s)", "compiled (q/s)", "speedup"],
        [
            [
                "path query",
                f"{path_naive_qps:.0f}",
                f"{path_qps:.0f}",
                f"{path_speedup:.0f}x",
            ],
            [
                "analysis",
                f"{analysis_naive_qps:.0f}",
                f"{analysis_qps:.0f}",
                f"{analysis_speedup:.0f}x",
            ],
        ],
        notes="compiled = IRIndex buckets/intervals + cached plans + memoized analyses",
    )
    assert path_speedup >= 5.0
    assert analysis_speedup >= 5.0