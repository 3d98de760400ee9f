"""The ``build`` workload: a generated corpus built cold, then rebuilt warm
after one shared descriptor is edited.

The cold build runs the whole parse -> compose -> analyze -> emit -> image
pipeline and writes the persistent stage cache; the warm rebuild reads
that cache for every system the edit does not touch and recomputes the
rest.  The runtime, service and fleet layers stay idle.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from statistics import median
from typing import Any

from common import (
    OUT_DIR,
    CpuMeter,
    Result,
    fresh_dir,
    peak_rss_mb,
)
from repro.corpus import generate_corpus
from repro.diagnostics import DiagnosticSink
from repro.modellib import standard_repository
from repro.obs import Observer
from repro.toolchain import default_jobs, discover_systems, plan_shards, run_batch
from tracing import (
    LOAD_LAYERS,
    TracedRepository,
    TracedSession,
    TracedStageCache,
    Tracer,
    self_times,
    write_spans,
)

# The memory module of generator family 0.  Systems j = 0, F, 2F, ... (F
# families) place it in every node, so at a fixed scale the edit touches
# the same number of systems whatever the seed.
_EDIT_TARGET = re.compile(r"^memory/gen_[a-z]+_[a-z]+0_mem\.xpdl$")
_SIZE_ATTR = re.compile(r'size="(\d+)"')


class Corpus:
    """A generated corpus on disk plus the one edit the warm build sees."""

    def __init__(self, seed: int, scale: int) -> None:
        corpus = generate_corpus(seed, scale)
        self.root = fresh_dir("build", "corpus")
        corpus.write_to(self.root)
        self.systems = list(corpus.systems)
        self.descriptors = len(corpus)
        files = dict(corpus.files)
        targets = [p for p in files if _EDIT_TARGET.match(p)]
        if len(targets) != 1:
            raise RuntimeError(f"expected one family-0 memory module, found {targets}")
        self.edit_path = os.path.join(self.root, targets[0])
        self.original = files[targets[0]]
        size = int(_SIZE_ATTR.search(self.original).group(1))
        self.edited = _SIZE_ATTR.sub(f'size="{size * 2}"', self.original, count=1)
        member = re.search(r'name="([^"]+)"', self.original).group(1)
        # Systems reference the module by name straight from their node
        # descriptors; read that from the files, not from the toolchain.
        self.touched = sorted(
            s for s in self.systems if f'type="{member}"' in files[f"system/{s}.xpdl"]
        )

    def _write(self, text: str) -> None:
        with open(self.edit_path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def edit(self) -> None:
        self._write(self.edited)

    def revert(self) -> None:
        self._write(self.original)


def _setup(seed: int, cfg: dict[str, Any], times: list[float]) -> Corpus:
    """Set up ``setup_reps`` times, appending each time to ``times``; the
    last corpus is the one measured."""
    for _ in range(cfg["setup_reps"]):
        t0 = time.perf_counter()
        corpus = Corpus(seed, cfg["scale"])
        times.append(time.perf_counter() - t0)
    return corpus


def _shas(report) -> dict[str, str | None]:
    return {b.identifier: (b.ir_sha256 if b.ok else None) for b in report.builds}


def _check_pair(
    result: Result, corpus: Corpus, cold: dict[str, str | None], warm: dict[str, str | None]
) -> None:
    """Cold and warm IR must agree on every system the edit leaves alone
    and differ on every system it touches; a failed build is an error."""
    for ident in corpus.systems:
        c, w = cold.get(ident), warm.get(ident)
        result.attempted += 2
        result.failed += (c is None) + (w is None)
        if c is None or w is None:
            continue
        same = c == w
        if same == (ident in corpus.touched):
            result.failed += 1


def _untraced_pair(corpus: Corpus, jobs: int, tag: str) -> tuple[float, float, Any, Any]:
    cache = fresh_dir("build", f"cache-{tag}")
    # Earlier repetitions' cache writes are flushed first, so their
    # writeback does not land in this build's wall.
    os.sync()
    t0 = time.perf_counter()
    cold = run_batch(standard_repository(corpus.root), corpus.systems, jobs=jobs, cache_dir=cache)
    cold_s = time.perf_counter() - t0
    corpus.edit()
    try:
        t0 = time.perf_counter()
        warm = run_batch(
            standard_repository(corpus.root), corpus.systems, jobs=jobs, cache_dir=cache
        )
        warm_s = time.perf_counter() - t0
    finally:
        corpus.revert()
    return cold_s, warm_s, cold, warm


def run(seed: int, seconds: float, trace: bool, cfg: dict[str, Any]) -> Result:
    result = Result("build")
    jobs = default_jobs()
    setups: list[float] = []
    corpus = _setup(seed, cfg, setups)
    result.check("edit touches some but not all systems", 0 < len(corpus.touched) < len(corpus.systems))
    if trace:
        _run_traced(result, corpus, jobs, cfg["trace_pairs"])
        return result

    colds, warms, rates, cpus, misses = [], [], [], [], []
    reference: dict[str, str | None] | None = None
    t_start = time.perf_counter()
    while not colds or time.perf_counter() - t_start < seconds:
        if colds:
            # Set-up samples spread over the run, so one slow spell of the
            # host cannot decide their median.
            corpus = _setup(seed, cfg, setups)
        cpu = CpuMeter()
        cold_s, warm_s, cold, warm = _untraced_pair(corpus, jobs, str(len(colds)))
        cpus.append(cpu.elapsed())
        colds.append(cold_s)
        warms.append(warm_s)
        rates.append(len(corpus.systems) / cold_s)
        misses.append(warm.cache.get("misses", 0))
        cold_shas, warm_shas = _shas(cold), _shas(warm)
        _check_pair(result, corpus, cold_shas, warm_shas)
        if reference is None:
            reference = cold_shas
        elif cold_shas != reference:
            result.failed += 1
            result.check("cold IR identical across repetitions", False)
    n = len(colds)
    result.check("warm rebuild recomputes stages", min(misses) > 0)
    result.put("setup_s", median(setups), "s", len(setups), "corpus generate + write")
    result.put("latency_ms", median(warms) * 1e3, "ms", n, "warm rebuild after one edit")
    result.put("rate_per_s", median(rates), "1/s", n, "systems built per second, cold build into an empty cache")
    result.put("cpu_s", median(cpus), "s", n, "per cold + warm pair")
    result.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
    result.detail("build_cold_s", median(colds), "s", n)
    result.detail("build_warm_s", median(warms), "s", n)
    result.detail("systems", len(corpus.systems), "count", 1)
    result.detail("descriptors", corpus.descriptors, "count", 1)
    result.detail("touched_systems", len(corpus.touched), "count", 1)
    result.detail("warm_recomputed_stages", median(misses), "count", n)
    return result


# -- traced run ----------------------------------------------------------------


def _traced_worker(task: tuple[TracedRepository, tuple[str, ...], int, str]) -> dict[str, Any]:
    """One shard, built the way ``run_batch``'s workers build it, through
    the traced session, repository and stage cache."""
    repository, shard, index, cache_dir = task
    tracer = Tracer(f"w{index}")
    repository.tracer = tracer
    session = TracedSession(
        repository,
        sink=DiagnosticSink(),
        observer=Observer(),
        disk_cache=TracedStageCache(cache_dir, tracer),
    )
    session.tracer = tracer
    shas: dict[str, str | None] = {}
    for ident in shard:
        with tracer.span("toolchain.system", request=ident):
            try:
                blob = session.emit_ir(ident).ir.to_bytes()
                shas[ident] = hashlib.sha256(blob).hexdigest()
            except Exception:  # a failed build is counted, not fatal
                shas[ident] = None
    # run_batch's workers ship their diagnostics and observer snapshot
    # back; so does this one, so both builds do the same work.
    return {
        "shas": shas,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "cache": session.cache_stats(),
        "diagnostics": session.sink.diagnostics,
        "observations": session.observer.snapshot(),
    }


def _traced_batch(corpus: Corpus, jobs: int, cache_dir: str, tag: str) -> dict[str, Any]:
    tracer = Tracer(f"parent-{tag}")
    t0 = time.perf_counter()
    repository = TracedRepository.over(standard_repository(corpus.root), tracer)
    targets = discover_systems(repository, corpus.systems)
    with tracer.span("toolchain.batch.plan"):
        plan = plan_shards(repository, targets, jobs, DiagnosticSink())
    tasks = [(repository, shard, i, cache_dir) for i, shard in enumerate(plan.shards)]
    if jobs == 1 or len(tasks) <= 1:
        outs = [_traced_worker(t) for t in tasks]
    else:
        # The same start method as run_batch's pool, so both builds pay
        # the same pool start-up.
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=len(tasks), mp_context=ctx) as pool:
            outs = list(pool.map(_traced_worker, tasks))
    sink, merged = DiagnosticSink(), Observer()
    for out in outs:
        sink.extend(out["diagnostics"])
        merged.merge(out["observations"])
    wall = time.perf_counter() - t0
    shas: dict[str, str | None] = {}
    counts = dict(tracer.counts)
    cache: dict[str, int] = {}
    worker_spans = []
    for out in outs:
        shas.update(out["shas"])
        worker_spans.extend(out["spans"])
        for k, v in out["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in out["cache"].items():
            cache[k] = cache.get(k, 0) + v
    # Layer seconds of the build wall: parent spans in full, pool-worker
    # spans shared out over the workers that ran side by side.
    layer = self_times(tracer.spans)
    for name, secs in self_times(worker_spans).items():
        layer[name] = layer.get(name, 0.0) + secs / len(outs)
    return {
        "wall": wall,
        "shas": shas,
        "counts": counts,
        "cache": cache,
        "layer": layer,
        "spans": tracer.spans + worker_spans,
    }


def _tree_bytes(root: str) -> int:
    total = 0
    for sub in ("objects", "images"):
        for dirpath, _dirs, files in os.walk(os.path.join(root, sub)):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


_BUILD_LAYERS = (
    ("toolchain.batch.plan", "toolchain.batch.plan_s"),
    ("composer.compose", "composer.compose_s"),
    ("analysis.analyze", "analysis.analyze_s"),
    ("ir.emit", "ir.emit_s"),
    ("toolchain.diskcache.store", "toolchain.diskcache.store_s"),
) + LOAD_LAYERS


def _traced_pair(corpus: Corpus, jobs: int, tag: str) -> tuple[dict[str, Any], dict[str, Any], int]:
    cache = fresh_dir("build", f"cache-traced-{tag}")
    os.sync()
    cold = _traced_batch(corpus, jobs, cache, f"cold{tag}")
    store_bytes = _tree_bytes(cache)
    corpus.edit()
    try:
        warm = _traced_batch(corpus, jobs, cache, f"warm{tag}")
    finally:
        corpus.revert()
    return cold, warm, store_bytes


def _run_traced(result: Result, corpus: Corpus, jobs: int, pairs: int) -> None:
    # Untraced and traced pairs alternate so a slow spell of the host
    # falls on both sides; each side reports its median.
    untraced, traced, layers = [], [], []
    for k in range(pairs):
        cold_s, warm_s, cold, warm = _untraced_pair(corpus, jobs, f"untraced{k}")
        _check_pair(result, corpus, _shas(cold), _shas(warm))
        untraced.append(cold_s + warm_s)
        t_cold, t_warm, store_bytes = _traced_pair(corpus, jobs, str(k))
        _check_pair(result, corpus, t_cold["shas"], t_warm["shas"])
        result.check(
            "traced and untraced builds emit the same IR",
            t_cold["shas"] == _shas(cold) and t_warm["shas"] == _shas(warm),
        )
        traced.append(t_cold["wall"] + t_warm["wall"])
        layers.append(
            {m: t_cold["layer"].get(s, 0.0) + t_warm["layer"].get(s, 0.0) for s, m in _BUILD_LAYERS}
        )

    layer_total = 0.0
    for _, metric in _BUILD_LAYERS:
        secs = median(lay[metric] for lay in layers)
        layer_total += secs
        result.put(metric, secs, "s", pairs, "cold + warm build")
    loads = t_cold["counts"].get("repository.loads", 0) + t_warm["counts"].get("repository.loads", 0)
    lookups = t_warm["counts"].get("toolchain.diskcache.lookups", 0)
    loaded = t_warm["counts"].get("toolchain.diskcache.loads_ok", 0)
    result.put("repository.loads", loads, "count", 1, "cold + warm build")
    result.put("toolchain.diskcache.store_bytes", store_bytes, "bytes", 1, "cold build")
    result.put("toolchain.diskcache.hit_ratio", loaded / lookups if lookups else 0.0, "ratio", lookups, "warm build")
    result.put("toolchain.recomputed_stages", t_warm["cache"].get("misses", 0), "count", 1, "warm build")
    wall = median(untraced)
    result.put("build.residual_s", wall - layer_total, "s", pairs, "untraced wall - layer times")
    result.detail("build.untraced_wall_s", wall, "s", pairs, "cold + warm build")
    result.put("trace.overhead_s", median(traced) - wall, "s", pairs, "traced wall - untraced wall")
    write_spans(os.path.join(OUT_DIR, "build-spans.jsonl"), t_cold["spans"] + t_warm["spans"])
