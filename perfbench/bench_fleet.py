"""The ``fleet`` workload: ``run_sweep`` over a generated 21-machine cluster.

The grid is every governor x the diurnal, poisson and failures trace
families x a few seeds drawn from ``--seed``, each cell 480 intervals,
sharded over ``nproc`` pool workers.  The simulator, the governors and
the ``power``/``simhw`` models underneath do the work; race-to-idle cells
cost several times the others, so DVFS evaluation shows per policy, and
the pool's start-up and imbalance show against the cell time.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from statistics import median
from typing import Any

from common import OUT_DIR, WORK_DIR, CpuMeter, Result, peak_rss_mb
from repro.composer import Composer
from repro.corpus import generate_corpus
from repro.fleet import GOVERNORS, FleetSimulator, index_state_catalog, make_trace, run_sweep
from repro.fleet.simulator import DEFAULT_REQUEST_OPS
from repro.ir import IRModel
from repro.modellib import standard_repository
from repro.obs import Observer, use_observer
from repro.runtime import xpdl_init_from_model
from repro.simhw import SimTestbed, testbed_from_model
from repro.toolchain import default_jobs
from tracing import LOAD_LAYERS, TracedRepository, Tracer, self_times, write_spans


class Cluster:
    """The composed cluster, its simulated testbed and P-state catalog."""

    def __init__(self, cfg: dict[str, Any], tracer: Tracer | None = None) -> None:
        corpus = generate_corpus(cfg["cluster_seed"], cfg["cluster_scale"])
        os.makedirs(WORK_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="fleet-", dir=WORK_DIR) as scratch:
            corpus.write_to(scratch)
            self.system = sorted(corpus.systems)[0]
            repository = standard_repository(scratch)
            if tracer is None:
                composed = Composer(repository).compose(self.system)
            else:
                repository = TracedRepository.over(repository, tracer)
                with tracer.span("composer.compose"):
                    composed = Composer(repository).compose(self.system)
        self.testbed = testbed_from_model(composed.root, name=self.system)
        ctx = xpdl_init_from_model(IRModel.from_model(composed.root, {"system": self.system}))
        t0 = time.perf_counter()
        self.catalog = index_state_catalog(ctx, self.testbed)
        self.catalog_s = time.perf_counter() - t0


def _setup(cfg: dict[str, Any], times: list[float]) -> Cluster:
    """Set up ``setup_reps`` times, appending each time to ``times``; the
    last cluster is the one measured."""
    for _ in range(cfg["setup_reps"]):
        t0 = time.perf_counter()
        cluster = Cluster(cfg)
        times.append(time.perf_counter() - t0)
    return cluster


def grid(seed: int, cfg: dict[str, Any]) -> dict[str, Any]:
    base = seed * 100
    return {
        "policies": tuple(GOVERNORS),
        "traces": tuple(cfg["traces"]),
        "seeds": tuple(range(base + 1, base + 1 + cfg["seeds_per_sweep"])),
        "intervals": cfg["intervals"],
        "interval_s": cfg["interval_s"],
    }


def run(seed: int, seconds: float, trace: bool, cfg: dict[str, Any]) -> Result:
    result = Result("fleet")
    jobs = default_jobs()
    setups: list[float] = []
    cluster = _setup(cfg, setups)
    result.check("cluster has the expected machines", len(cluster.testbed.machines) == cfg["machines"])
    g = grid(seed, cfg)
    if trace:
        _run_traced(result, cluster, g, jobs, cfg)
        return result

    walls, slowest, rates, cpus, digests = [], [], [], [], []
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < seconds:
        if walls:
            # Set-up samples spread over the run, so one slow spell of the
            # host cannot decide their median.
            cluster = _setup(cfg, setups)
        cpu = CpuMeter()
        t0 = time.perf_counter()
        report, stats = run_sweep(cluster.testbed, state_catalog=cluster.catalog, jobs=jobs, **g)
        wall = time.perf_counter() - t0
        cpus.append(cpu.elapsed())
        walls.append(wall)
        slowest.append(max(stats.worker_s))
        rates.append(len(cluster.testbed.machines) * g["intervals"] * stats.cells / wall)
        digests.append(report.digest())
        result.attempted += stats.cells
        result.failed += stats.cells - len(report.cells)
    n = len(walls)
    stable = all(d == digests[0] for d in digests)
    result.failed += 0 if stable else result.attempted
    result.check("sweep digest identical across repetitions", stable)
    if seed == cfg["reference_seed"] and not result.check(
        "sweep digest equals the recorded reference", digests[0] == cfg["reference_digest"]
    ):
        result.failed += result.attempted
    result.put("setup_s", median(setups), "s", len(setups), "corpus, compose, IR, state catalog")
    result.put("latency_ms", median(walls) * 1e3, "ms", n, "one whole sweep")
    result.put("rate_per_s", median(rates), "1/s", n, "simulated machine-intervals per second")
    result.put("cpu_s", median(cpus), "s", n, "per sweep")
    result.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
    result.detail("fleet_mi_per_s", median(rates), "machine-intervals/s", n)
    result.detail("slowest_worker_ms", median(slowest) * 1e3, "ms", n, "slowest pool worker of a sweep")
    result.detail("cells", stats.cells, "count", 1)
    result.detail("machines", len(cluster.testbed.machines), "count", 1)
    print(f"fleet digest {digests[0]}")
    return result


# -- traced run ----------------------------------------------------------------


def _traced_cells(task: tuple[int, SimTestbed, dict, tuple, dict[str, Any]]) -> dict[str, Any]:
    """One worker's share of the grid, run the way ``run_sweep``'s workers
    run it, with the trace build and every cell as spans."""
    index, testbed, catalog, cells, g = task
    tracer = Tracer(f"w{index}")
    # run_sweep's workers simulate under an observer and ship its snapshot
    # back; so does this one, so both sweeps do the same work.
    observer = Observer()
    with use_observer(observer):
        sim = FleetSimulator(testbed, state_catalog=catalog, request_ops=DEFAULT_REQUEST_OPS)
        machines = sorted(testbed.machines)
        traces: dict[tuple[str, int], Any] = {}
        results = []
        for cell_index, (policy, kind, seed) in cells:
            rid = str(cell_index)
            tr = traces.get((kind, seed))
            if tr is None:
                with tracer.span("fleet.traces", request=rid):
                    tr = traces[(kind, seed)] = make_trace(
                        kind, seed=seed, intervals=g["intervals"], interval_s=g["interval_s"],
                        machines=machines,
                    )
            with tracer.span(f"fleet.cell.{policy}", request=rid):
                results.append((cell_index, sim.run_policy(policy, tr)))
    return {"results": results, "spans": tracer.spans, "observations": observer.snapshot()}


def _traced_sweep(cluster: Cluster, g: dict[str, Any], jobs: int) -> tuple[float, list, dict[int, Any]]:
    """The grid sharded round-robin over the pool, as ``run_sweep`` shards
    it; returns the wall, the workers' spans and the cell results."""
    cells = [
        (policy, kind, seed) for kind in g["traces"] for seed in g["seeds"] for policy in g["policies"]
    ]
    workers = min(jobs, len(cells))
    pruned = SimTestbed(name=cluster.testbed.name, machines=dict(cluster.testbed.machines))
    tasks = [
        (w, pruned, dict(cluster.catalog), tuple((i, c) for i, c in enumerate(cells) if i % workers == w), g)
        for w in range(workers)
    ]
    t0 = time.perf_counter()
    if workers == 1:
        outs = [_traced_cells(t) for t in tasks]
    else:
        # The same start method as run_sweep's pool.
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            outs = list(pool.map(_traced_cells, tasks))
    merged = Observer()
    for out in outs:
        merged.merge(out["observations"])
    wall = time.perf_counter() - t0
    return wall, [s for out in outs for s in out["spans"]], dict(r for out in outs for r in out["results"])


def _run_traced(result: Result, cluster: Cluster, g: dict[str, Any], jobs: int, cfg: dict[str, Any]) -> None:
    # Untraced and traced sweeps alternate; each side reports its median.
    untraced_walls, traced_walls, cell_times = [], [], []
    for _ in range(cfg["trace_pairs"]):
        t0 = time.perf_counter()
        report, stats = run_sweep(cluster.testbed, state_catalog=cluster.catalog, jobs=jobs, **g)
        untraced_walls.append(time.perf_counter() - t0)
        wall, spans, results = _traced_sweep(cluster, g, jobs)
        traced_walls.append(wall)
        expected = {i: c.result for i, c in enumerate(report.cells)}
        mismatched = sum(1 for i, r in expected.items() if results.get(i) != r)
        result.attempted += 2 * stats.cells
        result.failed += mismatched
        result.check("traced cells equal the untraced sweep", mismatched == 0)
        cell_times.append(self_times(spans))
    untraced = median(untraced_walls)
    traced = median(traced_walls)
    cells = [(c.cell.policy, c.cell.trace, c.cell.seed) for c in report.cells]
    workers = min(jobs, len(cells))
    own = {name: median(t.get(name, 0.0) for t in cell_times) for name in cell_times[0]}
    busy = sum(own.values())
    # One more set-up, traced, for the loading and composing it does.
    setup_tracer = Tracer("setup")
    Cluster(cfg, setup_tracer)
    setup_self = self_times(setup_tracer.spans)
    for span_name, metric in LOAD_LAYERS + (("composer.compose", "composer.compose_s"),):
        result.put(metric, setup_self.get(span_name, 0.0), "s", 1, "set-up")
    result.put("repository.loads", setup_tracer.counts.get("repository.loads", 0), "count", 1, "set-up")
    n_traces = len(g["traces"]) * len(g["seeds"])
    result.put("fleet.traces_s", own.get("fleet.traces", 0.0), "s", n_traces, "all workers")
    result.put("fleet.catalog_s", cluster.catalog_s, "s", 1, "index_state_catalog, set-up")
    for policy in g["policies"]:
        n = sum(1 for c in cells if c[0] == policy)
        result.put(f"fleet.cell_s.{policy}", own.get(f"fleet.cell.{policy}", 0.0) / n, "s", n, "mean per cell")
    result.put("fleet.sweep.pool_s", untraced - busy / workers, "s", 1, "untraced wall - cell time per worker")
    result.put("fleet.sweep.parallel_efficiency", busy / (untraced * workers), "ratio", workers,
               "cell time / (untraced wall x workers)")
    result.put("fleet.switches", sum(c.result.switches for c in report.cells), "count", len(cells))
    result.detail("fleet.untraced_wall_s", untraced, "s", 1)
    result.put("trace.overhead_s", traced - untraced, "s", 1, "traced wall - untraced wall")
    write_spans(os.path.join(OUT_DIR, "fleet-spans.jsonl"), spans)
