"""The benchmark harness behind ``python -m benchmarks`` (run from repo root).

Converts the ad-hoc experiment scripts' role of "how fast is the
toolchain" into a repeatable, CI-gateable measurement.  ``run`` builds
the modellib corpus three ways through :func:`repro.toolchain.run_batch`
and emits one ``BENCH_<rev>.json``:

* **cold** — fresh persistent cache, sequential: the worst case;
* **warm** — same cache directory again: everything should come from the
  persistent stage cache (hit rate >= 0.9 is an acceptance criterion);
* **parallel** — fresh cache, ``--jobs N`` fan-out: the scaling case.

Wall-clock numbers are machine-dependent, so each report also carries a
``calibration_s`` — the time of a fixed pure-Python spin measured on the
same host — and every phase's ``norm_wall`` (wall / calibration).

Besides the build phases, each report has these sections:

* ``queries`` — runtime query API throughput (queries/s and
  calibration-normalized ``norm_qps``) on the composed liu_gpu_server
  model for the paper's Sec. IV categories (getter, browse, by_id, path,
  analysis), plus the *naive* uncompiled path/analysis evaluators;
* ``scale`` — the toolchain over a *generated* corpus (``repro.corpus``,
  seed/scale fixed in :data:`SCALE_BENCH_SEED` /
  :data:`SCALE_BENCH_SCALE`): generator throughput, cold/warm/parallel
  batch builds of the synthetic systems, and a cold doctor pass;
* ``serve`` — the ``xpdl serve`` hot path in-process:
  :class:`repro.service.ModelHost` dispatch throughput once the model's
  ``IRIndex`` is hosted (single requests, 32-request batches, and a
  4-thread hammer);
* ``cold_init`` — a full ``xpdl_init`` open of the same model as a v2
  image with its index sections (mmap, index adopted in place) and as a
  core-only v2 image (index built live);
* ``fleet`` — the discrete-interval fleet simulator (``repro.fleet``)
  over a small generated cluster: a seeded diurnal trace through every
  DVFS governor policy, reporting per-policy energy/SLO and the
  simulation rate (machine-intervals/s);
* ``sweep`` (schema 7) — the full (policy, trace, seed) grid sharded
  through ``repro.fleet.run_sweep`` at ``jobs=1`` and ``jobs=4``: grid
  wall, cells/s and the parallel speedup, plus the ``fleet`` section's
  single-cell rate.

``compare`` is the CI gate over two reports.  Every check it makes is a
row of :data:`GATES`, read by one evaluator: structural invariants
(successful and byte-identical builds, stable digests, zero doctor
errors, no index rebuild on a warm open or per served request),
constant floors (warm hit rate, compiled-vs-naive speedup, cold-open
speedup, sweep speedup on hosts with >= 4 CPUs, the frozen schema-6
fleet rate), self-consistent ratios within one run (serve dispatch vs
raw path queries, powersave/ondemand vs performance energy and SLO), and
calibration-normalized throughput and latency against the committed
baseline.  Normalizing keeps the regression check meaningful across
runner generations.
"""

from __future__ import annotations

import json
import math
import operator
import os
import platform
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, NamedTuple, Sequence

BENCH_SCHEMA = 7

#: Warm-cache hit-rate floor (acceptance criterion: >= 90 %).
MIN_WARM_HIT_RATE = 0.9

#: Allowed normalized-wall regression for the CI gate.
MAX_REGRESS = 0.25

#: Absolute slack (in calibration units) added to the gate so sub-100ms
#: phases are not flagged by scheduler noise alone.
NORM_SLACK = 0.25

#: Extra tolerated fraction on the query-throughput gate: microbenchmark
#: rates are noisier than whole-build walls, so the floor is
#: ``baseline * (1 - MAX_REGRESS - QUERY_NOISE)``.  The compiled engine
#: beats the naive evaluators by orders of magnitude, so even this loose
#: floor trips immediately if the engine is reverted or broken.
QUERY_NOISE = 0.25

#: The compiled engine must stay at least this much faster than the
#: naive uncompiled evaluator (acceptance criterion: >= 5x).
MIN_QUERY_SPEEDUP = 5.0

#: Hot model-service dispatch (request object in, payload out, index
#: already hosted) must stay within this factor of raw in-process
#: compiled path-query throughput (acceptance criterion: <= 5x away).
#: This is a *self-consistent* gate — both sides are measured on the
#: same host in the same run — so it needs no calibration.
MAX_SERVE_DISPATCH_SLOWDOWN = 5.0

#: Warm model open (mmap a v2 image, adopt its persisted index) must be
#: at least this much faster than a from-scratch open (core-only v2
#: image + live index build) on the largest corpus model.  The floor was
#: 10x against the retired v1 decode, which opened 1.41x faster than the
#: core-only image in the committed baseline; 10 x 1.41 rounds to 14.
#: Self-consistent — both sides measured in the same run.
MIN_COLD_OPEN_SPEEDUP = 14.0

#: Synthetic model sizes (elements) for the cold-open scaling sweep.
COLD_INIT_SCALING_NODES = (1_000, 10_000, 50_000)

#: Seed/scale of the generated corpus the ``scale`` section measures.
#: Scale 120 is ~6x the bundled corpus — big enough that batch sharding,
#: repository indexing and the doctor's cross-descriptor passes dominate,
#: small enough for every CI run.
SCALE_BENCH_SEED = 7
SCALE_BENCH_SCALE = 120

#: Seed/scale of the generated cluster the ``fleet`` section simulates,
#: and the trace geometry it drives through every governor.  Scale 40
#: yields ~20 machines in the first generated system — enough that the
#: greedy allocator and per-machine governor loops dominate, small
#: enough for every CI run.
FLEET_BENCH_SEED = 11
FLEET_BENCH_SCALE = 40
FLEET_BENCH_TRACE = "diurnal"
FLEET_BENCH_TRACE_SEED = 5
FLEET_BENCH_INTERVALS = 24
FLEET_BENCH_INTERVAL_S = 60.0

#: Grid the ``sweep`` section shards (schema 7): every governor policy x
#: two trace shapes x eight seeds on the FLEET_BENCH cluster = 64 cells.
SWEEP_BENCH_TRACES = ("diurnal", "poisson")
SWEEP_BENCH_SEEDS = tuple(range(1, 9))
SWEEP_BENCH_JOBS = 4

#: Parallel sweep speedup floor at ``--jobs 4`` (acceptance criterion:
#: >= 2x).  Enforced only when the host actually has >= SWEEP_BENCH_JOBS
#: CPUs; a 1-core container cannot exhibit process-level speedup.
MIN_SWEEP_SPEEDUP = 2.0

#: The schema-6 fleet simulator rate (``norm_rate``: machine-intervals/s
#: x calibration) on this grid's cluster, measured with the cursor-walk
#: inner loop before the memoized engine landed.  The single-cell gate
#: floors the current fleet rate against this constant so the
#: memoization win cannot silently regress away even when the committed
#: baseline is regenerated.
SCHEMA6_FLEET_NORM_RATE = 2476.637

#: The path query measured for the path/path_naive categories (the E9
#: hot pattern: descendant axis + attribute-value predicate).
QUERY_BENCH_PATH = "//cache[@name='L3']"

#: The system the query bench runs on (2694 elements once composed).
QUERY_BENCH_SYSTEM = "liu_gpu_server"

_CALIBRATION_LOOPS = 2_000_000
_QUERY_MIN_DURATION_S = 0.2


def calibrate(loops: int = _CALIBRATION_LOOPS) -> float:
    """Seconds for a fixed pure-Python spin; the host-speed yardstick."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i
    if acc < 0:  # pragma: no cover - keeps the loop from being elided
        raise AssertionError
    return time.perf_counter() - t0


def git_rev() -> str:
    """Short git revision of the working tree, or ``local``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def _rate(
    fn,
    min_duration_s: float = _QUERY_MIN_DURATION_S,
    windows: int = 3,
) -> float:
    """Calls per second of ``fn``: best of ``windows`` timed windows.

    Taking the fastest window (timeit's advice: the minimum time is the
    measurement, everything above it is interference) keeps a transient
    load spike on the host from reading as a throughput regression.
    """
    fn()  # warm up (index/memo builds, plan cache)
    best = 0.0
    for _ in range(windows):
        n = 0
        t0 = time.perf_counter()
        while True:
            fn()
            n += 1
            dt = time.perf_counter() - t0
            if dt >= min_duration_s:
                break
        best = max(best, n / dt)
    return best


def run_query_bench(
    calibration_s: float, *, system: str = QUERY_BENCH_SYSTEM
) -> dict[str, Any]:
    """Measure runtime query API throughput per Sec. IV category.

    Returns ``{category: {"qps", "norm_qps"}}`` plus an ``elements``
    entry.  ``path_naive``/``analysis_naive`` run the uncompiled
    evaluators (string re-parse + tree walk) so reports document the
    compiled engine's speedup on the same host.
    """
    from repro.composer import Composer
    from repro.ir import IRModel
    from repro.modellib import standard_repository
    from repro.runtime import query_all, xpdl_init_from_model
    from repro.runtime.paths import query_all_naive
    from repro.units import POWER, read_metric

    composed = Composer(standard_repository()).compose(system)
    ctx = xpdl_init_from_model(
        IRModel.from_model(composed.root, {"system": system})
    )
    gpu = ctx.by_id("gpu1")

    def getter():
        gpu.get_compute_capability()
        gpu.get_quantity("static_power")

    def browse():
        node = ctx.root
        for _ in range(3):
            kids = node.children()
            if not kids:
                break
            node = kids[0]

    def by_id():
        ctx.by_id("gpu1")

    def path():
        query_all(ctx, QUERY_BENCH_PATH)

    def path_naive():
        query_all_naive(ctx, QUERY_BENCH_PATH)

    def analysis():
        ctx.count_cores()
        ctx.count_cuda_devices()
        ctx.total_static_power()

    def analysis_naive():
        # The pre-index implementation: one full physical walk per call.
        root = ctx.ir.root
        sum(1 for n in ctx._physical_walk(root) if n.kind == "core")
        cuda = 0
        for n in ctx._physical_walk(root):
            if n.kind in ("device", "gpu") and any(
                c.kind == "programming_model"
                and "cuda" in c.attrs.get("type", "").lower()
                for c in ctx.ir.children_of(n)
            ):
                cuda += 1
        total = 0.0
        for n in ctx._physical_walk(root):
            q = read_metric(n.attrs, "static_power", expect=POWER)
            if q is not None:
                total += q.magnitude

    categories = {
        "getter": getter,
        "browse": browse,
        "by_id": by_id,
        "path": path,
        "path_naive": path_naive,
        "analysis": analysis,
        "analysis_naive": analysis_naive,
    }
    measured: dict[str, Any] = {}
    for name, fn in categories.items():
        qps = _rate(fn)
        measured[name] = {
            "qps": round(qps, 1),
            "norm_qps": round(qps * calibration_s, 3),
        }
    return {
        "system": system,
        "elements": len(ctx.ir),
        "categories": measured,
    }


def _min_time(fn, repeats: int = 5) -> float:
    """Best-of-``repeats`` wall seconds of one ``fn()`` call."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _synthetic_ir(nodes: int):
    """A flat-ish synthetic IR of ``nodes`` elements for scaling sweeps.

    Shape mirrors the corpus (shared kind/attr strings, shallow fanout)
    so the persisted-index size and open cost scale like real models.
    """
    from repro.ir import IRModel
    from repro.ir.format import IRNode

    kinds = ("node", "cpu", "core", "cache", "memory", "device")
    out = [IRNode(0, "system", None, {"id": "root"})]
    for i in range(1, nodes):
        parent = (i - 1) // 8  # fanout 8 keeps depth logarithmic
        out[parent].children.append(i)
        out.append(
            IRNode(
                i,
                kinds[i % len(kinds)],
                parent,
                {"id": f"e{i}", "name": f"n{i % 97}"},
            )
        )
    return IRModel(out, {"system": f"synthetic-{nodes}"})


def run_cold_init_bench(
    calibration_s: float, *, system: str = QUERY_BENCH_SYSTEM
) -> dict[str, Any]:
    """Measure cold model-open latency with and without a persisted index.

    Serializes the composed ``system`` two ways — v2 image with index
    sections and v2 image core-only — and times a full
    :func:`repro.runtime.query.xpdl_init` open of each (best of 5), plus
    an mmap-free ``from_bytes`` open of the indexed image to isolate the
    mmap win.  Counters from the mmap open document that a warm reopen
    does *zero* index construction (``rebuilds`` must be 0).  The
    speedup divides the core-only open (the from-scratch case: index
    built live) by the mmap open.  A scaling sweep over synthetic models
    shows how the speedup grows with model size.
    """
    import warnings

    from repro.composer import Composer
    from repro.ir import IRModel, XirImageWarning, build_image
    from repro.modellib import standard_repository
    from repro.obs import Observer, use_observer
    from repro.runtime import xpdl_init, xpdl_init_from_model

    composed = Composer(standard_repository()).compose(system)
    ir = IRModel.from_model(composed.root, {"system": system})

    def measure(ir: IRModel, root: str) -> dict[str, Any]:
        paths = {
            "image_mmap": os.path.join(root, "indexed.xir"),
            "core_only": os.path.join(root, "core.xir"),
        }
        with open(paths["image_mmap"], "wb") as fh:
            fh.write(ir.to_bytes())
        with open(paths["core_only"], "wb") as fh:
            fh.write(build_image(ir, with_index=False))

        opens: dict[str, float] = {}
        with warnings.catch_warnings():
            # core_only deliberately ships no index sections; its
            # degraded-open warning is the measurement, not a defect.
            warnings.simplefilter("ignore", XirImageWarning)
            for name, path in paths.items():
                opens[name] = _min_time(lambda p=path: xpdl_init(p))
        # from_bytes on pre-read bytes: the image without the mmap.
        data = open(paths["image_mmap"], "rb").read()
        opens["image_read"] = _min_time(
            lambda: xpdl_init_from_model(IRModel.from_bytes(data))
        )

        # One observed mmap open proves the persisted index was adopted,
        # not rebuilt.
        obs = Observer()
        with use_observer(obs):
            xpdl_init(paths["image_mmap"])
        return {
            "open_ms": {k: round(v * 1e3, 4) for k, v in opens.items()},
            "norm_open": {
                k: round(v / calibration_s, 5) for k, v in opens.items()
            },
            "speedup_vs_scratch": round(
                opens["core_only"] / max(opens["image_mmap"], 1e-9), 2
            ),
            "rebuilds": obs.counters.get("index.rebuilds", 0),
            "mmap_loads": obs.counters.get("index.load_mmap", 0),
        }

    with tempfile.TemporaryDirectory(prefix="xpdl-coldinit-") as root:
        corpus = measure(ir, root)
        corpus.update({"system": system, "elements": len(ir)})
        scaling = []
        for n in COLD_INIT_SCALING_NODES:
            sub = os.path.join(root, str(n))
            os.makedirs(sub)
            row = measure(_synthetic_ir(n), sub)
            scaling.append(
                {
                    "nodes": n,
                    "image_mmap_ms": row["open_ms"]["image_mmap"],
                    "core_only_ms": row["open_ms"]["core_only"],
                    "speedup": row["speedup_vs_scratch"],
                }
            )
        corpus["scaling"] = scaling
    return corpus


def run_serve_bench(
    calibration_s: float,
    *,
    system: str = QUERY_BENCH_SYSTEM,
    raw_path_qps: float | None = None,
) -> dict[str, Any]:
    """Measure model-service dispatch throughput (the ``xpdl serve`` path).

    Builds one :class:`repro.service.ModelHost` over the standard
    repository, pays the cold first-request compile once, then measures
    hot dispatch rates with the index hosted: ``hot`` (single query
    request), ``batch32`` (32 queries per batch request, counted as
    sub-requests/s), ``info`` (composition summary), and ``threads4``
    (aggregate of 4 threads hammering the query op through the
    lock/lease protocol).  ``index_builds`` documents that the hosted
    index was compiled exactly once across all of it.
    """
    import threading

    from repro.modellib import standard_repository
    from repro.service import ModelHost

    host = ModelHost(standard_repository(), reload_ttl_s=60.0)
    query_req = {"op": "query", "model": system, "path": QUERY_BENCH_PATH}

    t0 = time.perf_counter()
    status, body = host.handle(dict(query_req))
    cold_s = time.perf_counter() - t0
    if status != 200:  # pragma: no cover - corpus always has the system
        raise RuntimeError(f"serve bench: cold query returned {status}")
    result_count = body["count"]

    batch_req = {
        "op": "batch",
        "requests": [dict(query_req) for _ in range(32)],
    }

    measured: dict[str, Any] = {}
    rates = {
        "hot": _rate(lambda: host.dispatch(dict(query_req))),
        "batch32": _rate(lambda: host.dispatch(dict(batch_req))) * 32,
        "info": _rate(lambda: host.dispatch({"op": "info", "model": system})),
    }

    threads = 4
    counts = [0] * threads
    stop_at = time.perf_counter() + _QUERY_MIN_DURATION_S

    def work(slot: int) -> None:
        while time.perf_counter() < stop_at:
            host.dispatch(dict(query_req))
            counts[slot] += 1

    workers = [
        threading.Thread(target=work, args=(i,)) for i in range(threads)
    ]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    rates["threads4"] = sum(counts) / (time.perf_counter() - t0)

    for name, rps in rates.items():
        measured[name] = {
            "rps": round(rps, 1),
            "norm_rps": round(rps * calibration_s, 3),
        }
    counters = host.stats()["observer"]["counters"]
    out: dict[str, Any] = {
        "system": system,
        "result_count": result_count,
        "cold_ms": round(cold_s * 1e3, 3),
        "index_builds": counters.get("service.model.builds", 0),
        "categories": measured,
    }
    if raw_path_qps:
        out["hot_fraction_of_raw_path"] = round(
            rates["hot"] / raw_path_qps, 4
        )
    return out


def run_scale_bench(
    calibration_s: float,
    *,
    seed: int = SCALE_BENCH_SEED,
    scale: int = SCALE_BENCH_SCALE,
    jobs: int | None = None,
) -> dict[str, Any]:
    """Measure the toolchain over a generated corpus (``xpdl gen``).

    Generates a seeded synthetic descriptor library, then measures:
    generator throughput (descriptors/s), cold/warm/parallel batch builds
    of the generated systems, and one cold doctor pass over the whole
    repository.  ``digest_stable`` re-generates and compares tree digests
    (the determinism contract); ``ir_deterministic`` compares the
    sequential and parallel builds' IR hashes; the doctor's ``errors``
    must be 0 — the generator is doctor-clean by construction.
    """
    from repro.corpus import generate_corpus
    from repro.modellib import standard_repository
    from repro.service.core import merged_doctor_report
    from repro.toolchain import ToolchainSession, default_jobs, run_batch

    jobs = jobs or default_jobs()

    t0 = time.perf_counter()
    corpus = generate_corpus(seed, scale)
    gen_wall = time.perf_counter() - t0
    digest = corpus.digest()
    digest_stable = generate_corpus(seed, scale).digest() == digest

    with tempfile.TemporaryDirectory(prefix="xpdl-scale-") as scratch:
        corpus_dir = os.path.join(scratch, "corpus")
        corpus.write_to(corpus_dir)
        cache = os.path.join(scratch, "cache")
        systems = list(corpus.systems)

        cold = run_batch(
            standard_repository(corpus_dir), systems, jobs=1,
            cache_dir=os.path.join(cache, "seq"),
        )
        warm = run_batch(
            standard_repository(corpus_dir), systems, jobs=1,
            cache_dir=os.path.join(cache, "seq"),
        )
        par = run_batch(
            standard_repository(corpus_dir), systems, jobs=jobs,
            cache_dir=os.path.join(cache, "par"),
        )

        session = ToolchainSession(standard_repository(corpus_dir))
        t0 = time.perf_counter()
        merged = merged_doctor_report(session, systems)
        doctor_wall = time.perf_counter() - t0

    phases = {
        "cold": _phase_dict(cold),
        "warm": _phase_dict(warm),
        "parallel": _phase_dict(par),
    }
    for phase in phases.values():
        phase["norm_wall"] = round(phase["wall_s"] / calibration_s, 4)
    ir_match = [b.ir_sha256 for b in cold.builds] == [
        b.ir_sha256 for b in par.builds
    ]
    return {
        "seed": seed,
        "scale": scale,
        "descriptors": len(corpus),
        "systems": len(systems),
        "digest": digest,
        "digest_stable": digest_stable,
        "gen": {
            "wall_s": round(gen_wall, 6),
            "norm_wall": round(gen_wall / calibration_s, 4),
            "descriptors_per_s": round(len(corpus) / gen_wall, 1),
        },
        "phases": phases,
        "ir_deterministic": ir_match,
        "doctor": {
            "wall_s": round(doctor_wall, 6),
            "norm_wall": round(doctor_wall / calibration_s, 4),
            "systems_per_s": round(len(systems) / doctor_wall, 2),
            "errors": merged.errors,
            "findings": len(merged.findings),
        },
    }


def run_fleet_bench(
    calibration_s: float,
    *,
    seed: int = FLEET_BENCH_SEED,
    scale: int = FLEET_BENCH_SCALE,
) -> dict[str, Any]:
    """Measure the fleet simulator (``xpdl fleet``) over a generated cluster.

    Generates a seeded corpus, composes its first system into a
    :class:`repro.simhw.SimTestbed`, compiles the runtime index for the
    power-state catalog, and drives a seeded diurnal trace through every
    registered governor policy.  The simulation runs twice; the wall is
    the best of the two and ``digest_stable`` compares the two reports
    byte-for-byte (the determinism contract).  The rate is
    machine-intervals/s across all policies — the unit of simulator work.
    """
    from repro.composer import Composer
    from repro.corpus import generate_corpus
    from repro.fleet import GOVERNORS, index_state_catalog, make_trace, simulate_fleet
    from repro.ir import IRModel
    from repro.modellib import standard_repository
    from repro.runtime import xpdl_init_from_model
    from repro.simhw import testbed_from_model

    policies = tuple(GOVERNORS)
    corpus = generate_corpus(seed, scale)
    with tempfile.TemporaryDirectory(prefix="xpdl-fleet-") as scratch:
        corpus_dir = os.path.join(scratch, "corpus")
        corpus.write_to(corpus_dir)
        system = sorted(corpus.systems)[0]
        composed = Composer(standard_repository(corpus_dir)).compose(system)

    bed = testbed_from_model(composed.root, name=system)
    ctx = xpdl_init_from_model(
        IRModel.from_model(composed.root, {"system": system})
    )
    catalog = index_state_catalog(ctx, bed)
    trace = make_trace(
        FLEET_BENCH_TRACE,
        seed=FLEET_BENCH_TRACE_SEED,
        intervals=FLEET_BENCH_INTERVALS,
        interval_s=FLEET_BENCH_INTERVAL_S,
        machines=sorted(bed.machines),
    )

    walls: list[float] = []
    reports = []
    for _ in range(2):
        t0 = time.perf_counter()
        reports.append(
            simulate_fleet(bed, trace, policies, state_catalog=catalog)
        )
        walls.append(time.perf_counter() - t0)
    report = reports[0]
    wall = min(walls)

    perf_energy = report.result("performance").energy_j
    measured: dict[str, Any] = {}
    for policy in policies:
        r = report.result(policy)
        measured[policy] = {
            "energy_j": round(r.energy_j, 3),
            "energy_delta_vs_performance": round(
                (r.energy_j - perf_energy) / perf_energy, 4
            )
            if perf_energy
            else 0.0,
            "slo_attainment": round(r.slo_attainment, 4),
            "service_level": round(r.service_level, 4),
            "switches": r.switches,
        }

    machine_intervals = len(bed.machines) * trace.intervals * len(policies)
    rate = machine_intervals / wall
    return {
        "system": system,
        "seed": seed,
        "scale": scale,
        "machines": len(bed.machines),
        "trace": {
            "kind": FLEET_BENCH_TRACE,
            "seed": FLEET_BENCH_TRACE_SEED,
            "intervals": FLEET_BENCH_INTERVALS,
            "interval_s": FLEET_BENCH_INTERVAL_S,
        },
        "peak_capacity": report.peak_capacity,
        "digest": report.digest(),
        "digest_stable": reports[0].to_json() == reports[1].to_json(),
        "wall_s": round(wall, 6),
        "norm_wall": round(wall / calibration_s, 4),
        "machine_intervals_per_s": round(rate, 1),
        "norm_rate": round(rate * calibration_s, 3),
        "policies": measured,
    }


def run_sweep_bench(
    calibration_s: float,
    *,
    seed: int = FLEET_BENCH_SEED,
    scale: int = FLEET_BENCH_SCALE,
    fleet_norm_rate: float | None = None,
) -> dict[str, Any]:
    """Measure the fleet sweep engine (``xpdl fleet sweep``).

    Shards the :data:`SWEEP_BENCH_TRACES` x :data:`SWEEP_BENCH_SEEDS` x
    every-governor grid over the FLEET_BENCH cluster twice — ``jobs=1``
    and ``jobs=min(4, cpus)`` — and reports grid wall, cells/s and the
    parallel speedup.  ``digest_stable`` compares the two reports
    byte-for-byte: sharding must not change a single bit of the output.
    ``single_cell_norm_rate`` carries the ``fleet`` section's rate so the
    sweep gate can floor it against :data:`SCHEMA6_FLEET_NORM_RATE`.
    """
    from repro.composer import Composer
    from repro.corpus import generate_corpus
    from repro.fleet import GOVERNORS, index_state_catalog, run_sweep
    from repro.ir import IRModel
    from repro.modellib import standard_repository
    from repro.runtime import xpdl_init_from_model
    from repro.simhw import testbed_from_model
    from repro.toolchain import default_jobs

    policies = tuple(GOVERNORS)
    corpus = generate_corpus(seed, scale)
    with tempfile.TemporaryDirectory(prefix="xpdl-sweep-") as scratch:
        corpus_dir = os.path.join(scratch, "corpus")
        corpus.write_to(corpus_dir)
        system = sorted(corpus.systems)[0]
        composed = Composer(standard_repository(corpus_dir)).compose(system)

    bed = testbed_from_model(composed.root, name=system)
    ctx = xpdl_init_from_model(
        IRModel.from_model(composed.root, {"system": system})
    )
    catalog = index_state_catalog(ctx, bed)

    cpus = default_jobs()
    jobs = min(SWEEP_BENCH_JOBS, cpus)
    kwargs: dict[str, Any] = dict(
        policies=policies,
        traces=SWEEP_BENCH_TRACES,
        seeds=SWEEP_BENCH_SEEDS,
        intervals=FLEET_BENCH_INTERVALS,
        interval_s=FLEET_BENCH_INTERVAL_S,
        state_catalog=catalog,
    )
    serial, serial_stats = run_sweep(bed, jobs=1, **kwargs)
    parallel, par_stats = run_sweep(bed, jobs=jobs, **kwargs)

    def shard(stats: Any) -> dict[str, Any]:
        return {
            "wall_s": round(stats.wall_s, 6),
            "norm_wall": round(stats.wall_s / calibration_s, 4),
            "cells_per_s": round(stats.cells_per_s, 2),
            "norm_cells_per_s": round(stats.cells_per_s * calibration_s, 4),
            "workers": stats.workers,
        }

    out: dict[str, Any] = {
        "system": system,
        "seed": seed,
        "scale": scale,
        "machines": len(bed.machines),
        "grid": {
            "policies": list(policies),
            "traces": list(SWEEP_BENCH_TRACES),
            "seeds": list(SWEEP_BENCH_SEEDS),
            "intervals": FLEET_BENCH_INTERVALS,
            "interval_s": FLEET_BENCH_INTERVAL_S,
        },
        "cells": serial_stats.cells,
        "cpus": cpus,
        "jobs": jobs,
        "digest": serial.digest(),
        "digest_stable": serial.to_json() == parallel.to_json(),
        "serial": shard(serial_stats),
        "parallel": shard(par_stats),
        "parallel_speedup": round(
            serial_stats.wall_s / max(par_stats.wall_s, 1e-9), 2
        ),
    }
    if fleet_norm_rate is not None:
        out["single_cell_norm_rate"] = fleet_norm_rate
        out["schema6_single_cell_floor"] = SCHEMA6_FLEET_NORM_RATE
    return out


def _phase_dict(report: Any) -> dict[str, Any]:
    return {
        "ok": report.ok,
        "builds": len(report.builds),
        "wall_s": round(report.wall_s, 6),
        "models_per_s": round(report.models_per_s, 3),
        "hit_rate": round(report.hit_rate, 4),
        "cache": dict(report.cache),
        "jobs": report.jobs,
        "shards": len(report.shards),
    }


def run_bench(
    *,
    jobs: int | None = None,
    cache_dir: str | None = None,
    identifiers: Sequence[str] | None = None,
    include: Sequence[str] = (),
) -> dict[str, Any]:
    """Measure cold/warm/parallel corpus builds; return the report dict.

    ``cache_dir=None`` uses a throwaway directory so benchmarking never
    touches (or benefits from) a developer's real ``.xpdl-cache``.
    """
    from repro.modellib import standard_repository
    from repro.toolchain import default_jobs, run_batch

    jobs = jobs or default_jobs()
    calibration_s = calibrate()

    with tempfile.TemporaryDirectory(prefix="xpdl-bench-") as scratch:
        base = cache_dir or os.path.join(scratch, "cache")
        repo = standard_repository(*include)
        corpus = list(identifiers) if identifiers else repo.systems()

        cold = run_batch(
            standard_repository(*include), corpus, jobs=1,
            cache_dir=os.path.join(base, "seq"),
        )
        warm = run_batch(
            standard_repository(*include), corpus, jobs=1,
            cache_dir=os.path.join(base, "seq"),
        )
        par = run_batch(
            standard_repository(*include), corpus, jobs=jobs,
            cache_dir=os.path.join(base, "par"),
        )

    phases = {
        "cold": _phase_dict(cold),
        "warm": _phase_dict(warm),
        "parallel": _phase_dict(par),
    }
    for phase in phases.values():
        phase["norm_wall"] = round(phase["wall_s"] / calibration_s, 4)
    ir_match = [b.ir_sha256 for b in cold.builds] == [
        b.ir_sha256 for b in par.builds
    ]
    queries = run_query_bench(calibration_s)
    serve = run_serve_bench(
        calibration_s,
        raw_path_qps=queries["categories"]["path"]["qps"],
    )
    cold_init = run_cold_init_bench(calibration_s)
    scale = run_scale_bench(calibration_s, jobs=jobs)
    fleet = run_fleet_bench(calibration_s)
    sweep = run_sweep_bench(
        calibration_s, fleet_norm_rate=fleet["norm_rate"]
    )
    return {
        "bench_schema": BENCH_SCHEMA,
        "rev": git_rev(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "calibration_s": round(calibration_s, 6),
        "corpus": sorted(corpus),
        "ir_deterministic": ir_match,
        "phases": phases,
        "queries": queries,
        "serve": serve,
        "cold_init": cold_init,
        "scale": scale,
        "fleet": fleet,
        "sweep": sweep,
    }


def write_report(data: dict[str, Any], out_dir: str = ".") -> str:
    """Persist the report as ``BENCH_<rev>.json``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{data['rev']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_report(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("bench_schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {data.get('bench_schema')!r}"
        )
    return data


class Gate(NamedTuple):
    """One CI gate row: ``kind`` checks the metric at ``path``.

    ``section`` names a current-report section the row needs (the row is
    skipped when it is absent or empty) and ``when`` an extra predicate
    on the current report.  A ``*`` path segment expands over the keys
    found there — in the baseline for ``base_*`` kinds, in the current
    report otherwise.  Kinds:

    * ``true`` — the value is truthy; ``equal`` — it equals ``bound``;
      ``floor`` — it is at least ``bound`` (a missing value counts as 0);
    * ``base_floor`` / ``base_ceiling`` — ``bound`` is ``(tol, slack)``
      and the limit is ``baseline * (1 -/+ tol) + slack``; a metric
      missing from the current report yields ``missing``, one missing
      from the baseline skips the row;
    * ``ratio_floor`` / ``ratio_ceiling`` — ``path`` is two current
      metrics ``(a, b)`` and ``a / b`` is held to ``bound``; skipped
      unless both are present.

    ``msg`` is formatted with ``value``, ``bound``, ``key``, ``cur`` (the
    current report), ``base``/``tol``/``slack`` and ``a``/``b``.
    """

    section: str | None
    kind: str
    path: str | tuple[str, str]
    bound: Any
    msg: str
    missing: str = ""
    when: Callable[[dict[str, Any]], bool] | None = None


_PASS: dict[str, Callable[[Any, Any], bool]] = {
    "true": lambda value, bound: bool(value),
    "equal": operator.eq,
    "floor": operator.ge,
    "ceiling": operator.le,
}

#: Tolerance of the noisier throughput/latency gates against the baseline.
_TOL = MAX_REGRESS + QUERY_NOISE
_QC = "queries.categories."
_POL = "fleet.policies."

GATES: tuple[Gate, ...] = (
    Gate(None, "true", "phases.*.ok", None, "phase {key}: build failed"),
    Gate(None, "true", "ir_deterministic", None,
         "parallel build is not byte-identical to sequential"),
    Gate(None, "floor", "phases.warm.hit_rate", MIN_WARM_HIT_RATE,
         "warm hit rate {value:.0%} below the {bound:.0%} floor"),
    Gate(None, "base_ceiling", "phases.warm.norm_wall", (MAX_REGRESS, NORM_SLACK),
         "warm build regressed: norm_wall {value:.3f} exceeds allowed {bound:.3f} "
         "(baseline {base:.3f} +{tol:.0%} +{slack} slack)",
         "warm build: missing from current report"),
    # -- runtime query API throughput
    Gate(None, "base_floor", _QC + "*.norm_qps", (_TOL, 0.0),
         "query bench {key!r} regressed: norm_qps {value:.3f} below floor "
         "{bound:.3f} (baseline {base:.3f} -{tol:.0%})",
         "query bench {key!r}: missing from current report"),
    Gate(None, "ratio_floor", (_QC + "path.qps", _QC + "path_naive.qps"),
         MIN_QUERY_SPEEDUP, "compiled path query engine only {value:.1f}x the "
         "naive evaluator (floor {bound:.0f}x)"),
    Gate(None, "ratio_floor", (_QC + "analysis.qps", _QC + "analysis_naive.qps"),
         MIN_QUERY_SPEEDUP, "compiled analysis query engine only {value:.1f}x the "
         "naive evaluator (floor {bound:.0f}x)"),
    # -- model service (xpdl serve) dispatch
    Gate(None, "ratio_ceiling", (_QC + "path.qps", "serve.categories.hot.rps"),
         MAX_SERVE_DISPATCH_SLOWDOWN, "hot serve dispatch is {value:.1f}x slower "
         "than raw compiled path queries (ceiling {bound:.0f}x)"),
    Gate("serve", "equal", "serve.index_builds", 1,
         "serve bench built the hosted index {value!r} times (expected exactly 1: "
         "hot requests must reuse the cached IRIndex)"),
    Gate(None, "base_floor", "serve.categories.*.norm_rps", (_TOL, 0.0),
         "serve bench {key!r} regressed: norm_rps {value:.3f} below floor "
         "{bound:.3f} (baseline {base:.3f} -{tol:.0%})",
         "serve bench {key!r}: missing from current report"),
    # -- zero-copy cold open (persisted v2 index image)
    Gate("cold_init", "equal", "cold_init.rebuilds", 0,
         "warm image open rebuilt the index {value!r} time(s) (expected 0: the "
         "persisted sections must be adopted in place)"),
    Gate("cold_init", "floor", "cold_init.speedup_vs_scratch", MIN_COLD_OPEN_SPEEDUP,
         "warm image open only {value:.1f}x faster than a core-only open "
         "(floor {bound:.0f}x)"),
    # Latency: the throughput tolerance plus a tiny absolute slack for
    # sub-ms opens dominated by syscall noise.
    Gate("cold_init", "base_ceiling", "cold_init.norm_open.*", (_TOL, 0.05),
         "cold_init bench {key!r} regressed: norm_open {value:.4f} above ceiling "
         "{bound:.4f} (baseline {base:.4f} +{tol:.0%})",
         "cold_init bench {key!r}: missing from current report"),
    # -- generated-corpus scale section
    Gate("scale", "true", "scale.digest_stable", None,
         "scale bench: generator digest is not stable across re-generation "
         "(seeding contract broken)"),
    Gate("scale", "true", "scale.ir_deterministic", None,
         "scale bench: parallel corpus build is not byte-identical to sequential"),
    Gate("scale", "true", "scale.phases.*.ok", None,
         "scale bench phase {key}: build failed"),
    Gate("scale", "floor", "scale.phases.warm.hit_rate", MIN_WARM_HIT_RATE,
         "scale bench warm hit rate {value:.0%} below the {bound:.0%} floor"),
    Gate("scale", "equal", "scale.doctor.errors", 0,
         "scale bench: doctor found {value} error(s) in the generated corpus "
         "(generator must be doctor-clean)"),
    *(
        Gate("scale", "base_ceiling", f"scale.{path}.norm_wall", (_TOL, NORM_SLACK),
             f"scale bench {label} regressed: norm_wall {{value:.3f}} above ceiling "
             "{bound:.3f} (baseline {base:.3f} +{tol:.0%})",
             f"scale bench {label}: missing from current report")
        for label, path in (
            ("cold build", "phases.cold"),
            ("warm build", "phases.warm"),
            ("doctor", "doctor"),
        )
    ),
    # -- fleet energy/SLO simulation
    Gate("fleet", "true", "fleet.digest_stable", None,
         "fleet bench: report is not byte-identical across re-runs "
         "(simulation determinism contract broken)"),
    Gate("fleet", "ratio_ceiling",
         (_POL + "powersave.energy_j", _POL + "performance.energy_j"), 1.0,
         "fleet bench: powersave used more energy ({a:.1f} J) than performance "
         "({b:.1f} J)"),
    Gate("fleet", "ratio_ceiling",
         (_POL + "performance.slo_attainment", _POL + "ondemand.slo_attainment"), 1.0,
         "fleet bench: ondemand SLO attainment {b:.0%} fell below performance's "
         "{a:.0%} on the diurnal trace"),
    # Only once the SLO row above passed; the smallest float above 1
    # makes "performance / ondemand energy" a strict floor.
    Gate("fleet", "ratio_floor",
         (_POL + "performance.energy_j", _POL + "ondemand.energy_j"),
         math.nextafter(1.0, 2.0),
         "fleet bench: ondemand saved no energy over performance ({b:.1f} J vs "
         "{a:.1f} J at equal SLO)",
         when=lambda cur: (_get(cur, _POL + "ondemand.slo_attainment") or 0)
         >= (_get(cur, _POL + "performance.slo_attainment") or 0)),
    Gate("fleet", "base_floor", "fleet.norm_rate", (_TOL, 0.0),
         "fleet bench regressed: norm_rate {value:.3f} below floor {bound:.3f} "
         "(baseline {base:.3f} -{tol:.0%})",
         "fleet bench: missing from current report"),
    # -- fleet sweep engine
    Gate("sweep", "true", "sweep.digest_stable", None,
         "sweep bench: report is not byte-identical across jobs "
         "(sharding determinism contract broken)"),
    # A 1-core host cannot exhibit process-level speedup.
    Gate("sweep", "floor", "sweep.parallel_speedup", MIN_SWEEP_SPEEDUP,
         "sweep bench: parallel speedup {value:.2f}x at jobs={cur[sweep][jobs]} "
         "below the {bound:.0f}x floor ({cur[sweep][cpus]} CPUs available)",
         when=lambda cur: min(_get(cur, "sweep.cpus") or 0, _get(cur, "sweep.jobs") or 0)
         >= SWEEP_BENCH_JOBS),
    Gate("sweep", "floor", "sweep.single_cell_norm_rate",
         SCHEMA6_FLEET_NORM_RATE * (1.0 - MAX_REGRESS - QUERY_NOISE),
         "sweep bench: single-cell norm_rate {value:.3f} fell below the schema-6 "
         "cursor-engine floor {bound:.3f} (the memoized inner loop must stay at "
         "least as fast as the pre-memo simulator)"),
    Gate("sweep", "base_floor", "sweep.serial.norm_cells_per_s", (_TOL, 0.0),
         "sweep bench regressed: serial norm_cells_per_s {value:.4f} below floor "
         "{bound:.4f} (baseline {base:.4f} -{tol:.0%})",
         "sweep bench: serial cells/s missing from current report"),
)


def _get(report: Any, path: str) -> Any:
    """The value at dotted ``path``, or ``None`` where any key is missing."""
    for key in path.split("."):
        report = report.get(key) if isinstance(report, dict) else None
    return report


def _expand(report: dict[str, Any], path: str) -> list[tuple[str | None, str]]:
    """``(key, concrete path)`` for each key under a ``*`` segment."""
    head, star, tail = path.partition("*")
    if not star:
        return [(None, path)]
    return [(key, f"{head}{key}{tail}") for key in _get(report, head.rstrip(".")) or {}]


def _check(gate: Gate, baseline: dict[str, Any], current: dict[str, Any]) -> list[str]:
    """The problems one gate row finds in ``current``."""
    if gate.section and not current.get(gate.section):
        return []
    if gate.when and not gate.when(current):
        return []
    test = gate.kind.rpartition("_")[2]
    if gate.kind.startswith("ratio_"):
        a, b = (_get(current, p) for p in gate.path)
        if a is None or b is None:
            return []
        ratio = a / max(b, 1e-9)
        if _PASS[test](ratio, gate.bound):
            return []
        return [gate.msg.format(value=ratio, bound=gate.bound, a=a, b=b)]
    relative = gate.kind.startswith("base_")
    problems = []
    for key, path in _expand(baseline if relative else current, gate.path):
        value, fields = _get(current, path), {"bound": gate.bound}
        if relative:
            base = _get(baseline, path)
            if base is None:
                continue
            if value is None:
                problems.append(gate.missing.format(key=key))
                continue
            tol, slack = gate.bound
            limit = base * (1.0 - tol if test == "floor" else 1.0 + tol) + slack
            fields = {"bound": limit, "base": base, "tol": tol, "slack": slack}
        elif test == "floor" and value is None:
            value = 0.0
        if not _PASS[test](value, fields["bound"]):
            problems.append(gate.msg.format(value=value, key=key, cur=current, **fields))
    return problems


def compare(baseline: dict[str, Any], current: dict[str, Any]) -> list[str]:
    """CI gate: the problems :data:`GATES` finds, empty when ``current``
    is acceptable against ``baseline``.

    Rows are checked in table order and each reports in its own expansion
    order, so the list reads like the report: build phases, queries,
    serve, cold open, scale, fleet, sweep.
    """
    return [p for gate in GATES for p in _check(gate, baseline, current)]


def summarize(data: dict[str, Any]) -> str:
    """One human-readable block per report, for terminals and CI logs."""
    lines = [
        f"bench {data['rev']} (python {data['python']}, "
        f"calibration {data['calibration_s'] * 1e3:.0f} ms, "
        f"{len(data['corpus'])} systems)"
    ]
    for name in ("cold", "warm", "parallel"):
        p = data["phases"][name]
        lines.append(
            f"  {name:9s} wall {p['wall_s'] * 1e3:8.1f} ms  "
            f"norm {p['norm_wall']:7.3f}  "
            f"{p['models_per_s']:7.1f} models/s  "
            f"hit rate {p['hit_rate']:.0%}  jobs={p['jobs']}"
        )
    lines.append(
        "  IR deterministic across jobs: "
        + ("yes" if data.get("ir_deterministic") else "NO")
    )
    queries = data.get("queries") or {}
    categories = queries.get("categories") or {}
    if categories:
        lines.append(
            f"  queries on {queries.get('system', '?')} "
            f"({queries.get('elements', '?')} elements):"
        )
        for name in (
            "getter",
            "browse",
            "by_id",
            "path",
            "path_naive",
            "analysis",
            "analysis_naive",
        ):
            q = categories.get(name)
            if q is None:
                continue
            lines.append(
                f"    {name:15s} {q['qps']:12.0f} queries/s  "
                f"norm {q['norm_qps']:10.3f}"
            )
        for fast, slow in (("path", "path_naive"), ("analysis", "analysis_naive")):
            if fast in categories and slow in categories:
                speedup = categories[fast]["qps"] / max(
                    categories[slow]["qps"], 1e-9
                )
                lines.append(f"    {fast} speedup over naive: {speedup:.0f}x")
    serve = data.get("serve") or {}
    serve_cats = serve.get("categories") or {}
    if serve_cats:
        lines.append(
            f"  serve dispatch on {serve.get('system', '?')} "
            f"(cold {serve.get('cold_ms', 0):.0f} ms, "
            f"{serve.get('index_builds', '?')} index build):"
        )
        for name in ("hot", "batch32", "info", "threads4"):
            c = serve_cats.get(name)
            if c is None:
                continue
            lines.append(
                f"    {name:15s} {c['rps']:12.0f} requests/s  "
                f"norm {c['norm_rps']:10.3f}"
            )
        frac = serve.get("hot_fraction_of_raw_path")
        if frac:
            lines.append(
                f"    hot dispatch at {frac:.0%} of raw path-query rate"
            )
    cold = data.get("cold_init") or {}
    if cold:
        lines.append(
            f"  cold open on {cold.get('system', '?')} "
            f"({cold.get('elements', '?')} elements, "
            f"{cold.get('rebuilds', '?')} rebuilds):"
        )
        for name in ("image_mmap", "image_read", "core_only"):
            ms = (cold.get("open_ms") or {}).get(name)
            if ms is None:
                continue
            lines.append(f"    {name:15s} {ms:10.3f} ms")
        lines.append(
            f"    warm mmap open speedup over core-only: "
            f"{cold.get('speedup_vs_scratch', 0):.0f}x"
        )
        for row in cold.get("scaling") or []:
            line = f"    {row['nodes']:7d} nodes   mmap {row['image_mmap_ms']:8.3f} ms"
            # The committed baseline predates core-only scaling rows.
            if "core_only_ms" in row:
                line += (
                    f"  core-only {row['core_only_ms']:9.3f} ms  "
                    f"speedup {row['speedup']:6.1f}x"
                )
            lines.append(line)
    scale = data.get("scale") or {}
    if scale:
        lines.append(
            f"  scale corpus (seed={scale.get('seed')}, "
            f"scale={scale.get('scale')}): {scale.get('descriptors')} "
            f"descriptors, {scale.get('systems')} systems, "
            f"digest {'stable' if scale.get('digest_stable') else 'UNSTABLE'}"
        )
        gen = scale.get("gen") or {}
        if gen:
            lines.append(
                f"    gen        wall {gen['wall_s'] * 1e3:8.1f} ms  "
                f"{gen['descriptors_per_s']:7.1f} descriptors/s"
            )
        for name in ("cold", "warm", "parallel"):
            p = (scale.get("phases") or {}).get(name)
            if p is None:
                continue
            lines.append(
                f"    {name:9s}  wall {p['wall_s'] * 1e3:8.1f} ms  "
                f"norm {p['norm_wall']:7.3f}  "
                f"{p['models_per_s']:7.1f} models/s  "
                f"hit rate {p['hit_rate']:.0%}"
            )
        doctor = scale.get("doctor") or {}
        if doctor:
            lines.append(
                f"    doctor     wall {doctor['wall_s'] * 1e3:8.1f} ms  "
                f"norm {doctor['norm_wall']:7.3f}  "
                f"{doctor['systems_per_s']:7.2f} systems/s  "
                f"{doctor['errors']} error(s), "
                f"{doctor['findings']} finding(s)"
            )
    fleet = data.get("fleet") or {}
    if fleet:
        trace = fleet.get("trace") or {}
        lines.append(
            f"  fleet sim on {fleet.get('system', '?')} "
            f"({fleet.get('machines', '?')} machines, "
            f"{trace.get('kind', '?')} trace x{trace.get('intervals', '?')}, "
            f"digest {'stable' if fleet.get('digest_stable') else 'UNSTABLE'}):"
        )
        lines.append(
            f"    wall {fleet.get('wall_s', 0) * 1e3:8.1f} ms  "
            f"norm {fleet.get('norm_wall', 0):7.3f}  "
            f"{fleet.get('machine_intervals_per_s', 0):9.1f} machine-intervals/s"
        )
        for policy, p in (fleet.get("policies") or {}).items():
            lines.append(
                f"    {policy:13s} {p['energy_j']:12.1f} J  "
                f"({p['energy_delta_vs_performance']:+7.1%} vs performance)  "
                f"SLO {p['slo_attainment']:4.0%}  "
                f"served {p['service_level']:4.0%}  "
                f"{p['switches']:5d} switches"
            )
    sweep = data.get("sweep") or {}
    if sweep:
        grid = sweep.get("grid") or {}
        lines.append(
            f"  fleet sweep on {sweep.get('system', '?')} "
            f"({sweep.get('cells', '?')} cells = "
            f"{len(grid.get('policies') or [])} policies x "
            f"{len(grid.get('traces') or [])} traces x "
            f"{len(grid.get('seeds') or [])} seeds, "
            f"digest {'stable' if sweep.get('digest_stable') else 'UNSTABLE'} "
            f"across jobs):"
        )
        for name in ("serial", "parallel"):
            s = sweep.get(name) or {}
            if not s:
                continue
            lines.append(
                f"    {name:9s}  wall {s['wall_s'] * 1e3:8.1f} ms  "
                f"norm {s['norm_wall']:7.3f}  "
                f"{s['cells_per_s']:7.2f} cells/s  "
                f"workers={s['workers']}"
            )
        lines.append(
            f"    speedup {sweep.get('parallel_speedup', 0):.2f}x at "
            f"jobs={sweep.get('jobs')} ({sweep.get('cpus')} CPUs)"
        )
        single = sweep.get("single_cell_norm_rate")
        if single is not None:
            lines.append(
                f"    single-cell norm rate {single:.1f} "
                f"(schema-6 cursor floor "
                f"{sweep.get('schema6_single_cell_floor', 0):.1f})"
            )
    return "\n".join(lines)
