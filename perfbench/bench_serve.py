"""The ``serve`` workload: an open-loop client against an ``xpdl serve``
daemon hosting the paper systems plus a generated corpus.

Requests go out on a seeded Poisson schedule over ``nproc`` keep-alive
connections from one asyncio loop, and each is timed from its due time,
so a stall shows as the wait it imposes on the requests behind it.  The
mix is mostly small lookups (an L3 cache query, ``/info``, ``/analysis``
on every hosted model), which isolate wire and dispatch cost, plus a
minority of ``//core`` queries on ``liu_gpu_server`` whose ~286 KB
responses isolate render and encode cost and set the tail.  The build
layers run only in set-up, where the images are built and the daemon
opens each model once.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import random
import select
import subprocess
import sys
import time
import urllib.parse
from statistics import median
from dataclasses import dataclass
from typing import Any

from common import (
    OUT_DIR,
    CpuMeter,
    Result,
    fresh_dir,
    peak_rss_mb,
    quantile,
)
from repro.corpus import generate_corpus
from repro.ir import IRModel
from repro.modellib import standard_repository
from repro.runtime import query_all, xpdl_init_from_model
from repro.runtime.paths import QueryError
from repro.service import ModelHost
from repro.service.core import ServiceError, handle_payload
from repro.toolchain import ToolchainSession, default_jobs, run_batch
from repro.toolchain.diskcache import PersistentStageCache
from tracing import (
    LOAD_LAYERS,
    Span,
    TracedRepository,
    TracedSession,
    TracedStageCache,
    Tracer,
    self_times,
    write_spans,
)

SMALL_PATH = "//cache[@name='L3']"
LARGE_PATH = "//core"
LARGE_MODEL = "liu_gpu_server"


@dataclass(frozen=True)
class Request:
    """One distinct request of the mix: its wire bytes and the in-process
    request object the host dispatches for it."""

    key: str
    wire: bytes
    op: dict[str, Any]


def _get(params: dict[str, str], route: str, op: dict[str, Any]) -> Request:
    target = f"{route}?{urllib.parse.urlencode(params)}"
    wire = f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
    return Request(f"GET {target}", wire, op)


def _post(route: str, body: dict[str, Any], op: dict[str, Any]) -> Request:
    data = json.dumps(body).encode("utf-8")
    head = (
        f"POST {route} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    ).encode("latin-1")
    return Request(f"POST {route} {body}", head + data, op)


def request_mix(models: list[str]) -> tuple[list[Request], Request]:
    small = []
    for m in models:
        small.append(_get({"model": m, "path": SMALL_PATH}, "/query", {"op": "query", "model": m, "path": SMALL_PATH}))
        small.append(_get({"model": m}, "/info", {"op": "info", "model": m}))
        small.append(_post("/analysis", {"model": m}, {"op": "analysis", "model": m}))
    large = _get(
        {"model": LARGE_MODEL, "path": LARGE_PATH},
        "/query",
        {"op": "query", "model": LARGE_MODEL, "path": LARGE_PATH},
    )
    return small, large


def schedule(
    rng: random.Random, small: list[Request], large: Request, share: float, rate: float, seconds: float
) -> list[tuple[float, Request]]:
    """Poisson arrivals at ``rate`` over ``seconds``: (offset, request)."""
    out = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append((t, large if rng.random() < share else rng.choice(small)))
        t += rng.expovariate(rate)
    return out


# -- the daemon ----------------------------------------------------------------


class Daemon:
    """An ``xpdl serve`` subprocess on an ephemeral port."""

    def __init__(self, corpus_dir: str, cache_dir: str, workers: int, timeout: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "-I", corpus_dir, "serve",
                "--port", "0", "--workers", str(workers),
                "--cache-dir", cache_dir, "--reload-ttl", "86400",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port = self._await_port(timeout)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("xpdl serve did not start")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# -- the open-loop client --------------------------------------------------------


@dataclass
class Outcome:
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    ok: bool = False


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _open_loop(
    port: int, plan: list[tuple[float, Request]], conns: int, timeout: float, tracer: Tracer | None
) -> tuple[list[Outcome], list[float], float]:
    """Send ``plan`` on schedule; returns outcomes, generator lag per
    request and the schedule's start time."""
    queue: asyncio.Queue = asyncio.Queue()
    start = time.perf_counter() + 0.02
    outcomes = [Outcome(due=start + offset) for offset, _ in plan]
    lags: list[float] = []

    async def connection() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                i, req = item
                out = outcomes[i]
                out.sent = time.perf_counter()
                try:
                    writer.write(req.wire)
                    out.status, out.body = await asyncio.wait_for(_read_response(reader), timeout)
                    out.ok = out.status == 200
                except (asyncio.TimeoutError, ConnectionError, OSError, ValueError, IndexError,
                        asyncio.IncompleteReadError):
                    # A refused or timed-out request misses every limit;
                    # the connection is replaced so no stale reply leaks.
                    writer.close()
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                out.done = time.perf_counter()
                if tracer is not None:
                    tracer.spans.append(Span(f"client:{i}", None, "service.http", out.sent, out.done, str(i)))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    workers = [asyncio.create_task(connection()) for _ in range(conns)]
    for i, (offset, req) in enumerate(plan):
        delay = start + offset - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, time.perf_counter() - (start + offset)))
        queue.put_nowait((i, req))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return outcomes, lags, start


def run_plan(
    port: int, plan: list[tuple[float, Request]], conns: int, timeout: float, tracer: Tracer | None = None
) -> tuple[list[Outcome], list[float], float]:
    return asyncio.run(_open_loop(port, plan, conns, timeout, tracer))


@dataclass
class Phase:
    rate: float
    requests: int
    failed: int
    mismatched: int
    p50: float
    p50_large: float
    tail: float
    achieved: float
    backlog: int
    lag_p99: float
    wall: float

    def passes(self, limit_s: float) -> bool:
        # The backlog grew when what is still queued at the schedule's end
        # would take longer than the latency limit to clear at this rate.
        grew = self.backlog > self.rate * limit_s
        return self.failed == 0 and self.mismatched == 0 and self.tail <= limit_s and not grew


def measure(
    port: int,
    plan: list[tuple[float, Request]],
    rate: float,
    seconds: float,
    conns: int,
    timeout: float,
    expected: dict[str, bytes],
    tracer: Tracer | None = None,
) -> tuple[Phase, list[Outcome]]:
    t0 = time.perf_counter()
    outcomes, lags, start = run_plan(port, plan, conns, timeout, tracer)
    wall = time.perf_counter() - t0
    end = start + seconds
    latencies, large = [], []
    failed = mismatched = 0
    for out, (_, req) in zip(outcomes, plan):
        latency = out.done - out.due if out.ok else float("inf")
        failed += not out.ok
        mismatched += out.ok and out.body != expected[req.key]
        latencies.append(latency)
        if req.op.get("path") == LARGE_PATH:
            large.append(latency)
    backlog = sum(1 for o in outcomes if o.due <= end and o.done > end)
    last = max((o.done for o in outcomes), default=start)
    n = len(latencies)
    return (
        Phase(
            rate=rate,
            requests=n,
            failed=failed,
            mismatched=mismatched,
            p50=quantile(latencies, 0.5),
            p50_large=quantile(large, 0.5),
            tail=quantile(latencies, 0.99),
            achieved=n / (last - start),
            backlog=backlog,
            lag_p99=quantile(lags, 0.99),
            wall=wall,
        ),
        outcomes,
    )


# -- set-up ------------------------------------------------------------------------


class Setup:
    """Corpus, images and a warmed daemon: what a user pays before the
    first request is served."""

    def __init__(self, seed: int, cfg: dict[str, Any], jobs: int, tag: str) -> None:
        corpus = generate_corpus(seed, cfg["scale"])
        self.corpus_dir = fresh_dir("serve", f"corpus-{tag}")
        corpus.write_to(self.corpus_dir)
        self.cache_dir = fresh_dir("serve", f"cache-{tag}")
        batch = run_batch(
            standard_repository(self.corpus_dir), None, jobs=jobs, cache_dir=self.cache_dir
        )
        self.build_ok = batch.ok
        self.models = [b.identifier for b in batch.builds]
        self.small, self.large = request_mix(self.models)
        self.daemon = Daemon(self.corpus_dir, self.cache_dir, jobs, cfg["start_timeout_s"])
        # Warm-up: the daemon opens each hosted model's image once.
        warm_plan = [(0.0, r) for r in self.small + [self.large]]
        outcomes, _, _ = run_plan(self.daemon.port, warm_plan, 1, cfg["timeout_s"])
        self.warm_ok = all(o.ok for o in outcomes)
        self.warm_bodies = {r.key: o.body for (_, r), o in zip(warm_plan, outcomes)}

    def stop(self) -> None:
        self.daemon.stop()


def in_process_host(setup: Setup) -> ModelHost:
    session = ToolchainSession(
        standard_repository(setup.corpus_dir), disk_cache=PersistentStageCache(setup.cache_dir)
    )
    return ModelHost(session=session, reload_ttl_s=86400.0)


def traced_host(setup: Setup, tracer: Tracer) -> "TracedHost":
    """An in-process host over the daemon's corpus and cache whose
    repository, stage cache, dispatch, query and render are traced."""
    session = TracedSession(
        TracedRepository.over(standard_repository(setup.corpus_dir), tracer),
        disk_cache=TracedStageCache(setup.cache_dir, tracer),
    )
    session.tracer = tracer
    host = TracedHost(session=session, reload_ttl_s=86400.0)
    host.tracer = tracer
    return host


def encode(payload: dict[str, Any]) -> bytes:
    """A response body encoded the way ``service.http`` encodes it."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def render(host: ModelHost, req: Request) -> bytes:
    """The bytes the daemon must send for ``req``."""
    status, payload = host.handle(dict(req.op))
    if status != 200:
        raise RuntimeError(f"in-process {req.key} returned {status}")
    return encode(payload)


def _daemon_stats(port: int, timeout: float) -> dict[str, Any]:
    req = _get({}, "/stats", {"op": "stats"})
    outcomes, _, _ = run_plan(port, [(0.0, req)], 1, timeout)
    return json.loads(outcomes[0].body) if outcomes[0].ok else {}


def _max_rate(phases: list[Phase], limit_s: float) -> float:
    """The highest fixed rate that meets the limit.  When the next rate up
    fails on p99, the figure is interpolated toward it where its p99
    crosses the limit, so it moves smoothly rather than by whole steps;
    when the highest rate passes, it is the rate that rate achieved."""
    passing = [k for k, ph in enumerate(phases) if ph.passes(limit_s)]
    if not passing:
        return 0.0
    k = passing[-1]
    ph = phases[k]
    if k + 1 == len(phases):
        return ph.achieved
    nxt = phases[k + 1]
    if nxt.tail <= limit_s:
        # The next rate failed on errors or a growing backlog, not on p99.
        return ph.rate
    frac = (limit_s - ph.tail) / (min(nxt.tail, 10 * limit_s) - ph.tail)
    return ph.rate + frac * (nxt.rate - ph.rate)


def run(seed: int, seconds: float, trace: bool, cfg: dict[str, Any]) -> Result:
    result = Result("serve")
    jobs = default_jobs()
    setups: list[float] = []
    setup = None
    try:
        for k in range(cfg["setup_reps"]):
            if setup is not None:
                setup.stop()
            t0 = time.perf_counter()
            setup = Setup(seed, cfg, jobs, str(k))
            setups.append(time.perf_counter() - t0)
        assert setup is not None
        result.check("images built", setup.build_ok)
        result.check("daemon warm-up answered every request", setup.warm_ok)
        host = in_process_host(setup)
        expected = {r.key: render(host, r) for r in setup.small + [setup.large]}
        result.check(
            "warm-up responses equal the in-process render",
            all(setup.warm_bodies[k] == v for k, v in expected.items()),
        )
        # A settle phase at the reference rate lets the daemon reach its
        # steady state before any phase is timed: without it, a ~0.2 s
        # stall in the first seconds after warm-up lands in the reference
        # phase.
        settle = schedule(
            random.Random(f"{seed}:serve:settle"), setup.small, setup.large,
            cfg["large_share"], cfg["reference_rps"], cfg["settle_s"],
        )
        run_plan(setup.daemon.port, settle, jobs, cfg["timeout_s"])
        # Objects built so far live until the end; freezing them keeps the
        # client's collector from pausing the event loop mid-schedule.
        gc.collect()
        gc.freeze()
        if trace:
            _run_traced(result, setup, cfg, seed, expected, jobs)
        else:
            _run_untraced(result, setup, cfg, seed, seconds, expected, jobs, setups)
        stats = _daemon_stats(setup.daemon.port, cfg["timeout_s"])
        counters = stats.get("observer", {}).get("counters", {})
        builds = counters.get("service.model.builds", -1)
        result.check("daemon opened each hosted model once", builds == len(setup.models))
        result.check("daemon counted no errors", counters.get("service.errors", 0) == 0)
        if trace:
            result.put("service.index_builds", builds, "count", 1, "daemon /stats")
    finally:
        if setup is not None:
            setup.stop()
    return result


def _run_untraced(
    result: Result,
    setup: Setup,
    cfg: dict[str, Any],
    seed: int,
    seconds: float,
    expected: dict[str, bytes],
    jobs: int,
    setups: list[float],
) -> None:
    limit_s = cfg["p99_limit_ms"] / 1e3
    ref_s = seconds * cfg["reference_share"]
    rung_s = (seconds - ref_s) / len(cfg["ladder_rps"])
    rng = random.Random(f"{seed}:serve:schedule")
    share = cfg["large_share"]
    ref_plan = schedule(rng, setup.small, setup.large, share, cfg["reference_rps"], ref_s)
    cpu = CpuMeter([setup.daemon.pid])
    ref, _ = measure(setup.daemon.port, ref_plan, cfg["reference_rps"], ref_s, jobs, cfg["timeout_s"], expected)
    phases = [ref]
    # Every rate runs, so one noisy rate cannot end the ladder early.
    for rate in cfg["ladder_rps"]:
        plan = schedule(rng, setup.small, setup.large, share, rate, rung_s)
        ph, _ = measure(setup.daemon.port, plan, rate, rung_s, jobs, cfg["timeout_s"], expected)
        phases.append(ph)
    cpu_s = cpu.elapsed()
    max_rps = _max_rate(phases, limit_s)
    for ph in phases:
        result.attempted += ph.requests
        result.failed += ph.failed + ph.mismatched
    result.put("setup_s", median(setups), "s", len(setups), "corpus, images, daemon start, warm-up")
    n_large = sum(1 for _, req in ref_plan if req.op.get("path") == LARGE_PATH)
    result.put("latency_ms", ref.p50_large * 1e3, "ms", n_large,
               f"p50 of the {LARGE_PATH} requests at {ref.rate:g} req/s, from due time")
    result.put("rate_per_s", max_rps, "1/s", len(phases), f"highest rate with p99 <= {cfg['p99_limit_ms']} ms")
    result.put("cpu_s", cpu_s, "s", 1, "client + daemon over all measured phases")
    result.put("peak_rss_mb", peak_rss_mb([setup.daemon.pid]), "MB", 1, "client + daemon + largest reaped child")
    result.detail("serve_p50_ms", ref.p50 * 1e3, "ms", ref.requests)

    beyond = ref.requests - math.ceil(0.99 * ref.requests)
    result.detail("serve_p99_ms", ref.tail * 1e3, "ms", ref.requests, f"{beyond} samples beyond")
    result.detail("serve_max_rps", max_rps, "req/s", len(phases))
    result.detail("serve.gen_lag_p99_ms", ref.lag_p99 * 1e3, "ms", ref.requests)
    for ph in phases:
        result.detail(
            f"rung.{ph.rate:.0f}rps.p99_ms", ph.tail * 1e3, "ms", ph.requests,
            f"achieved {ph.achieved:.1f}/s, backlog {ph.backlog}, "
            f"{'pass' if ph.passes(limit_s) else 'FAIL'}",
        )


class TracedHost(ModelHost):
    """A :class:`ModelHost` whose dispatch (lease included), path query
    and result rendering are spans."""

    tracer: Tracer

    def dispatch(self, request):
        with self.tracer.span("service.dispatch", request=request.get("_rid")):
            return super().dispatch(request)

    def _op_query_traced(self, request):
        # Mirrors ModelHost._op_query with the query and the render timed
        # apart: the query returns handles, the render turns them into
        # the JSON-ready payload.
        model = self._require(request, "model")
        path = self._require(request, "path")
        entry = self._acquire(model)
        try:
            try:
                with self.tracer.span("runtime.query"):
                    handles = query_all(entry.ctx, path)
            except QueryError as exc:
                raise ServiceError(str(exc), status=400) from exc
            with self.tracer.span("service.render"):
                results = [handle_payload(h) for h in handles]
        finally:
            self._release(entry)
        return {"model": model, "path": path, "count": len(results), "results": results}

    _OPS = {**ModelHost._OPS, "query": _op_query_traced}


def _run_traced(
    result: Result, setup: Setup, cfg: dict[str, Any], seed: int, expected: dict[str, bytes], jobs: int
) -> None:
    ref_s = cfg["trace_seconds"]
    rate = cfg["reference_rps"]
    rng = random.Random(f"{seed}:serve:schedule")
    plan = schedule(rng, setup.small, setup.large, cfg["large_share"], rate, ref_s)
    untraced, _ = measure(setup.daemon.port, plan, rate, ref_s, jobs, cfg["timeout_s"], expected)
    tracer = Tracer("client")
    traced, outcomes = measure(
        setup.daemon.port, plan, rate, ref_s, jobs, cfg["timeout_s"], expected, tracer
    )
    for ph in (untraced, traced):
        result.attempted += ph.requests
        result.failed += ph.failed + ph.mismatched

    # Opening each hosted model the way the daemon does: map its image and
    # adopt the index sections.
    host = traced_host(setup, Tracer("host"))
    opens = []
    for model in setup.models:
        # The stage-cache reads here are the ones the daemon made while it
        # warmed up: they land in the repository and disk-cache layers.
        path = host.session.disk_cache.find_image(host.session.emit_ir(model).image_key)
        t0 = time.perf_counter()
        xpdl_init_from_model(IRModel.load(path))
        opens.append(time.perf_counter() - t0)

    # Replay the traced schedule in-process, request by request, through
    # the traced host.
    inproc = []
    matched = 0
    for i, ((_, req), out) in enumerate(zip(plan, outcomes)):
        rid = str(i)
        t0 = time.perf_counter()
        with host.tracer.span("service.request", request=rid):
            payload = host.dispatch({**req.op, "_rid": rid})
            with host.tracer.span("service.encode"):
                body = encode(payload)
        inproc.append(time.perf_counter() - t0)
        matched += body == out.body
    result.check("in-process replay equals every daemon response", matched == len(plan))

    n = len(plan)
    host_self = self_times(host.tracer.spans)
    round_trips = [o.done - o.sent for o in outcomes]
    wire = [rt - ip for rt, ip in zip(round_trips, inproc)]
    result.put("runtime.open_ms", median(opens) * 1e3, "ms", len(opens), "median per model")
    result.put("runtime.query_s", host_self.get("runtime.query", 0.0) / n, "s", n, "mean per request")
    result.put("service.render_s", host_self.get("service.render", 0.0) / n, "s", n, "mean per request")
    result.put("service.encode_s", host_self.get("service.encode", 0.0) / n, "s", n, "mean per request")
    result.put("service.dispatch_s", host_self.get("service.dispatch", 0.0) / n, "s", n,
               "mean per request, lease included")
    result.put("service.wire_s", sum(wire) / n, "s", n, "round trip minus in-process dispatch and encode")
    result.put("service.response_bytes", sum(len(o.body) for o in outcomes) / n, "bytes", n,
               "mean per response")
    result.put("serve.gen_lag_ms", traced.lag_p99 * 1e3, "ms", n, "p99 generator lateness")
    result.put("trace.overhead_s", traced.wall - untraced.wall, "s", 1, "traced - untraced schedule wall")
    result.detail("trace.overhead_p50_ms", (traced.p50 - untraced.p50) * 1e3, "ms", n,
                  "traced - untraced p50")
    for span_name, metric in LOAD_LAYERS:
        result.put(metric, host_self.get(span_name, 0.0), "s", 1, "in-process warm-up")
    result.put("repository.loads", host.tracer.counts.get("repository.loads", 0), "count", 1,
               "in-process warm-up")
    write_spans(os.path.join(OUT_DIR, "serve-spans.jsonl"), tracer.spans + host.tracer.spans)
