"""Workload ``serve-hot``: open-loop Poisson traffic at a warm daemon.

``python -m repro serve`` runs at its default worker count, with a
fresh socket and an empty ``--cache-dir`` per start.  Requests come
from ``build_request_mix(..., interpreter=None)`` over its 3 nginx
variants; that working set fits the warm registry, so after one
warm-up pass over every distinct request every protection is a
registry hit.  What the timed path then holds is front-end queueing,
pipe and JSON transport, the registry lookup and warm execution.

The load generator is this one asyncio process.  It holds at most
``nproc`` connections, sends each request at its seeded Poisson due
time whether or not earlier ones have answered, pipelines by ``id``,
and times each request from its due time, so a stall is charged to
every request it delays.  It reports how late it ran; a run whose
generator fell behind its bound is invalid, not slow.

The latency metrics come from open-loop Poisson arrivals at
``NOMINAL_RPS`` for the whole run.  No capacity figure is reported: a
rate ladder ("the highest rate whose tail meets a limit") and a
closed-loop saturation rate were both tried and read 20-40% apart from
run to run on a 2-CPU machine, wider than any bound a regression gate
could use.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common
from common import SCHEMES, SERVE_OPS, BenchError

#: Offered rate of the latency phase (requests/s): about a fifth of the
#: knee of this mix on a 2-CPU machine (50-60 req/s).  At higher rates
#: queueing magnifies every slow spell of the host, and the tail reads
#: too far apart from run to run for a regression bound.
NOMINAL_RPS = 10.0
#: Generator lateness (ms, p99) beyond which a run is invalid.
MAX_GENERATOR_LATE_MS = 50.0
#: Warm-up passes over the distinct requests.  One pass warms the
#: registry and ends ``setup_s``; the first warm execution of a module
#: still runs about 1.5x slower than later ones, so a second, untimed
#: pass follows before the measured traffic.
WARM_PASSES = 2
#: Daemon starts per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Longest wait for one set-up or control response (s).
_CALL_TIMEOUT_S = 30.0
#: Requests drawn from the mix; its distinct requests are the warm-up.
MIX_SIZE = 4000


def _connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def _mix(seed: int) -> List[Dict[str, Any]]:
    """The seeded request mix, reordered so every block of
    :func:`_block_size` requests holds the mix's exact op weights.

    A run sends a few hundred requests; drawn freely, their op shares
    wander by several percent from seed to seed, and the latency median
    sits right on the edge between cheap ops (compile, attack) and
    costly ones (run, profile).  Within each op the order is the mix's.
    """
    from repro.workloads.nginx import DEFAULT_MIX, build_request_mix

    queues: Dict[str, List[Dict[str, Any]]] = {op: [] for op in DEFAULT_MIX}
    for request in build_request_mix(MIX_SIZE, seed=seed, interpreter=None):
        queues[request["op"]].append(request)
    block = [op for op, weight in sorted(DEFAULT_MIX.items()) for _ in range(weight)]
    rng = random.Random(f"serve-hot-order:{seed}")
    drawn = {op: iter(queue) for op, queue in queues.items()}
    ordered: List[Dict[str, Any]] = []
    for _ in range(min(len(queues[op]) // block.count(op) for op in DEFAULT_MIX)):
        rng.shuffle(block)
        ordered += [next(drawn[op]) for op in block]
    return ordered


def _block_size() -> int:
    from repro.workloads.nginx import DEFAULT_MIX

    return sum(DEFAULT_MIX.values())


def _key(request: Dict[str, Any]) -> str:
    from repro.serve.protocol import request_key

    return request_key(request)


# -- daemon lifecycle ---------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process with its own socket and cache dir."""

    def __init__(self, tag: str, traced: bool):
        base = os.path.join(common.ensure_out("serve"), f"{tag}-{os.getpid()}")
        # Relative to the root, the working directory: a Unix socket path
        # is limited to about a hundred bytes.
        self.socket_rel = os.path.relpath(base + ".sock", common.ROOT)
        self.cache_dir = base + "-cache"
        self.trace_path = base + "-trace.json" if traced else None
        self.metrics_path = base + "-metrics.json" if traced else None
        self.log_path = base + ".log"
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        argv = [sys.executable, "-m", "repro", "serve", "--socket", self.socket_rel,
                "--cache-dir", os.path.relpath(self.cache_dir, common.ROOT)]
        if self.trace_path:
            argv += ["--trace-out", self.trace_path, "--metrics-out", self.metrics_path]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(argv, cwd=common.ROOT, env=common.child_env(),
                                         stdout=log, stderr=subprocess.STDOUT)

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon plus its workers."""
        pids = [self.proc.pid]
        try:
            for task in os.listdir(f"/proc/{self.proc.pid}/task"):
                with open(f"/proc/{self.proc.pid}/task/{task}/children") as handle:
                    pids += [int(pid) for pid in handle.read().split()]
        except OSError as exc:
            raise BenchError(f"cannot read daemon processes: {exc}") from exc
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM drains the daemon and writes its exports."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        code = self.proc.returncode
        self.proc = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if code != 0:
            raise BenchError(f"daemon exited with {code}; see {self.log_path}")
        os.unlink(self.log_path)


async def _open(daemon: Daemon, count: int, deadline: float):
    conns = []
    while True:
        try:
            for _ in range(count):
                conns.append(await asyncio.open_unix_connection(daemon.socket_rel, limit=1 << 24))
            return conns
        except (FileNotFoundError, ConnectionRefusedError):
            for _, writer in conns:
                writer.close()
            conns = []
            if daemon.proc.poll() is not None or time.perf_counter() > deadline:
                raise BenchError(f"daemon did not come up; see {daemon.log_path}") from None
            await asyncio.sleep(0.005)


async def _call(conn, message: Dict[str, Any]) -> Dict[str, Any]:
    from repro.serve.protocol import decode_line, encode

    reader, writer = conn
    writer.write(encode(message))
    await writer.drain()
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=_CALL_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise BenchError(f"no answer to {message.get('op')} within {_CALL_TIMEOUT_S} s") from None
    return decode_line(line)


async def _start_and_warm(daemon: Daemon, distinct: List[Dict[str, Any]], passes: int):
    """Spawn, wait for ``ping``, send every distinct request ``passes`` times.

    The set-up time runs from the spawn to the end of the first pass.
    Returns ``(setup seconds, connections, warm-up responses)``.
    """
    start = time.perf_counter()
    daemon.start()
    conns = await _open(daemon, _connections(), start + 60)
    pong = await _call(conns[0], {"id": "ping", "op": "ping"})
    if pong.get("status") != "ok":
        raise BenchError(f"ping failed: {pong}")
    responses = []
    for index in range(passes * len(distinct)):
        message = {k: v for k, v in distinct[index % len(distinct)].items() if k != "_key"}
        responses.append(await _call(conns[0], dict(message, id=f"warm{index}")))
        if index == len(distinct) - 1:
            setup_s = time.perf_counter() - start
    return setup_s, conns, responses


def _close(conns) -> None:
    for _, writer in conns:
        writer.close()


# -- the open-loop generator -----------------------------------------------------------


async def _open_loop(conns, schedule: List[Tuple[float, Dict[str, Any]]], drain_s: float):
    """Send ``schedule`` (offset, request) open-loop; returns per-request records.

    Each record holds the due, send and receive times (perf_counter
    seconds), the op and the response.  ``in_flight`` samples the
    backlog at each send.
    """
    from repro.serve.protocol import decode_line, encode

    pending: Dict[str, dict] = {}
    records: List[dict] = []

    async def read(reader):
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            response = decode_line(line)
            record = pending.pop(response.get("id"), None)
            if record is not None:
                record["recv"] = now
                record["response"] = response

    readers = [asyncio.ensure_future(read(reader)) for reader, _ in conns]
    try:
        origin = time.perf_counter() + 0.01
        for index, (offset, request) in enumerate(schedule):
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            request_id = f"q{index}"
            record = {"id": request_id, "due": due, "op": request["op"], "key": request["_key"],
                      "in_flight": len(pending)}
            pending[request_id] = record
            records.append(record)
            message = {k: v for k, v in request.items() if k != "_key"}
            message["id"] = request_id
            writer = conns[index % len(conns)][1]
            record["send"] = time.perf_counter()
            writer.write(encode(message))
            await writer.drain()
        wait_until = time.perf_counter() + drain_s
        while pending and time.perf_counter() < wait_until:
            await asyncio.sleep(0.005)
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    for record in records:
        record.setdefault("recv", None)
    return records


def _poisson(rng: random.Random, rate: float, seconds: float) -> List[float]:
    offsets, now = [], 0.0
    while True:
        now += rng.expovariate(rate)
        if now >= seconds:
            return offsets
        offsets.append(now)


def _latency_ms(record: dict) -> float:
    return 1e3 * (record["recv"] - record["due"])


# -- oracle ---------------------------------------------------------------------------


class _Oracle:
    """Expected response fields per distinct request (reference tier)."""

    def __init__(self):
        from repro.attacks import build_scenarios

        self.cache = common.OracleCache()
        self.scenarios = build_scenarios()
        self.protected: Dict[Tuple[str, str], Any] = {}

    def _protections(self, source: str, name: str):
        from repro.core import protect_all
        from repro.frontend import compile_source

        if (source, name) not in self.protected:
            self.protected[(source, name)] = protect_all(compile_source(source, name=name),
                                                         schemes=SCHEMES)
        return self.protected[(source, name)]

    def expected(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.hardware.cpu import CPU
        from repro.ir.printer import print_module

        op = request["op"]
        seed = int(request.get("seed", 2024))
        scheme = request.get("scheme", "pythia")
        if op == "attack":
            scenario = self.scenarios[request["scenario"]]
            protection = self._protections(scenario.source, request["scenario"])[scheme]
            inputs = list(scenario.benign_inputs)
        else:
            protection = self._protections(request["source"], request.get("name", "module"))[scheme]
            inputs = [item.encode("utf-8") for item in request.get("inputs") or []]
        if op == "compile":
            return {"pa_static": protection.pa_static, "binary_bytes": protection.binary_bytes}
        text = print_module(protection.module)
        key = self.cache.key("serve", op, text, json.dumps(request.get("inputs")),
                             str(request.get("scenario")), str(seed))
        cached = self.cache.get(key)
        if cached is None:
            attack = scenario.make_attack() if op == "attack" else None
            result = CPU(protection.module, seed=seed, attack=attack,
                         interpreter="reference").run(inputs=inputs)
            cached = {
                "status": result.status,
                "return_value": result.return_value,
                "cycles": result.cycles,
                "steps": result.steps,
                "output": result.output.decode("utf-8", "replace"),
            }
            self.cache.put(key, cached)
        if op == "profile":
            return {"status": cached["status"]}
        expected = dict(cached)
        if op == "attack":
            expected["outcome"] = (
                "detected" if scheme in scenario.detected_by
                else "prevented" if scheme in scenario.prevented_by
                else "success"
            )
        return expected


def _check(records: List[dict], expectations: Dict[str, Dict[str, Any]]) -> Tuple[int, List[str]]:
    """Failed requests and oracle mismatches.  An error response or a
    request never answered is a problem too: the run is invalid, so its
    latency figures never profit from fast failures or dropped work."""
    failed, problems = 0, []
    for record in records:
        response = record.get("response")
        if response is None or response.get("status") != "ok":
            failed += 1
            problems.append(f"{record['op']} request {record.get('id', 'warm-up')}: "
                            f"{'no answer' if response is None else response.get('error')}")
            continue
        result = response["result"]
        for field, value in expectations[record["key"]].items():
            if result.get(field) != value:
                problems.append(
                    f"{record['op']} {field}: got {result.get(field)!r}, expected {value!r}"
                )
                break
    return failed, problems


# -- phases -----------------------------------------------------------------------------


def _measure(daemon, mix, distinct, seed: int, seconds: float):
    """Start ``daemon``, warm it, drive traffic; returns a dict of raw results."""
    rng = random.Random(f"serve-hot:{seed}")

    async def main():
        setup_s, conns, warm = await _start_and_warm(daemon, distinct, WARM_PASSES)
        try:
            offsets = _poisson(rng, NOMINAL_RPS, seconds)
            # Whole blocks only, so every run holds the mix's exact op shares.
            offsets = offsets[: len(offsets) - len(offsets) % _block_size()]
            schedule = [(offset, mix[i % len(mix)]) for i, offset in enumerate(offsets)]
            records = await _open_loop(conns, schedule, drain_s=30.0)
            stats = await _call(conns[0], {"id": "stats", "op": "stats"})
            rss = daemon.peak_rss_mb()
        finally:
            _close(conns)
        return {"setup_s": setup_s, "warm": warm, "records": records,
                "daemon_pid": daemon.proc.pid, "stats": stats["result"], "peak_rss_mb": rss}

    try:
        return asyncio.run(main())
    finally:
        daemon.stop()


def _extra_setups(distinct, count: int) -> List[float]:
    """Daemon starts, up to the end of set-up, whose only use is the
    ``setup_s`` median."""
    async def once(daemon):
        setup_s, conns, _ = await _start_and_warm(daemon, distinct, 1)
        _close(conns)
        return setup_s

    times = []
    for index in range(count):
        daemon = Daemon(f"setup{index}", traced=False)
        try:
            times.append(asyncio.run(once(daemon)))
        finally:
            daemon.stop()
    return times


# -- per-layer views (traced run) ---------------------------------------------------------


def _span_views(trace_path: str, daemon_pid: int, records: List[dict]) -> Dict[str, float]:
    """Front-end, worker and transport times from the daemon's own trace."""
    with open(trace_path, "r", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    front, worker = {}, {}
    for span in spans:
        if not span["name"].startswith("serve:") or span["name"][6:] not in SERVE_OPS:
            continue
        request_id = (span.get("args") or {}).get("request_id")
        if not str(request_id).startswith("q"):
            continue  # warm-up and control requests
        (front if span["pid"] == daemon_pid else worker)[request_id] = span
    roots = list(worker.values())
    coverage_num = coverage_den = 0.0
    self_ms = []
    by_thread: Dict[tuple, List[dict]] = {}
    for span in spans:
        by_thread.setdefault((span["pid"], span["tid"]), []).append(span)
    for root in roots:
        start, end = root["ts"], root["ts"] + root["dur"]
        children = [
            (s["ts"], s["ts"] + s["dur"])
            for s in by_thread[(root["pid"], root["tid"])]
            if s is not root and s["ts"] >= start and s["ts"] + s["dur"] <= end
        ]
        covered = common.union_length(children)
        coverage_num += covered
        coverage_den += root["dur"]
        self_ms.append((root["dur"] - covered) / 1e3)
    rtt = {r["id"]: 1e3 * (r["recv"] - r["send"]) for r in records if r.get("recv")}
    joined = [rid for rid in front if rid in worker and rid in rtt]
    if not joined:
        raise BenchError("no request joins client, front-end and worker spans")
    window = (max(s["ts"] + s["dur"] for s in roots) - min(s["ts"] for s in roots)) / 1e6
    return {
        "serve_frontend_ms": common.median(front[r]["dur"] / 1e3 for r in joined),
        "serve_worker_ms": common.median(worker[r]["dur"] / 1e3 for r in joined),
        "queue_transport_ms": common.median(
            (front[r]["dur"] - worker[r]["dur"]) / 1e3 for r in joined
        ),
        "socket_ms": common.median(rtt[r] - front[r]["dur"] / 1e3 for r in joined),
        "worker_busy_share": sum(s["dur"] for s in roots) / 1e6
        / (window * len({s["pid"] for s in roots})),
        "trace_coverage_pct": 100.0 * coverage_num / coverage_den,
        "unattributed_ms": common.median(self_ms),
    }


def _replay(distinct: List[Dict[str, Any]]) -> Dict[str, float]:
    """Time the worker's public calls in-process, on a warm registry."""
    from repro.hardware.cpu import CPU
    from repro.serve.protocol import decode_line, encode, ok_response
    from repro.serve.registry import WarmRegistry
    from repro.serve.worker import RequestHandler

    registry = WarmRegistry()
    handler = RequestHandler(registry)
    messages = [{k: v for k, v in request.items() if k != "_key"} for request in distinct]
    for _ in range(WARM_PASSES):
        for message in messages:
            handler.handle(message)
    lookup_us, encode_us, decode_us, decode_ms = [], [], [], []
    execute: Dict[str, List[float]] = {op: [] for op in SERVE_OPS}
    per_scheme: Dict[str, List[float]] = {scheme: [] for scheme in SCHEMES}
    cpu_init, steps, run_ms = [], 0, 0.0
    counts = {"ir_instructions": 0, "pa_static.pythia": 0, "steps.pythia": 0}
    for message in messages:
        line = encode(dict(message, id="x"))
        t0 = time.perf_counter()
        decode_line(line)
        t1 = time.perf_counter()
        result = handler.handle(message)
        t2 = time.perf_counter()
        encode(ok_response("x", result))
        t3 = time.perf_counter()
        decode_us.append(1e6 * (t1 - t0))
        execute[message["op"]].append(1e3 * (t2 - t1))
        encode_us.append(1e6 * (t3 - t2))
        if message["op"] != "run":
            continue
        scheme = message["scheme"]
        c0 = time.perf_counter()
        protection, _ = registry.protection(message["source"], message["name"], scheme, False)
        c1 = time.perf_counter()
        cpu = CPU(protection.module, seed=int(message["seed"]))
        c2 = time.perf_counter()
        run = cpu.run(inputs=[item.encode("utf-8") for item in message.get("inputs") or []])
        c3 = time.perf_counter()
        lookup_us.append(1e6 * (c1 - c0))
        decode_ms.append(1e3 * run.decode_seconds)
        cpu_init.append(1e3 * (c2 - c1 - run.decode_seconds))
        per_scheme[scheme].append(1e3 * (c3 - c2))
        steps += run.steps
        run_ms += 1e3 * (c3 - c2)
        if scheme == "pythia":
            counts["ir_instructions"] += registry.protection(
                message["source"], message["name"], "vanilla", False
            )[0].module.instruction_count()
            counts["pa_static.pythia"] += protection.pa_static
            counts["steps.pythia"] += run.steps
    out = {
        "registry_lookup_us": common.median(lookup_us),
        "json_encode_us": common.median(encode_us),
        "json_decode_us": common.median(decode_us),
        "cpu_init_ms": common.median(cpu_init),
        "decode_ms": common.median(decode_ms),
        "steps_per_s": 1e3 * steps / run_ms,
    }
    for op in SERVE_OPS:
        out[f"serve_execute_ms.{op}"] = common.median(execute[op])
    for scheme in SCHEMES:
        out[f"execute_ms.{scheme}"] = common.median(per_scheme[scheme])
    out.update(counts)
    return out


#: Compile layers, which never run on the warm path: every request hits.
_COMPILE_LAYERS = (
    ["frontend_ms", "protect_ms", "verify_ms", "mem2reg_ms", "analysis_ms", "remap_ms",
     "protect_unattributed_ms"]
    + [f"pass_ms.{name}" for name in common.PASSES]
)


def _latency_p(records: List[dict], q: float) -> float:
    """Per-request latency quantile over every answered request.

    Unanswered requests have no latency; :func:`_check` makes any of
    them fail the run.
    """
    return common.percentile([_latency_ms(r) for r in records if r.get("recv")], q)


# -- the workload -------------------------------------------------------------------------


def run(seed: int, seconds: float, traced: bool) -> dict:
    common.import_repro()
    mix = _mix(seed)
    distinct: Dict[str, Dict[str, Any]] = {}
    for request in mix:
        request["_key"] = _key(request)
        distinct.setdefault(request["_key"], request)
    distinct_list = list(distinct.values())
    oracle = _Oracle()
    expectations = {key: oracle.expected(request) for key, request in distinct.items()}

    if traced:
        plain = _measure(Daemon("plain", False), mix, distinct_list, seed, seconds / 2)
        daemon = Daemon("traced", True)
        main = _measure(daemon, mix, distinct_list, seed, seconds / 2)
        runs = [plain, main]
    else:
        # The extra starts go half before the measured daemon and half
        # after, so a slow spell of the machine at one end does not
        # decide the median.
        setups = _extra_setups(distinct_list, (SETUP_SAMPLES - 1) // 2)
        main = _measure(Daemon("main", False), mix, distinct_list, seed, seconds)
        setups += _extra_setups(distinct_list, SETUP_SAMPLES - 1 - (SETUP_SAMPLES - 1) // 2)
        runs = [main]

    failed, problems, attempted = 0, [], 0
    for raw in runs:
        warm_records = [
            {"op": request["op"], "key": request["_key"], "response": response}
            for request, response in zip(distinct_list * WARM_PASSES, raw["warm"])
        ]
        for records in (warm_records, raw["records"]):
            f, p = _check(records, expectations)
            failed += f
            problems += p
            attempted += len(records)
        late = [1e3 * (r["send"] - r["due"]) for r in raw["records"]]
        if common.percentile(late, 0.99) > MAX_GENERATOR_LATE_MS:
            raise BenchError(f"generator ran late: p99 {common.percentile(late, 0.99):.1f} ms")
        raw["late_p99_ms"] = common.percentile(late, 0.99)
    if traced:
        metrics = {"process_start_ms": common.process_start_ms(9)}
        metrics.update(common.import_breakdown([["-m", "repro", "serve", "--help"]] * 3))
        metrics.update(dict.fromkeys(_COMPILE_LAYERS, 0.0))
        metrics.update(_span_views(daemon.trace_path, main["daemon_pid"], main["records"]))
        metrics.update(_replay(distinct_list))
        for op in SERVE_OPS:
            rtts = [1e3 * (r["recv"] - r["send"])
                    for r in main["records"] if r["op"] == op and r["recv"]]
            metrics[f"client_rtt_ms.{op}.p50"] = common.percentile(rtts, 0.5)
            metrics[f"client_rtt_ms.{op}.p99"] = common.percentile(rtts, 0.99)
        with open(daemon.metrics_path, "r", encoding="utf-8") as handle:
            counters = json.load(handle)["counters"]
        hits = counters.get("serve.registry.protection_hits", 0)
        misses = counters.get("serve.registry.protection_misses", 0)
        metrics["registry_hit_ratio"] = hits / max(1, hits + misses)
        stats = main["stats"]
        metrics["coalesced_ratio"] = stats["dedup_coalesced"] / max(1, stats["requests"])
        metrics["worker_restarts"] = float(stats["worker_restarts"])
        metrics["generator_late_p99_ms"] = main["late_p99_ms"]
        metrics["backlog_end"] = float(main["records"][-1]["in_flight"])
        metrics["trace_overhead_pct"] = 100.0 * (
            _latency_p(main["records"], 0.5) / _latency_p(plain["records"], 0.5) - 1.0
        )
        os.makedirs(os.path.join(common.OUT, "traces"), exist_ok=True)
        os.replace(daemon.trace_path,
                   os.path.join(common.OUT, "traces", f"serve-hot-seed{seed}.json"))
        os.unlink(daemon.metrics_path)
    else:
        # The paper's two overheads, from the daemon's own answers.
        answers = {}
        for request, response in zip(distinct_list, main["warm"]):
            answers[(request["op"], request.get("name"), request["scheme"])] = response["result"]
        names = sorted({name for op, name, _ in answers if op == "run"})
        metrics = {
            "setup_s": common.median(setups + [main["setup_s"]]),
            "latency_p50_ms": _latency_p(main["records"], 0.5),
            "latency_p90_ms": _latency_p(main["records"], 0.9),
            "peak_rss_mb": main["peak_rss_mb"],
            "pythia_cycle_overhead_pct": common.geomean_overhead_pct(
                [answers[("run", n, "pythia")]["cycles"] / answers[("run", n, "vanilla")]["cycles"]
                 for n in names]
            ),
            "pythia_size_overhead_pct": common.geomean_overhead_pct(
                [answers[("compile", n, "pythia")]["binary_bytes"]
                 / answers[("compile", n, "vanilla")]["binary_bytes"] for n in names]
            ),
        }
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics}
