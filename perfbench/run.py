#!/usr/bin/env python3
"""CUDAAdvisor benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-native --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record      # re-record perfbench/expected.json

It builds the harness and the CLI with dune, runs the workload and prints,
as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
See perfbench/README.md for the workloads, the metrics and the checks.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join("_build", "default", "bin", "advisor_cli.exe")
EXPECTED = os.path.join(HERE, "expected.json")
SCRATCH = ".perfbench"  # per-run temp dirs and span dumps, inside the checkout

WORKLOADS = ("sim-native", "serve-profile", "compile-static")
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
SERVE_STREAMS = 2  # serve-profile streams per untraced run (<= SETUP_REPEATS)
RUN_DEADLINE_S = 170.0  # a run ends (with failed ops) by then
REQUEST_DEADLINE_S = 60.0  # a wedged daemon fails the request, never hangs
BUILD_TIMEOUT_S = 850.0
UNATTRIBUTED_MAX = 0.05  # layer self times must cover 95% of traced op time


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----- build -----

def build():
    for path in ("dune-project", "lib", "bin", "BENCHMARK.json"):
        if not os.path.exists(path):
            raise BenchError(f"{path} not found: run from the root of a checkout")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/advisor_cli.exe"],
        stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("dune build failed")


def capture(args):
    r = subprocess.run([BENCH_EXE] + args, stdin=subprocess.DEVNULL,
                       stdout=subprocess.PIPE, stderr=sys.stderr, timeout=60, check=True)
    return r.stdout.decode().splitlines()


# ----- the in-process harness -----

class Harness:
    """One bench.exe process: set-up ends at its READY line."""

    def __init__(self, args, deadline):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen([BENCH_EXE] + args, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=sys.stderr)
        self.timer = threading.Timer(max(1.0, deadline - time.perf_counter()), self.proc.kill)
        self.timer.start()

    def wait_ready(self):
        line = self.proc.stdout.readline()
        if line.strip() != b"READY":
            raise BenchError("harness ended before its set-up finished")
        return time.perf_counter() - self.t0

    def result(self):
        out = self.proc.stdout.read().decode().strip().splitlines()
        if self.proc.wait() != 0 or not out:
            raise BenchError(f"harness exited with code {self.proc.returncode}")
        return json.loads(out[-1])

    def close(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def harness_run(args, deadline, setup_repeats):
    """Set up [setup_repeats] times (all but the last with --setup-only) and
    run the workload in the last process.  Returns (set-up times, result)."""
    setups = []
    for _ in range(setup_repeats - 1):
        h = Harness(args + ["--setup-only"], deadline)
        try:
            setups.append(h.wait_ready())
        finally:
            h.close()
    h = Harness(args, deadline)
    try:
        setups.append(h.wait_ready())
        return setups, h.result()
    finally:
        h.close()


# ----- the serve daemon -----

class Daemon:
    """A fresh `advisor serve` on its own socket in a fresh temp dir.

    One worker domain, pinned: the default (one per core, up to 4) depends
    on the machine, and on this one-connection stream a second, idle
    worker only added noise (see README.md)."""

    def __init__(self):
        os.makedirs(SCRATCH, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=SCRATCH)
        self.sock_path = os.path.join(self.dir, "s.sock")  # relative: short
        self.err = open(os.path.join(self.dir, "daemon.log"), "wb")
        self.proc = subprocess.Popen([os.path.abspath(CLI_EXE), "serve", "--socket", "s.sock",
                                      "--workers", "1"],
                                     cwd=self.dir, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self.err)
        self.sock = None
        self.buf = b""

    def connect(self, deadline):
        while True:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited during start-up")
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(self.sock_path)
                self.sock = s
                break
            except OSError:
                s.close()
                if time.perf_counter() > deadline:
                    raise BenchError("daemon never accepted a connection")
                time.sleep(0.005)
        if not json.loads(self.request('{"id":"ping","op":"ping"}'))["ok"]:
            raise BenchError("daemon did not answer ping")

    def request(self, line):
        """Send one request line, return the response line (bytes kept as
        text, so hits can be compared byte for byte)."""
        self.sock.settimeout(REQUEST_DEADLINE_S)
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("daemon closed the connection")
            self.buf += chunk
        resp, self.buf = self.buf.split(b"\n", 1)
        return resp.decode()

    def metrics(self):
        return json.loads(self.request('{"id":"m","op":"metrics"}'))["result"]

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for the daemon")

    def close(self):
        try:
            if self.sock is not None:
                self.sock.close()
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
            self.proc.wait()
        finally:
            self.err.close()
            try:
                os.unlink(os.path.join(self.dir, "s.sock"))
            except FileNotFoundError:
                pass
            shutil.rmtree(self.dir, ignore_errors=True)


def start_daemon(warmup, deadline):
    """Spawn, wait for the first ping, then warm up (one profile per app on
    an architecture the stream never uses).  Returns (daemon, set-up s)."""
    t0 = time.perf_counter()
    d = Daemon()
    try:
        d.connect(min(deadline, time.perf_counter() + 30))
        for line in warmup:
            if not json.loads(d.request(line))["ok"]:
                raise BenchError("warm-up request failed")
        return d, time.perf_counter() - t0
    except BaseException:
        d.close()
        raise


# ----- output checks -----

def raw_result(line):
    """The result bytes of a success line: {"id":..,"ok":true,"op":..,"result":RAW}."""
    i = line.find(',"result":')
    return line[i + len(',"result":'):-1] if i >= 0 else None


def profile_fields(res):
    ls = res["launch_stats"]
    bd = res["branch_divergence"]
    return {"cycles": ls["cycles"], "warp_insts": ls["warp_insts"],
            "load_transactions": ls["load_transactions"],
            "store_transactions": ls["store_transactions"],
            "reuse_histogram": res["reuse_distance"]["histogram"],
            "mem_divergence_degree": res["memory_divergence"]["degree"],
            "divergent_blocks": bd["divergent_blocks"], "total_blocks": bd["total_blocks"]}


def check_fields(res):
    kinds = [e.get("kind") for e in res["errors"]]
    return {"error_count": res["error_count"], "races": kinds.count("shared-race"),
            "static_findings": kinds.count("static")}


def evaluate_fields(res):
    """Per knob variant: its simulated cycles (names "re-x" resubmit "x")."""
    out = {}
    for v in res["variants"]:
        r = v["result"]
        if r.get("status") != "ok":
            raise BenchError(f"variant {v['name']} status {r.get('status')}")
        out[v["name"].removeprefix("re-")] = {"cycles": r["cycles"]}
    return out


def fields_of(op, res):
    if op == "profile":
        return profile_fields(res)
    if op == "check":
        return check_fields(res)
    if op == "evaluate":
        return evaluate_fields(res)
    if op == "profile_fast":  # estimator values are not pinned
        return {"tier": res["tier"], "application": res["application"]}
    raise BenchError(f"unexpected op {op}")


def check_stream(stream, lines, expected):
    """Check every response of a stream; returns (failed count, fields by
    index).  A hit must repeat the bytes of the miss that stored it; a
    resubmitted evaluate variant must repeat its first result."""
    failed, fields, variants = 0, {}, {}
    for i, (item, line) in enumerate(zip(stream, lines)):
        try:
            if line is None:
                raise BenchError("no response")
            resp = json.loads(line)
            req = json.loads(item["line"])
            if not resp.get("ok") or resp.get("id") != req["id"]:
                raise BenchError(f"error response: {line[:200]}")
            if item["repeat_of"] is not None:
                if raw_result(line) != raw_result(lines[item["repeat_of"]]):
                    raise BenchError("cache hit differs from the answer it repeats")
            got = fields_of(req["op"], resp["result"])
            want = expected.get(item["key"])
            if want is None or got != want:
                raise BenchError(f"fields differ from expected: {got} vs {want}")
            if req["op"] == "evaluate":
                for v in resp["result"]["variants"]:
                    knob = (req["app"], v["name"].removeprefix("re-"))
                    if variants.setdefault(knob, v["result"]) != v["result"]:
                        raise BenchError(f"resubmitted variant {knob} differs")
            fields[i] = got
        except (BenchError, KeyError, TypeError, ValueError) as e:
            failed += 1
            log(f"serve-profile op {i} ({item['key']}): {e}")
    return failed, fields


def check_sim_ops(ops, expected):
    failed = 0
    for op in ops:
        want = expected.get(op["id"])
        got = {"cycles": op["cycles"], "warp_insts": op["warp_insts"]}
        if got != want:
            failed += 1
            log(f"sim-native {op['id']}: {got} vs expected {want}")
    return failed


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


# ----- the workloads -----

def e2e(setups, times_ns, timed_ns, peak_rss_kb):
    """The end-to-end metrics.  p80 is statistics.quantiles' default
    (exclusive) interpolation: where the sorted latencies have a gap between
    kinds of op, it leans on the far side of the gap, not on whichever op
    happens to sit at the rank."""
    ms = [t / 1e6 for t in times_ns]
    return {"setup_s": statistics.median(setups),
            "ops_per_s": len(ms) / (timed_ns / 1e9),
            "op_ms_p50": statistics.median(ms),
            "op_ms_p80": statistics.quantiles(ms, n=5)[3],
            "peak_rss_mb": peak_rss_kb / 1024}


def harness_workload(name, seed, seconds, trace, deadline):
    args = [name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        os.makedirs(SCRATCH, exist_ok=True)
        args += ["--trace", "--spans", os.path.join(SCRATCH, f"spans-{name}-{seed}.json")]
    setups, res = harness_run(args, deadline, 1 if trace else SETUP_REPEATS)
    if name == "sim-native":
        ops = res["ops"]
        failed = check_sim_ops(ops, load_expected()["sim-native"])
        attempted = len(ops)
        times = [op["ns"] for op in ops if not op["traced"]]
    else:
        for msg in res["failures"]:
            log(f"compile-static: {msg}")
        failed, attempted, times = res["failed"], res["attempted"], res["ns"]
    if trace:
        return attempted, failed, res["layers"]
    return attempted, failed, e2e(setups, times, res["timed_ns"], res["peak_rss_kb"])


def daemon_layers(stream, latencies, lines, m0, m1):
    """Per-layer metrics only the daemon can give: queue wait, run time,
    transport (client latency minus wait and run), hit and static
    latency, cache and failure counters.  Also returns the daemon's total
    run time, the base of trace.overhead_pct."""
    def counter(name):
        return m1.get(name, 0) - m0.get(name, 0)

    def hist(name):
        h0 = m0.get(name, {"count": 0, "sum": 0})
        h1 = m1.get(name, {"count": 0, "sum": 0})
        return h1["count"] - h0["count"], h1["sum"] - h0["sum"]

    def ratio(a, b):
        return a / b if b else 0.0

    def kind_ms(kind):
        return [lat * 1e3 for item, lat in zip(stream, latencies)
                if item["kind"] == kind and lat is not None]

    n_wait, wait_ns = hist("serve.request.wait_ns")
    n_run, run_ns = hist("serve.request.run_ns")
    computed = kind_ms("computed")
    hits, static = kind_ms("hit"), kind_ms("static")
    sizes = [len(raw_result(l) or "") for l in lines if l is not None]
    ch, cm = counter("serve.cache.hits"), counter("serve.cache.misses")
    compile_h, compile_m = counter("advisor.compile_cache.hits"), counter("advisor.compile_cache.misses")
    decode_h, decode_m = counter("ptx.decode_cache.hits"), counter("ptx.decode_cache.misses")
    return {
        "serve.cache_hit_ratio": ratio(ch, ch + cm),
        "serve.queue_wait_ms": ratio(wait_ns / 1e6, n_wait),
        "serve.run_ms": ratio(run_ns / 1e6, n_run),
        "serve.transport_ms": ratio(sum(computed) - (wait_ns + run_ns) / 1e6, len(computed)),
        "serve.hit_ms_p50": statistics.median(hits) if hits else 0.0,
        "serve.static_ms_p50": statistics.median(static) if static else 0.0,
        "serve.failed": counter("serve.requests.failed"),
        "serve.overloaded": counter("serve.requests.overloaded"),
        "analysis.response_kb": ratio(sum(sizes) / 1024, len(sizes)),
        "core.compile_cache_hit_ratio": ratio(compile_h, compile_h + compile_m),
        "ptx.decode_cache_hit_ratio": ratio(decode_h, decode_h + decode_m),
    }, run_ns / 1e6


def send_stream(d, stream, deadline):
    """Send the stream on one connection, closed loop: each request waits for
    the previous answer.  A failed request ends the stream; the requests
    not answered get None.  Returns (latencies s, lines, timed s)."""
    latencies, lines = [], []
    t_start = time.perf_counter()
    for item in stream:
        if time.perf_counter() > deadline:
            break
        t0 = time.perf_counter()
        try:
            line = d.request(item["line"])
        except (OSError, BenchError) as e:  # dead or wedged daemon
            log(f"serve-profile request failed: {e}")
            break
        latencies.append(time.perf_counter() - t0)
        lines.append(line)
    timed_s = time.perf_counter() - t_start
    missing = [None] * (len(stream) - len(lines))
    return latencies + missing, lines + missing, timed_s


def stream_of(seed):
    return [json.loads(l) for l in capture(["stream", "--seed", str(seed)])]


def serve_profile(seed, seconds, trace, deadline):
    """Untraced: SERVE_STREAMS streams, each to a fresh daemon and in its own
    seeded order (op latency depends on the order through the daemon's heap,
    so a run averages orders), plus set-up-only daemons up to SETUP_REPEATS
    set-ups.  Traced: one stream, then its in-process replay."""
    del seconds  # a stream is fixed; it takes about 19 s on 2 cores
    warmup = capture(["warmup-lines"])
    expected = load_expected()["serve-profile"]
    if not trace:
        setups, rss_kb, done, timed_s = [], [], [], 0.0
        attempted = failed = 0
        for _ in range(SETUP_REPEATS - SERVE_STREAMS):
            d, s = start_daemon(warmup, deadline)
            d.close()
            setups.append(s)
        for r in range(SERVE_STREAMS):
            stream = stream_of(seed * SERVE_STREAMS + r)
            d, s = start_daemon(warmup, deadline)
            try:
                setups.append(s)
                latencies, lines, t = send_stream(d, stream, deadline)
                rss_kb.append(d.peak_rss_kb())
            finally:
                d.close()
            timed_s += t
            done += [lat * 1e9 for lat in latencies if lat is not None]
            attempted += len(stream)
            failed += check_stream(stream, lines, expected)[0]
        return attempted, failed, e2e(setups, done, timed_s * 1e9, statistics.median(rss_kb))
    stream_seed = seed * SERVE_STREAMS
    stream = stream_of(stream_seed)
    d, _ = start_daemon(warmup, deadline)
    try:
        m0 = d.metrics()
        latencies, lines, _ = send_stream(d, stream, deadline)
        m1 = d.metrics() if None not in lines else m0
    finally:
        d.close()
    failed, fields = check_stream(stream, lines, expected)
    attempted = len(stream)
    layers, daemon_run_ms = daemon_layers(stream, latencies, lines, m0, m1)
    # the traced in-process replay of the same stream
    h = Harness(["serve-replay", "--seed", str(stream_seed), "--spans",
                 os.path.join(SCRATCH, f"spans-serve-profile-{seed}.json")], deadline)
    try:
        h.wait_ready()
        res = h.result()
    finally:
        h.close()
    replay_failed, replay_fields = check_stream(stream, res["responses"], expected)
    for i, f in fields.items():
        if replay_fields.get(i) != f:
            replay_failed += 1
            log(f"serve-profile op {i}: traced replay differs from the daemon")
    traced_ms = sum(ns / 1e6 for item, ns in zip(stream, res["op_ns"])
                    if item["kind"] == "computed")
    layers.update(res["layers"])
    layers["trace.overhead_pct"] = 100 * (traced_ms / daemon_run_ms - 1) if daemon_run_ms else 0.0
    return attempted + len(stream), failed + replay_failed, layers


def run(workload, seed, seconds, trace):
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if workload == "serve-profile":
        attempted, failed, metrics = serve_profile(seed, seconds, trace, deadline)
    else:
        attempted, failed, metrics = harness_workload(workload, seed, seconds, trace, deadline)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    correct = failed == 0 and attempted > 0
    if trace:
        op_ms = metrics.get("trace.op_ms", 0.0)
        if op_ms and metrics.get("unattributed_ms", 0.0) > UNATTRIBUTED_MAX * op_ms:
            log("layer self times cover less than 95% of the traced op time")
            correct = False
    out = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
           for m in wanted}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}


# ----- recording the expected outputs -----

def record():
    """Record expected outputs from the program as it is now: simulated
    counts of every sim-native input, and the checked fields of every
    distinct serve-profile request."""
    sim = {op["id"]: {"cycles": op["cycles"], "warp_insts": op["warp_insts"]}
           for op in json.loads(capture(["sim-record"])[-1])}
    stream = [json.loads(l) for l in capture(["stream", "--seed", "1"])]
    serve = {}
    d, _ = start_daemon(capture(["warmup-lines"]), time.perf_counter() + 600)
    try:
        for item in stream:
            if item["kind"] != "hit" and item["key"] not in serve:
                resp = json.loads(d.request(item["line"]))
                if not resp["ok"]:
                    raise BenchError(f"{item['key']}: {resp}")
                serve[item["key"]] = fields_of(json.loads(item["line"])["op"], resp["result"])
    finally:
        d.close()
    with open(EXPECTED, "w") as f:
        json.dump({"sim-native": sim, "serve-profile": serve}, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"recorded {len(sim)} sim-native inputs and {len(serve)} serve-profile requests")


def main():
    # a SIGTERM unwinds like an exception, so every finally block stops its
    # daemon or harness process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    if not a.record and a.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if a.record:
            record()
            return 0
        result = run(a.workload, a.seed, a.seconds, a.trace == 1)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"benchmark failed: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
