#!/usr/bin/env python3
"""End-to-end benchmark of nocmap.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oneshot|serve|sweep --seed N \
        --seconds S --trace 0|1

It builds bin/nocmap.exe and perfbench/nbench.exe with dune (build dir
$CARGO_TARGET_DIR/dune, default .bench_build/dune), generates the
workload's inputs from the seed, measures for S seconds, checks every
output against perfbench/goldens.tsv and prints one JSON object as the
last line of stdout.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it repeats the workload traced and
reports the per-layer metrics, after a self-time table of every span.

Workloads:
  oneshot  closed loop of `nocmap map --spec FILE --json OUT` processes
  serve    open loop against a fresh `nocmap serve` daemon, 2 connections
  sweep    in-process explore -> Pareto pick -> simulate (nbench sweep)
"""

import argparse
import hashlib
import json
import math
import os
import queue
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.abspath(os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "dune"))
NOCMAP = os.path.join(BUILD, "default", "bin", "nocmap.exe")
NBENCH = os.path.join(BUILD, "default", "perfbench", "nbench.exe")
JOBS = 2  # connections to the daemon: never more than this machine's nproc

# The served mix (op kind -> share), its fixed offered rate and latency
# limit.  The rate is a little under half the closed-loop capacity the
# seed code reaches on this mix with two connections on a 2-vCPU VM
# (46-51 req/s), so a burst of host contention does not saturate it.
SERVE_MIX = [("map", 0.40), ("certify", 0.15), ("lint", 0.15), ("explore", 0.15), ("remap", 0.15)]
SERVE_RATE = 20.0  # requests per second
SERVE_LIMIT_MS = 2000.0
LATE_LIMIT_MS = 50.0  # generator lateness (p99) beyond which a serve run is invalid
# A run is measured in this many equal blocks; its figures are medians
# over the blocks.  After each block the set-up is repeated for
# SETUP_SPAN seconds, and setup_s is the median of those spans' means.
BLOCKS = 5
SETUP_SPAN = 2.0
# Daemon-only figures; the other workloads bypass the daemon and report 0.
SERVE_ONLY = {"serve.overhead_ms": 0.0, "serve.coalesced_frac": 0.0, "serve.shed_retries": 0,
              "serve.generator_late_p99_ms": 0.0}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile; infinite samples sort last."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


def md5(data):
    return hashlib.md5(data).hexdigest()


# --- build and inputs ------------------------------------------------------


def build():
    for need in ("dune-project", "bin/nocmap.ml", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("run me from the root of a nocmap checkout (%s is missing)" % need)
    os.makedirs(os.path.dirname(BUILD), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD, "--profile", "release",
           "./bin/nocmap.exe", "./perfbench/nbench.exe"]
    r = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
        die("build failed")


def load_goldens():
    gold = {}
    with open(os.path.join(HERE, "goldens.tsv")) as f:
        for line in f:
            if line.strip():
                k, v = line.rstrip("\n").split("\t")
                gold[k] = v
    return gold


def gen(seed, workload, out):
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([NBENCH, "gen", "--seed", str(seed), "--workload", workload,
                    "--goldens", os.path.join(HERE, "goldens.tsv"), "--out", out], check=True)
    rows = []
    with open(os.path.join(out, "pool.tsv")) as f:
        for line in f:
            if line.strip():
                rows.append(line.rstrip("\n").split("\t"))
    return rows


class Setups:
    """Timed set-ups of one run.  `fn(out)` generates the inputs into
    `out` and starts what the workload needs; `first` makes the set-up
    the run uses.  `again` repeats it into a throw-away directory for
    SETUP_SPAN seconds between measured blocks and keeps the mean: the
    host's CPU speed flips between a fast and a slow phase every second
    or so, and a single set-up of a few hundred milliseconds would read
    one phase.  `release` undoes a repeat outside the timed span."""

    def __init__(self, fn, work, release=None):
        self.fn, self.work, self.release, self.means = fn, work, release, []

    def first(self):
        return self.fn(self.work)

    def again(self):
        times, start = [], time.perf_counter()
        while not times or time.perf_counter() - start < SETUP_SPAN:
            t0 = time.perf_counter()
            r = self.fn(os.path.join(self.work, "again"))
            times.append(time.perf_counter() - t0)
            if self.release:
                self.release(r)
        self.means.append(statistics.mean(times))

    def median(self):
        log("set-up means (s): " + " ".join("%.3f" % m for m in self.means))
        return median(self.means)


def run_quiet(cmd, **kw):
    return subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, **kw)


# --- trace reduction -------------------------------------------------------


class Spans:
    """Self time per span name from Chrome trace files.

    A span's self time is its duration minus the part its direct
    children (same thread, nested in time) cover.  For a span that has
    children, that remainder is time no child accounts for: it is listed
    as the "(unattributed)" row of that parent."""

    def __init__(self):
        self.rows = {}  # name -> [count, total_us, self_us, parent_instances]
        self.within = {}  # (ancestor name, name) -> total_us
        self.root_us = 0.0
        self.unattributed_us = 0.0

    def add_file(self, path):
        with open(path) as f:
            data = json.load(f)
        events = data["traceEvents"] if isinstance(data, dict) else data
        self.add_events([e for e in events if e.get("ph") == "X"])

    def add_events(self, events):
        by_thread = {}
        for e in events:
            by_thread.setdefault((e.get("pid"), e.get("tid")), []).append(e)
        for evs in by_thread.values():
            evs.sort(key=lambda e: (float(e["ts"]), -float(e["dur"])))
            stack = []  # [end, event, child_us, has_child]

            def close(top):
                name = top[1]["name"]
                dur = float(top[1]["dur"])
                row = self.rows.setdefault(name, [0, 0.0, 0.0, 0])
                own = max(0.0, dur - top[2])
                row[0] += 1
                row[1] += dur
                row[2] += own
                if top[3]:
                    row[3] += 1
                    self.unattributed_us += own

            for e in evs:
                ts, dur = float(e["ts"]), float(e["dur"])
                while stack and stack[-1][0] <= ts + 1e-3:
                    close(stack.pop())
                if stack:
                    stack[-1][2] += dur
                    stack[-1][3] = True
                else:
                    self.root_us += dur
                for name in {a[1]["name"] for a in stack}:
                    key = (name, e["name"])
                    self.within[key] = self.within.get(key, 0.0) + dur
                stack.append([ts + dur, e, 0.0, False])
            while stack:
                close(stack.pop())

    def within_ms(self, ancestor, name):
        return self.within.get((ancestor, name), 0.0) / 1000.0

    def count(self, name):
        r = self.rows.get(name)
        return r[0] if r else 0

    def unattributed_frac(self):
        return self.unattributed_us / self.root_us if self.root_us else 0.0

    def table(self, title):
        lines = ["self time per span (%s): name, calls, total ms, self ms" % title]
        for name, (n, tot, own, parents) in sorted(self.rows.items(), key=lambda kv: -kv[1][2]):
            label = "(unattributed) in " + name if parents else name
            lines.append("  %-44s %7d %11.3f %11.3f" % (label, n, tot / 1000.0, own / 1000.0))
        lines.append("  unattributed share of root time: %.4f" % self.unattributed_frac())
        return "\n".join(lines)


def registry_numbers(snapshots, ops):
    """Cache and pool figures from metrics-registry JSON snapshots; the
    counts are per op."""
    c = {"hits": 0, "misses": 0, "stores": 0}
    util = []
    for snap in snapshots:
        counters = snap.get("counters", {})
        gauges = snap.get("gauges", {})
        if isinstance(counters, list):
            counters = {k: v for k, v in counters}
        if isinstance(gauges, list):
            gauges = {k: v for k, v in gauges}
        c["hits"] += counters.get("cache.memory_hits", 0) + counters.get("cache.disk_hits", 0)
        c["misses"] += counters.get("cache.misses", 0)
        c["stores"] += counters.get("cache.stores", 0)
        if counters.get("pool.batches", 0) > 0:
            util.append(float(gauges.get("pool.utilization", 0.0)))
    lookups = c["hits"] + c["misses"]
    return {
        "cache.hit_ratio": c["hits"] / lookups if lookups else 0.0,
        "cache.stores": c["stores"] / max(1, ops),
        "cache.misses": c["misses"] / max(1, ops),
        "domain_pool.utilization": statistics.mean(util) if util else 0.0,
    }


def probe(work, workload):
    trace = os.path.join(work, "probe-trace.json")
    out = subprocess.run([NBENCH, "probe", "--dir", work, "--workload", workload,
                          "--trace", trace], check=True, stdout=subprocess.PIPE)
    values = json.loads(out.stdout.decode().strip().splitlines()[-1])
    spans = Spans()
    spans.add_file(trace)
    attempt_ms = spans.within_ms("bench:mapping.map_design", "map:attempt")
    calls = max(1, spans.count("bench:mapping.map_design"))
    values["mapping.attempt_ms"] = attempt_ms / calls
    values["mapping.search_self_ms"] = values["mapping.map_design_ms"] - attempt_ms / calls
    values["verify.ms"] = values.pop("verify_ms")
    values["certify.ms"] = values.pop("certify_ms")
    values["remap.ms"] = values.pop("remap_ms")
    return values, spans


def startup_ms():
    ts = []
    for _ in range(15):
        t0 = time.perf_counter()
        run_quiet([NOCMAP, "--version"], check=True)
        ts.append((time.perf_counter() - t0) * 1000.0)
    return median(ts)


# --- oneshot ---------------------------------------------------------------


def oneshot_one(row, out, gold, extra=()):
    """Run one CLI process; return (latency ms, ok, maxrss kB)."""
    _, key, spec, freq, expect = row
    if os.path.exists(out):
        os.remove(out)
    t0 = time.perf_counter()
    p = subprocess.Popen([NOCMAP, "map", "--spec", spec, "--json", out, "--freq", freq, *extra],
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, ru = os.wait4(p.pid, 0)
    ms = (time.perf_counter() - t0) * 1000.0
    p.returncode = os.waitstatus_to_exitcode(status)
    if expect == "fail":
        ok = p.returncode == 124
    else:
        ok = p.returncode == 0 and os.path.exists(out) and \
            md5(open(out, "rb").read()) == gold.get("map|" + key)
    return ms, ok, ru.ru_maxrss


def oneshot(args, work, gold):
    def setup(out):
        rows = gen(args.seed, "oneshot", out)
        run_quiet([NOCMAP, "--version"], check=True)
        return rows

    setups = Setups(setup, work)
    pool = [r for r in setups.first() if r[0] == "oneshot"]
    random.Random(args.seed).shuffle(pool)
    out = os.path.join(work, "out.json")
    i = 0  # ops so far: each block goes on through the pool

    def loop(seconds, extra_for=None):
        """Ops for `seconds`; return (elapsed s, latencies ms, max RSS kB)."""
        nonlocal i
        lats, rss = [], 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            extra = extra_for(i) if extra_for else ()
            ms, ok, kb = oneshot_one(pool[i % len(pool)], out, gold, extra)
            lats.append(ms if ok else math.inf)
            rss = max(rss, kb)
            i += 1
        return time.perf_counter() - start, lats, rss

    if not args.trace:
        blocks, rss = [], 0
        for _ in range(BLOCKS):
            elapsed, lats, kb = loop(args.seconds / BLOCKS)
            blocks.append((elapsed, lats))
            rss = max(rss, kb)
            setups.again()
        return end_to_end(setups.median(), blocks, rss / 1024.0)

    tdir = os.path.join(work, "traces")
    os.makedirs(tdir, exist_ok=True)

    def traced(i):
        return ("--trace", os.path.join(tdir, "t%d.json" % i),
                "--metrics", os.path.join(tdir, "m%d.json" % i))

    _, lats, _ = loop(args.seconds, traced)
    fails = lats.count(math.inf)
    spans, snaps = Spans(), []
    for name in sorted(os.listdir(tdir)):
        path = os.path.join(tdir, name)
        if name.startswith("t"):
            spans.add_file(path)
        else:
            snaps.append(json.load(open(path)))
    # Tracing overhead: the same processes untraced and traced, alternating.
    plain = tr = 0.0
    for rep in range(2):
        for j, row in enumerate(pool[:24]):
            plain += oneshot_one(row, out, gold)[0]
            tr += oneshot_one(row, out, gold, traced(10**6 + j))[0]
    layers, pspans = probe(work, "oneshot")
    layers.pop("service_seq_ms")
    layers.update(SERVE_ONLY)
    layers.update(registry_numbers(snaps, len(lats)))
    layers["process.startup_ms"] = startup_ms()
    layers["obs.tracing_overhead_frac"] = tr / plain - 1.0
    layers["obs.unattributed_frac"] = spans.unattributed_frac()
    layers["failed_frac"] = fails / max(1, len(lats))
    print(spans.table("oneshot CLI processes"))
    print(pspans.table("oneshot probe"))
    return layers, len(lats), fails


# --- serve -----------------------------------------------------------------


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = bytearray()
        greeting = json.loads(self.readline())
        self.send({"proto": greeting["proto"], "build": greeting["build"]})
        if not json.loads(self.readline()).get("ok"):
            raise RuntimeError("handshake rejected")

    def readline(self):
        start = 0
        while True:
            i = self.buf.find(b"\n", start)
            if i >= 0:
                line = bytes(self.buf[:i])
                del self.buf[:i + 1]
                return line
            start = len(self.buf)
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise EOFError("daemon closed the connection")
            self.buf += chunk

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def request(self, obj):
        self.send(obj)
        while True:
            r = json.loads(self.readline())
            if r.get("id") == obj.get("id"):
                return r

    def close(self):
        self.sock.close()


class Daemon:
    def __init__(self, work, tag, traced=False):
        self.sock = os.path.relpath(os.path.join(work, tag + ".sock"), ROOT)
        self.trace = os.path.join(work, tag + "-trace.json") if traced else None
        cmd = [NOCMAP, "serve", "--socket", self.sock, "--max-inflight", "32", "--jobs", "1"]
        if traced:
            cmd += ["--trace", self.trace, "--metrics", os.path.join(work, tag + "-metrics.json")]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.time() + 30
        while True:
            try:
                c = Conn(self.sock)
                c.request({"id": 0, "op": "ping"})
                c.close()
                break
            except (OSError, EOFError, ValueError):
                if time.time() > deadline or self.proc.poll() is not None:
                    self.kill()
                    die("daemon did not come up")
                time.sleep(0.01)

    def stats(self):
        c = Conn(self.sock)
        r = c.request({"id": 1, "op": "stats"})
        c.close()
        return json.loads(r["payload"])

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        try:
            c = Conn(self.sock)
            c.request({"id": 2, "op": "shutdown"})
            c.close()
            self.proc.wait(timeout=60)
        except Exception:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def config():
    return {"freq_mhz": 500.0, "slots": 32, "nis_per_switch": 8, "xy": False}


def serve_requests(rows, seed, n):
    """The seeded request list: (golden key, request object) pairs.

    Op kinds follow the mix in a fixed interleaving.  Every other request
    repeats an earlier one of its kind, drawn from the history so that
    popular problems come back more often.  Fresh requests of a kind walk
    the spec classes in a fixed order, taking each class's variants in a
    seeded rotation: two seeds then load the daemon with the same shape
    of work."""
    rng = random.Random(seed)
    classes = {}
    for r in rows:
        if r[0] == "serve":
            classes.setdefault(r[1].split("-v")[0], []).append(r)
    classes = list(classes.values())
    remaps = {r[1]: r for r in rows if r[0] == "remap"}
    grids = {r[1]: r for r in rows if r[0] == "grid"}
    pattern = [k for _, k in sorted(((j + 0.5) / round(20 * w), k) for k, w in SERVE_MIX
                                    for j in range(round(20 * w)))]
    offset = {k: rng.randrange(1000) for k, _ in SERVE_MIX}
    count = {k: 0 for k, _ in SERVE_MIX}
    texts = {}

    def text(path):
        if path not in texts:
            texts[path] = open(path).read()
        return texts[path]

    def fresh(kind):
        m = count[kind]
        count[kind] += 1
        variants = classes[m % len(classes)]
        _, key, path = variants[(m // len(classes) + offset[kind]) % len(variants)]
        req = {"op": kind, "name": key, "spec": text(path), "config": config()}
        gkey = kind + "|" + key
        if kind == "explore":
            g = sorted(grids)[(m + offset[kind]) % len(grids)]
            req["frequencies"] = [float(x) for x in grids[g][2].split(",")]
            req["slot_counts"] = [int(x) for x in grids[g][3].split(",")]
            req["torus"] = False
            gkey += "|" + g
        elif kind == "lint":
            req["deep"] = False
        elif kind == "remap":
            _, _, dkind, _, to_path = remaps[key]
            req = {"op": "remap", "from_name": key, "from": text(path),
                   "to_name": key + "-to", "to": text(to_path), "config": config()}
            gkey += "|" + dkind
        return gkey, req

    out, history = [], {k: [] for k, _ in SERVE_MIX}
    for i in range(n):
        kind = pattern[(i // 2) % len(pattern)]
        item = rng.choice(history[kind]) if i % 2 == 1 else fresh(kind)
        history[kind].append(item)
        out.append(item)
    return out


def check_payload(gold, gkey, payload):
    if md5(payload.encode()) != gold.get(gkey):
        return False
    return not gkey.startswith("certify|") or '"clean": true' in payload


def open_loop(daemon, schedule, lo, hi, gold, rate):
    """Send requests lo..hi-1 of the schedule at a fixed rate over JOBS
    connections; time each from its due time."""
    conns = [Conn(daemon.sock) for _ in range(JOBS)]
    due = {i: (i - lo) / rate for i in range(lo, hi)}
    done = {i: None for i in range(lo, hi)}  # (completion time, ok, coalesced, shed)
    late = []
    sampled = {}
    lock = threading.Lock()

    def reader(c):
        while True:
            try:
                r = json.loads(c.readline())
            except (EOFError, OSError, ValueError):
                return
            now = time.perf_counter()
            i = r.get("id", -1)
            if i not in done:
                continue
            gkey = schedule[i][0]
            ok = bool(r.get("ok")) and check_payload(gold, gkey, r["payload"])
            if not ok:
                log("request %d (%s) failed: %s %s" % (i, gkey, r.get("error", "wrong payload"),
                                                       r.get("message", "")))
            if ok and gkey.split("|")[0] not in sampled:
                with lock:
                    sampled.setdefault(gkey.split("|")[0], (i, r["payload"]))
            done[i] = (now, ok, bool(r.get("coalesced")),
                       r.get("error") in ("overloaded", "too-many-inflight"))

    # The daemon reads no sockets while it computes a batch, so a blocking
    # send can stall; per-connection writer threads keep the schedule
    # independent of the replies.
    lines = {i: (json.dumps(dict(schedule[i][1], id=i)) + "\n").encode() for i in range(lo, hi)}
    queues = [queue.Queue() for _ in conns]

    def writer(c, q):
        while True:
            i = q.get()
            if i is None:
                return
            c.sock.sendall(lines[i])

    threads = [threading.Thread(target=reader, args=(c,), daemon=True) for c in conns]
    threads += [threading.Thread(target=writer, args=(c, q), daemon=True)
                for c, q in zip(conns, queues)]
    for t in threads:
        t.start()
    t0 = time.perf_counter() + 0.05
    for i in range(lo, hi):
        target = t0 + due[i]
        while True:
            wait = target - time.perf_counter()
            if wait <= 0:
                break
            time.sleep(min(wait, 0.005))
        late.append((time.perf_counter() - target) * 1000.0)
        queues[i % JOBS].put(i)
    for q in queues:
        q.put(None)
    end = time.perf_counter() + 60.0
    while time.perf_counter() < end and any(d is None for d in done.values()):
        time.sleep(0.01)
    missing = [schedule[i][0] for i, d in done.items() if d is None]
    if missing:
        log("%d requests got no response, e.g. %s" % (len(missing), missing[0]))
    for c in conns:
        c.sock.shutdown(socket.SHUT_RDWR)
        c.close()
    for t in threads:
        t.join()
    # The block lasts until its last reply, and at least its send span.
    lats, coalesced, shed, last = [], 0, 0, due[hi - 1]
    for i, d in done.items():
        if d is None or not d[1]:
            lats.append(math.inf)
            shed += 1 if d is not None and d[3] else 0
            continue
        lats.append((d[0] - t0 - due[i]) * 1000.0)
        last = max(last, d[0] - t0)
        coalesced += 1 if d[2] else 0
    return {"lats": lats, "elapsed": last, "coalesced": coalesced, "shed": shed,
            "late": late, "sampled": sampled}


def cli_bytes(kind, req, work):
    """The one-shot CLI's bytes for a served map/certify/lint/remap
    request, or None when the CLI wrote no output."""
    spec = os.path.join(work, "sample.spec")
    out = os.path.join(work, "sample.json")
    if os.path.exists(out):
        os.remove(out)
    if kind == "remap":
        to = os.path.join(work, "sample-to.spec")
        open(spec, "w").write(req["from"])
        open(to, "w").write(req["to"])
        run_quiet([NOCMAP, "remap", "--from", spec, "--to", to, "--json", out])
        return open(out).read() if os.path.exists(out) else None
    open(spec, "w").write(req["spec"])
    if kind == "map":
        run_quiet([NOCMAP, "map", "--spec", spec, "--json", out])
        return open(out).read() if os.path.exists(out) else None
    r = subprocess.run([NOCMAP, kind, "--spec", spec, "--json"], stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL)
    return r.stdout.decode()


def sequential(daemon, reqs):
    c = Conn(daemon.sock)
    ms = []
    for i, (_, req) in enumerate(reqs):
        t0 = time.perf_counter()
        r = c.request(dict(req, id=i))
        ms.append((time.perf_counter() - t0) * 1000.0)
        if not r.get("ok"):
            raise RuntimeError("sequential request failed: %s" % r.get("message"))
    c.close()
    return ms


def probe_sequence(rows):
    """The service ops the probe runs first, in its order (see nbench probe)."""
    specs = [r for r in rows if r[0] == "serve"][:4]
    remaps = {r[1]: r for r in rows if r[0] == "remap"}
    grid = [r for r in rows if r[0] == "grid"][0]
    out = []
    for _, key, path in specs:
        text = open(path).read()
        base = {"name": key, "spec": text, "config": config()}
        out.append(("map", dict(base, op="map")))
        out.append(("certify", dict(base, op="certify")))
        out.append(("lint", dict(base, op="lint", deep=False)))
        out.append(("explore", dict(base, op="explore", torus=False,
                                    frequencies=[float(x) for x in grid[2].split(",")],
                                    slot_counts=[int(x) for x in grid[3].split(",")])))
        if key in remaps:
            out.append(("remap", {"op": "remap", "from_name": key, "from": text,
                                  "to_name": key + "-to",
                                  "to": open(remaps[key][4]).read(), "config": config()}))
    return out


def serve(args, work, gold):
    def setup(out):
        return gen(args.seed, "serve", out), Daemon(out, "daemon")

    n = int(SERVE_RATE * args.seconds)
    if args.trace:
        rows = gen(args.seed, "serve", work)
        daemon = Daemon(work, "traced", traced=True)
        parts = [(0, n)]
    else:
        setups = Setups(setup, work, release=lambda r: r[1].stop())
        rows, daemon = setups.first()
        # The schedule goes out in BLOCKS parts, set-ups between two
        # parts while the daemon is idle.
        parts = [(k * n // BLOCKS, (k + 1) * n // BLOCKS) for k in range(BLOCKS)]
    schedule = serve_requests(rows, args.seed, n)
    results = []
    try:
        for lo, hi in parts:
            results.append(open_loop(daemon, schedule, lo, hi, gold, SERVE_RATE))
            if not args.trace:
                setups.again()
        stats = daemon.stats()
        rss = daemon.vm_hwm_mb()
    finally:
        daemon.stop()
    lats = [x for r in results for x in r["lats"]]
    fails = lats.count(math.inf)
    late_p99 = percentile([x for r in results for x in r["late"]], 0.99)
    invalid = late_p99 > LATE_LIMIT_MS
    if invalid:
        log("generator fell behind: p99 lateness %.1f ms" % late_p99)
        fails = max(fails, 1)
    # A sampled payload of each kind the CLI also prints must equal the
    # one-shot CLI's bytes; a CLI that writes nothing is a mismatch.
    sampled = {}
    for r in results:
        for kind, item in r["sampled"].items():
            sampled.setdefault(kind, item)
    for kind, (i, payload) in sorted(sampled.items()):
        if kind != "explore" and cli_bytes(kind, schedule[i][1], work) != payload:
            log("served %s payload differs from the one-shot CLI" % kind)
            fails += 1
    if not args.trace:
        return end_to_end(setups.median(), [(r["elapsed"], r["lats"]) for r in results], rss,
                          fails, limit=SERVE_LIMIT_MS, invalid=invalid)

    spans = Spans()
    spans.add_file(daemon.trace)
    snap = stats
    # Overhead of tracing, and of serving: the probe's service ops sent
    # one at a time to fresh daemons, untraced then traced.
    seq = probe_sequence(rows)
    plain_d = Daemon(work, "plain")
    try:
        plain = sequential(plain_d, seq)
    finally:
        plain_d.stop()
    traced_d = Daemon(work, "overhead", traced=True)
    try:
        traced_ms = sequential(traced_d, seq)
    finally:
        traced_d.stop()
    layers, pspans = probe(work, "serve")
    execute = layers.pop("service_seq_ms")
    layers.update(registry_numbers([snap], len(lats)))
    counters = snap.get("counters", {})
    if isinstance(counters, list):
        counters = {k: v for k, v in counters}
    layers["process.startup_ms"] = startup_ms()
    layers["serve.overhead_ms"] = statistics.mean(p - e for p, e in zip(plain, execute))
    layers["serve.coalesced_frac"] = results[0]["coalesced"] / max(1, n - lats.count(math.inf))
    layers["serve.shed_retries"] = counters.get("serve.shed", results[0]["shed"])
    layers["serve.generator_late_p99_ms"] = late_p99
    layers["obs.tracing_overhead_frac"] = sum(traced_ms) / sum(plain) - 1.0
    layers["obs.unattributed_frac"] = spans.unattributed_frac()
    layers["failed_frac"] = fails / max(1, len(lats))
    print(spans.table("serve daemon"))
    print(pspans.table("serve probe"))
    return layers, len(lats), fails


# --- sweep -----------------------------------------------------------------


def nbench_sweep(work, extra):
    out = subprocess.run([NBENCH, "sweep", "--dir", work, *extra],
                         check=True, stdout=subprocess.PIPE)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def sweep_ok(gold, op):
    key, digest, sim_ok, _ = op
    return sim_ok and gold.get("sweep|" + key) == digest


def sweep(args, work, gold):
    def setup(out):
        gen(args.seed, "sweep", out)
        nbench_sweep(out, ["--ops", "0"])

    setups = Setups(setup, work)
    setups.first()
    if not args.trace:
        # One process per block; each goes on through the pool.
        blocks, rss, done = [], 0, 0
        for _ in range(BLOCKS):
            r = nbench_sweep(work, ["--seconds", str(args.seconds / BLOCKS), "--first", str(done)])
            done += len(r["ops"])
            blocks.append((r["wall_s"], [op[3] if sweep_ok(gold, op) else math.inf
                                         for op in r["ops"]]))
            rss = max(rss, r["rss_kb"])
            setups.again()
        return end_to_end(setups.median(), blocks, rss / 1024.0)

    trace = os.path.join(work, "sweep-trace.json")
    metrics = os.path.join(work, "sweep-metrics.json")
    r = nbench_sweep(work, ["--seconds", str(args.seconds), "--trace", trace,
                            "--metrics", metrics])
    fails = sum(1 for op in r["ops"] if not sweep_ok(gold, op))
    spans = Spans()
    spans.add_file(trace)
    count = 16
    plain = nbench_sweep(work, ["--ops", str(count)])["wall_s"]
    traced_wall = nbench_sweep(work, ["--ops", str(count), "--trace",
                                      os.path.join(work, "overhead-trace.json")])["wall_s"]
    layers, pspans = probe(work, "sweep")
    layers.pop("service_seq_ms")
    layers.update(SERVE_ONLY)
    layers.update(registry_numbers([json.load(open(metrics))], len(r["ops"])))
    layers["process.startup_ms"] = startup_ms()
    layers["obs.tracing_overhead_frac"] = traced_wall / plain - 1.0
    layers["obs.unattributed_frac"] = spans.unattributed_frac()
    layers["failed_frac"] = fails / max(1, len(r["ops"]))
    print(spans.table("sweep process"))
    print(pspans.table("sweep probe"))
    return layers, len(r["ops"]), fails


# --- output ----------------------------------------------------------------


def end_to_end(setup_s, blocks, rss_mb, fails=None, limit=math.inf, invalid=False):
    """The user-facing figures from a run's BLOCKS (elapsed s, latencies
    ms) blocks; a failed op has infinite latency, and only ops within
    `limit` count as done.  Each rate and percentile is the median of
    its per-block values, so a burst of host contention shorter than a
    block or two moves none."""
    lats = [ms for _, b in blocks for ms in b]
    if fails is None:
        fails = lats.count(math.inf)
    m = {
        "setup_s": setup_s,
        "ops_per_s": median([sum(1 for ms in b if ms <= limit) / max(e, 1e-9) for e, b in blocks]),
        "latency_p50_ms": median([percentile(b, 0.50) for _, b in blocks]),
        "latency_p90_ms": median([percentile(b, 0.90) for _, b in blocks]),
        "peak_rss_mb": rss_mb,
    }
    beyond = sum(1 for x in lats if x > m["latency_p90_ms"])
    log("%d ops, %d failed, %d beyond p90%s" % (len(lats), fails, beyond,
                                               ", INVALID run" if invalid else ""))
    return m, len(lats), fails


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["oneshot", "serve", "sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    build()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    gold = load_goldens()
    work = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        values, attempted, failed = {"oneshot": oneshot, "serve": serve,
                                     "sweep": sweep}[args.workload](args, work, gold)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        values["failed_frac"] = failed / max(1, attempted)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            die("metric %s was not measured" % m["name"])
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v if v != float("inf") else 1e9, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
