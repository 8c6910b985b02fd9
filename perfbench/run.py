#!/usr/bin/env python3
"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload fig5-sweep --seed 42 --seconds 10 --trace 0

Builds stsim from the checkout (Release, into .bench_build/), runs the
workload through its real entry point for about --seconds seconds,
gates every result (gate.py) and prints the metrics BENCHMARK.json
declares as the last line of stdout: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Exits nonzero when
the gate fails. perfbench/README.md records why each workload exists
and which end-to-end metric each per-layer metric should move.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was found

import gate as gatelib  # noqa: E402
import paper  # noqa: E402

BUILD = ".bench_build"
RUNNER = os.path.join(BUILD, "stsim", "stsim_runner")
SERVE = os.path.join(BUILD, "stsim", "stsim_serve")
LAYERS = os.path.join(BUILD, "perfbench_layers")

BATCH_WORKERS = 4   # `dump --jobs`: one per core of the 4-core box
SERVE_WORKERS = 2   # `stsim_serve --jobs`
SERVE_CLIENTS = 4   # closed-loop connections of the one client process
SERVE_RUN_SEEDS = 32  # runSeeds per serve (benchmark, experiment)
SETUP_REPS = 31     # set-up is measured this many times per run
TRACED_SECONDS = 12  # cap on a traced batch run's interleaved passes

FIG5 = (500_000, 150_000)       # bench drivers' measured / warmup insts
SERVE_SHORT = (3_000, 500)
SERVE_EXPERIMENTS = ("baseline", "A3", "C2", "PG")
SERVE_KINDS = 8 * len(SERVE_EXPERIMENTS)  # x 8 benchmarks
FORK_WARMUP = 200_000
FORK_LENGTHS = 6                # seeded measured lengths per class
FORK_IDLE_FACTORS = (0.05, 0.10, 0.15, 0.20)


class BenchError(Exception):
    """The benchmark itself could not run (build, missing sources)."""


def median(values):
    return statistics.median(values)


def quantile(values, q):
    """Nearest-rank quantile (q in (0, 1])."""
    s = sorted(values)
    return s[min(len(s), max(1, math.ceil(q * len(s)))) - 1]


# ---------------------------------------------------------------------------
# Processes: every child is registered, reaped with its rusage, and
# killed on the way out if it is still running.
# ---------------------------------------------------------------------------

class Procs:
    def __init__(self):
        self.live = []

    def start(self, cmd, **kw):
        p = subprocess.Popen(cmd, **kw)
        self.live.append(p)
        return p

    def reap(self, p):
        """Wait for @p p; returns its exit code."""
        p.wait()
        self.live.remove(p)
        return p.returncode

    def run(self, cmd, **kw):
        """Run to completion; returns (exit code, stdout bytes, wall s)."""
        t0 = time.perf_counter()
        p = self.start(cmd, stdout=subprocess.PIPE, **kw)
        with p.stdout:
            out = p.stdout.read()
        rc = self.reap(p)
        return rc, out, time.perf_counter() - t0

    def stop_all(self):
        for p in list(self.live):
            if p.poll() is None:
                p.kill()
            p.wait()
            self.live.remove(p)


def steal_s():
    """CPU time the hypervisor gave to other guests while this machine's
    CPUs had work, summed over the CPUs (0 where /proc/stat has no steal
    column). Printed with each run: a run measured while it grew is a
    noisy run."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mb(pid, last=0.0):
    """The process's own peak RSS (VmHWM) so far, or @p last once it has
    exited. Not the rusage of the reaped child: that also counts the
    spawning Python process, whose image the child holds until exec."""
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return last


class Ctx:
    """One benchmark run: its arguments, work directory, gate and children."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.dir = os.path.join(BUILD, "run-%d" % os.getpid())
        self.gate = gatelib.Gate()
        self.procs = Procs()
        self.log = open(os.path.join(BUILD, "run.log"), "w")
        self._n = 0

    def path(self, name):
        return os.path.join(self.dir, name)

    def fresh(self, stem):
        self._n += 1
        return self.path("%s-%d" % (stem, self._n))

    def write_jobs(self, name, jobs):
        path = self.path(name)
        with open(path, "w") as f:
            for j in jobs:
                f.write(job_line(j) + "\n")
        return path

    def note(self, msg):
        print("perfbench: " + msg, flush=True)


# ---------------------------------------------------------------------------
# Build and provenance
# ---------------------------------------------------------------------------

def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("no stsim sources beside perfbench/ "
                         "(CMakeLists.txt and src/ are missing)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(BATCH_WORKERS),
                      "--target", "perfbench_layers", "stsim_runner",
                      "stsim_serve"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                raise BenchError("build failed; see %s" % log_path)
    with open(os.path.join(BUILD, "provenance.json")) as f:
        prov = json.load(f)
    # Provenance guard: numbers from a non-Release tree are never
    # recorded (the same rule as bench/run_bench.sh).
    if prov.get("build_type") != "Release":
        raise BenchError("%s is a '%s' build; refusing to measure a "
                         "non-Release tree" % (BUILD, prov.get("build_type")))
    return prov


def source_digest():
    """sha256 over the files the build reads, so runs of different
    sources are told apart even where the checkout is not a git repo."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if "__pycache__" in p:
                continue
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(".git"):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() or None


# ---------------------------------------------------------------------------
# Job sets. Each comes from `stsim_runner manifest`; the seed sets every
# job's runSeed, the serve request order and the fork lengths.
# ---------------------------------------------------------------------------

def job_line(job):
    return json.dumps(job, separators=(",", ":"))


def manifest(ctx, suite, insts, warmup):
    rc, out, _ = ctx.procs.run([RUNNER, "manifest", "--suite", suite,
                                "--insts", str(insts), "--warmup",
                                str(warmup)], stderr=ctx.log)
    if rc:
        raise BenchError("stsim_runner manifest --suite %s failed" % suite)
    lines = out.splitlines()
    jobs = [json.loads(line) for line in lines]
    # The benchmark rewrites manifest lines; the round trip must be exact.
    assert all(job_line(j).encode() == line for j, line in zip(jobs, lines))
    return jobs


def seeded(jobs, seed):
    for j in jobs:
        j["cfg"]["runSeed"] = seed % 2**64  # runSeed is unsigned
    return jobs


def fig5_jobs(ctx):
    """Figure 5: 8 benchmarks x {baseline, C1-C6, PG}, 64 jobs."""
    return seeded(manifest(ctx, "fig5", *FIG5), ctx.seed)


def serve_jobs(ctx):
    """8 benchmarks x {baseline, A3, C2, PG} at a few thousand insts,
    each under SERVE_RUN_SEEDS seeded runSeeds (1024 distinct jobs).

    A 3K-instruction job's cost depends on its runSeed: one runSeed per
    (benchmark, experiment) moves a pass's simulated cycles by 6.5%
    (quartile spread over seeds), 32 of them by 1.2%. The first 32
    jobs hold one job per (benchmark, experiment)."""
    pool = manifest(ctx, "fig5", *SERVE_SHORT) + \
        manifest(ctx, "fig3", *SERVE_SHORT)
    by_key = {}
    for j in pool:
        by_key.setdefault((j["cfg"]["benchmark"], j["experiment"]), j)
    benches = [j["cfg"]["benchmark"] for j in pool
               if j["experiment"] == "baseline"][:8]
    rng = random.Random(ctx.seed)
    jobs = []
    for _ in range(SERVE_RUN_SEEDS):
        run_seed = rng.randrange(1, 2**31)
        for b in benches:
            for e in SERVE_EXPERIMENTS:
                j = json.loads(job_line(by_key[(b, e)]))
                j["cfg"]["runSeed"] = run_seed
                jobs.append(j)
    return jobs


def fork_jobs(ctx):
    """Per benchmark, one C2 warmup class (200K warmup) forked into
    seeded run lengths x power idle factors: 8 x 24 = 192 jobs."""
    rng = random.Random(ctx.seed)
    jobs = []
    for tmpl in manifest(ctx, "fig5", FIG5[0], FORK_WARMUP):
        if tmpl["experiment"] != "C2":
            continue
        lengths = sorted(rng.randrange(2_000, 8_001, 100)
                         for _ in range(FORK_LENGTHS))
        for n in lengths:
            for idle in FORK_IDLE_FACTORS:
                j = json.loads(job_line(tmpl))
                j["cfg"]["maxInstructions"] = n
                j["cfg"]["power"]["idleFactor"] = float.hex(idle)
                jobs.append(j)
    return seeded(jobs, ctx.seed)


def probe_jobs(templates, source, make):
    """One job per template benchmark, built by @p make from the
    matching @p source job with the template's run length and seed."""
    by_bench = {j["cfg"]["benchmark"]: j for j in source}
    out, seen = [], set()
    for t in templates:
        b = t["cfg"]["benchmark"]
        if b in seen:
            continue
        seen.add(b)
        j = json.loads(job_line(by_bench[b]))
        for k in ("maxInstructions", "warmupInstructions", "runSeed"):
            j["cfg"][k] = t["cfg"][k]
        out.append(make(j))
    return out


def setup_job(job):
    """@p job cut to one measured instruction and no warmup: what
    remains is the entry point's cost before a job simulates (process
    start, request parse, program build, construction)."""
    j = json.loads(job_line(job))
    j["cfg"]["maxInstructions"] = 1
    j["cfg"]["warmupInstructions"] = 0
    return j


# ---------------------------------------------------------------------------
# Batch entry point: stsim_runner dump
# ---------------------------------------------------------------------------

class Pass:
    def __init__(self, wall, lines, arrivals, rss_mb, trace=None):
        self.wall = wall
        self.lines = lines
        self.arrivals = arrivals
        self.rss_mb = rss_mb
        self.trace = trace


def dump_pass(ctx, manifest_path, memoize, trace=False):
    """One `dump` of the manifest; records are timed as they reach the
    consumer's pipe (latency from submission to each record)."""
    cmd = [RUNNER, "dump", "--manifest", manifest_path,
           "--jobs", str(BATCH_WORKERS)]
    if memoize:
        cmd.append("--memoize-warmup")
    trace_path = ctx.fresh("dump-trace.json") if trace else None
    if trace_path:
        cmd += ["--trace", trace_path]
    t0 = time.perf_counter()
    p = ctx.procs.start(cmd, stdout=subprocess.PIPE, stderr=ctx.log)
    lines, arrivals = [], []
    rss = 0.0
    with p.stdout:
        for line in p.stdout:
            arrivals.append(time.perf_counter() - t0)
            lines.append(line.rstrip(b"\n"))
            rss = peak_rss_mb(p.pid, rss)
    rc = ctx.procs.reap(p)
    wall = time.perf_counter() - t0
    if rc:
        ctx.gate.fail("dump exited with %d" % rc)
    return Pass(wall, lines, arrivals, rss, trace_path)


def dump_lines(ctx, manifest_path, memoize=False):
    return dump_pass(ctx, manifest_path, memoize).lines


def batch_setup_s(ctx, jobs, memoize):
    """Launch of a one-job `dump` until its record arrives; median of
    SETUP_REPS launches."""
    path = ctx.write_jobs("setup.jsonl", [setup_job(jobs[0])])
    firsts = []
    for _ in range(SETUP_REPS):
        p = dump_pass(ctx, path, memoize)
        if len(p.lines) != 1:
            ctx.gate.fail("set-up dump returned %d records for 1 job"
                          % len(p.lines))
        firsts.append(p.arrivals[0] if p.arrivals else p.wall)
    return median(firsts)


def batch_passes(ctx, manifest_path, memoize):
    """Repeat `dump` for the measured time. Traced runs alternate
    untraced and traced passes so both see the same machine state; they
    report no end-to-end metric, so they measure for at most
    TRACED_SECONDS."""
    plain, traced = [], []
    seconds = min(ctx.seconds, TRACED_SECONDS) if ctx.trace else ctx.seconds
    t_end = time.perf_counter() + seconds
    while not plain or time.perf_counter() < t_end or \
            (ctx.trace and not traced):
        tracing = ctx.trace and len(plain) > len(traced)
        p = dump_pass(ctx, manifest_path, memoize, trace=tracing)
        (traced if tracing else plain).append(p)
    return plain, traced


def batch_metrics(jobs, passes):
    """wall_s, jobs_per_s and record arrival times per pass, reported as
    their median over the run's passes; peak RSS over the run.

    `dump` writes records through a block-buffered stdout, so on a pipe
    they arrive in flushes of a few records and the last ones at exit:
    p50_ms is when half the records were in the consumer's hands, and
    p90_ms tracks wall_s."""
    return {"wall_s": per_pass(passes, lambda p: p.wall),
            "jobs_per_s": per_pass(passes, lambda p: len(jobs) / p.wall),
            "p50_ms": per_pass(passes,
                               lambda p: 1e3 * quantile(p.arrivals, 0.50)),
            "p90_ms": per_pass(passes,
                               lambda p: 1e3 * quantile(p.arrivals, 0.90)),
            "peak_rss_mb": max(p.rss_mb for p in passes)}


def per_pass(passes, value):
    """A run's value of a host-time metric: the median of its per-pass
    values. The host's per-vCPU speed swings both ways from one second
    to the next; over the 10 s windows of one long session, the median
    of the passes varied about half as much as their fast quartile."""
    return median([value(p) for p in passes])


# ---------------------------------------------------------------------------
# Serve entry point: stsim_serve with a closed-loop client
# ---------------------------------------------------------------------------

class Conn:
    def __init__(self, sock_path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(sock_path)
        except OSError:
            self.sock.close()
            raise
        # A lost reply must fail the run, not hang the closed loop.
        self.sock.settimeout(60)
        self.rfile = self.sock.makefile("rb")

    def call(self, frame):
        self.sock.sendall(frame)
        return self.rfile.readline().rstrip(b"\n")

    def close(self):
        self.rfile.close()
        self.sock.close()


def frame(job_lines, k, rid):
    return b'{"id":%d,' % rid + job_lines[k][1:] + b"\n"


class Daemon:
    """An in-process stsim_serve on a Unix socket (relative path: the
    checkout's absolute path may exceed the sockaddr limit)."""

    def __init__(self, ctx, trace=False):
        self.ctx = ctx
        self.sock = ctx.fresh("s.sock")
        self.trace = ctx.fresh("serve-trace.json") if trace else None
        cmd = [SERVE, "--unix", self.sock, "--jobs", str(SERVE_WORKERS)]
        if self.trace:
            cmd += ["--trace", self.trace]
        self.t0 = time.perf_counter()
        self.p = ctx.procs.start(cmd, stderr=ctx.log)
        self.conns = []
        deadline = self.t0 + 30
        while True:
            try:
                c = Conn(self.sock)
                if c.call(b'{"op":"ping"}\n').startswith(b'{"pong"'):
                    self.conns.append(c)
                    break
                c.close()
            except OSError:
                pass
            if time.perf_counter() > deadline or self.p.poll() is not None:
                raise BenchError("stsim_serve did not come up")
            time.sleep(0.0005)
        while len(self.conns) < SERVE_CLIENTS:
            self.conns.append(Conn(self.sock))

    def stop(self):
        """SIGTERM drain; returns the daemon's peak RSS in MB."""
        rss = peak_rss_mb(self.p.pid)
        for c in self.conns:
            c.close()
        self.p.send_signal(signal.SIGTERM)
        rc = self.ctx.procs.reap(self.p)
        if rc:
            self.ctx.gate.fail("stsim_serve exited with %d" % rc)
        return rss


def serve_pass(daemon, job_lines, order, first_id):
    """Send @p order (job indices) over the daemon's connections, each
    caller waiting for its reply. Returns (wall s, sent, replies,
    latencies s)."""
    sent = {first_id + i: k for i, k in enumerate(order)}
    todo = iter(sorted(sent.items()))
    lock = threading.Lock()
    replies, lat = [], []
    errors = []

    def client(conn):
        try:
            while True:
                with lock:
                    item = next(todo, None)
                if item is None:
                    return
                rid, k = item
                t0 = time.perf_counter()
                line = conn.call(frame(job_lines, k, rid))
                lat.append(time.perf_counter() - t0)
                replies.append(line)
        except OSError as e:
            errors.append(str(e))

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client, args=(c,))
               for c in daemon.conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    for e in errors:
        daemon.ctx.gate.fail("serve client: " + e)
    return wall, sent, replies, lat


class ServeSession:
    """Passes of the seeded request order against one daemon. A pass
    sends every distinct job once, in a fresh seeded order."""

    def __init__(self, ctx, job_lines, expected, trace=False):
        self.ctx = ctx
        self.job_lines = job_lines
        self.expected = expected
        self.daemon = Daemon(ctx, trace)
        self.passes = []    # (wall s, results, latencies s) per pass
        self.busy = 0
        self.attempted = 0
        self.next_id = 1

    def run(self, order):
        wall, sent, replies, lat = serve_pass(self.daemon, self.job_lines,
                                              order, self.next_id)
        self.next_id += len(order)
        self.ctx.gate.check_replies(sent, replies, self.expected, "serve")
        self.attempted += len(sent)
        self.busy += sum(1 for r in replies
                         if r.startswith(b'{"error":"busy"'))
        ok = sum(1 for r in replies if r.startswith(b'{"index"'))
        self.passes.append((wall, ok, lat))

    def run_for(self, seconds, rng, warm_up=False):
        """Passes for @p seconds; with @p warm_up, one untimed pass
        first, so the first requests' one-off costs (the daemon's first
        program builds, cold caches) stay out of the timed passes."""
        if warm_up:
            self.run(self.order(rng))
            self.passes.clear()
        t_end = time.perf_counter() + seconds
        while not self.passes or time.perf_counter() < t_end:
            self.run(self.order(rng))

    def order(self, rng):
        order = list(range(len(self.job_lines)))
        rng.shuffle(order)
        return order

    def metrics(self):
        """wall_s, jobs_per_s, p50_ms, p90_ms: per-pass values (1024
        latencies a pass), their median over the passes."""
        return {"wall_s": per_pass(self.passes, lambda p: p[0]),
                "jobs_per_s": per_pass(self.passes, lambda p: p[1] / p[0]),
                "p50_ms": per_pass(self.passes,
                                   lambda p: 1e3 * quantile(p[2], 0.50)),
                "p90_ms": per_pass(self.passes,
                                   lambda p: 1e3 * quantile(p[2], 0.90))}

    def stop(self):
        return self.daemon.stop()


def serve_setup_s(ctx, mix):
    """Daemon launch until it has answered a priming pass: one request
    per benchmark and experiment of the mix, cut to one instruction, so
    every program is built and every configuration constructed once.
    Median of SETUP_REPS launches."""
    jobs = [setup_job(j) for j in mix.jobs[:SERVE_KINDS]]
    lines = [job_line(j).encode() for j in jobs]
    expected = dump_lines(ctx, ctx.write_jobs("setup.jsonl", jobs))
    ctx.gate.check_batch(jobs, expected, "serve set-up dump")
    walls = []
    for _ in range(SETUP_REPS):
        session = ServeSession(ctx, lines, expected)
        session.run(list(range(len(lines))))
        walls.append(time.perf_counter() - session.daemon.t0)
        session.stop()
    return median(walls)


# ---------------------------------------------------------------------------
# Traces written by --trace (Chrome trace_event JSON)
# ---------------------------------------------------------------------------

def read_trace(path):
    with open(path) as f:
        doc = json.load(f)
    return doc["traceEvents"], doc.get("otherData", {}).get("dropped", 0)


def pool_busy_us(events):
    """Per-job busy time: the job.warmup, job.measure and job.commit
    spans. Waiting (job.queued, a fork waiting for its class's warmup)
    and the unspanned construct/restore are not busy time."""
    return sum(e["dur"] for e in events
               if e["name"] in ("job.warmup", "job.measure", "job.commit"))


def span_ms(events, name):
    """Mean duration of the named spans. Spans are whole microseconds,
    so a median of few-microsecond spans would read the same every run."""
    d = [e["dur"] / 1e3 for e in events if e["name"] == name]
    return statistics.fmean(d) if d else 0.0


# ---------------------------------------------------------------------------
# Metrics shared by the workloads
# ---------------------------------------------------------------------------

def fidelity(ctx, fig5_records=None):
    """Figure 5 fidelity at this seed, from the given fig5 records or a
    fresh (gated, untimed) `dump` of the Figure 5 matrix."""
    if fig5_records is None:
        jobs = fig5_jobs(ctx)
        lines = dump_lines(ctx, ctx.write_jobs("fig5.jsonl", jobs))
        fig5_records = ctx.gate.check_batch(jobs, lines, "fig5 fidelity")
    avgs = paper.fig5_averages([r for r in fig5_records if r])
    for exp in ("C2", "PG"):
        a = avgs[exp]
        ctx.note("fig5 %s average: speedup %.3f, energy %.1f%%, E-D %.1f%%"
                 % (exp, a["speedup"], a["energy_pct"], a["ed_pct"]))
    ctx.note("paper_gap_pp %.4f, c2_minus_pg_ed_pp %.4f"
             % (paper.paper_gap_pp(avgs), paper.c2_minus_pg_ed_pp(avgs)))
    if ctx.seed == paper.ROADMAP_ITEM1_SEED:
        ctx.note("fig5 averages %s ROADMAP item 1's at the default seed"
                 % ("match" if paper.matches_roadmap_item1(avgs)
                    else "DIFFER FROM"))
    return avgs


def end_to_end_fidelity(avgs):
    return {"paper_gap_pp": paper.paper_gap_pp(avgs),
            "c2_pg_ed_ratio": paper.c2_pg_ed_ratio(avgs)}


def sim_metrics(ctx, jobs, records):
    """Simulated per-layer counts from the workload's own records plus
    probes for the schemes the workload lacks (they repeat exactly)."""
    rs = [r for r in records if r]
    c = lambda k: sum(r["core"][k] for r in rs)  # noqa: E731
    f = lambda r, k: float.fromhex(r[k])  # noqa: E731
    mean = lambda k: statistics.fmean(f(r, k) for r in rs)  # noqa: E731
    m = {
        "pipeline.ipc": mean("ipc"),
        "pipeline.fetched_per_commit": c("fetchedInsts") / c("committedInsts"),
        "pipeline.wrong_path_fetch_frac":
            c("fetchedWrongPath") / c("fetchedInsts"),
        "bpred.cond_miss_rate":
            c("condMispredicts") / c("committedCondBranches"),
        "cache.il1_miss_rate": mean("il1MissRate"),
        "cache.dl1_miss_rate": mean("dl1MissRate"),
        "cache.l2_miss_rate": mean("l2MissRate"),
        "power.avg_w": mean("avgPowerW"),
        "power.wasted_frac": sum(f(r, "wastedEnergyJ") for r in rs) /
        sum(f(r, "energyJ") for r in rs),
    }

    fig5_src = manifest(ctx, "fig5", *FIG5)
    by_exp = {}
    for r in rs:
        by_exp.setdefault(r["experiment"], []).append(r)
    probes = []
    for exp in ("C2", "PG"):
        if exp not in by_exp:
            probes += probe_jobs(jobs, [j for j in fig5_src
                                        if j["experiment"] == exp],
                                 lambda j: j)
    for kind in ("bpru", "jrs"):
        def estimate_only(j, kind=kind):
            j["experiment"] = "conf-" + kind
            j["cfg"]["confKind"] = kind
            return j
        probes += probe_jobs(jobs, [j for j in fig5_src
                                    if j["experiment"] == "baseline"],
                             estimate_only)
    lines = dump_lines(ctx, ctx.write_jobs("probes.jsonl", probes))
    for r in ctx.gate.check_batch(probes, lines, "layer probes"):
        if r:
            by_exp.setdefault(r["experiment"], []).append(r)

    def frac(exp, num, den="cycles"):
        rows = by_exp[exp]
        return sum(r["core"][num] for r in rows) / \
            sum(r["core"][den] for r in rows)
    m["throttle.c2_fetch_throttled_frac"] = frac("C2", "fetchThrottled")
    m["throttle.c2_decode_throttled_frac"] = frac("C2", "decodeThrottled")
    m["throttle.c2_noselect_per_kinst"] = \
        1e3 * frac("C2", "noSelectSkips", "committedInsts")
    m["throttle.pg_gated_frac"] = frac("PG", "fetchThrottled")
    for kind in ("bpru", "jrs"):
        rows = by_exp["conf-" + kind]
        for stat in ("spec", "pvn"):
            m["confidence.%s_%s" % (kind, stat)] = 100.0 * statistics.fmean(
                f(r, stat) for r in rows)
    return m


def layer_harness(ctx, manifest_path, memoize, serve_manifest):
    out = ctx.fresh("inproc.jsonl")
    cmd = [LAYERS, "--manifest", manifest_path, "--records-out", out,
           "--serve-manifest", serve_manifest]
    if memoize:
        cmd.append("--memoize")
    rc, stdout, _ = ctx.procs.run(cmd, stderr=ctx.log)
    if rc:
        raise BenchError("perfbench_layers failed")
    m = json.loads(stdout.splitlines()[-1])
    with open(out, "rb") as f:
        inproc = f.read().splitlines()
    return m, inproc


def isolate_hop_ms(ctx, job_lines, expected):
    """The --isolate hop: a request's round trip through a bare
    `serve-worker` pipe less its service. The difference of two ~2 ms
    medians is below their noise, so the hop is timed on pings (the
    same pipe, no simulation); every job is also sent once and gated."""
    p = ctx.procs.start([RUNNER, "serve-worker"], stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE, stderr=ctx.log)
    p.stdout.readline()  # hello

    def call(line):
        t0 = time.perf_counter()
        p.stdin.write(line)
        p.stdin.flush()
        reply = p.stdout.readline().rstrip(b"\n")
        return reply, time.perf_counter() - t0

    sent = {k + 1: k for k in range(len(job_lines))}
    replies = [call(frame(job_lines, k, rid))[0] for rid, k in sent.items()]
    lat = [call(b'{"op":"ping"}\n')[1] for _ in range(200)]
    p.stdin.close()
    p.stdout.close()
    rc = ctx.procs.reap(p)
    if rc:
        ctx.gate.fail("serve-worker exited with %d" % rc)
    ctx.gate.check_replies(sent, replies, expected, "serve-worker")
    return 1e3 * median(lat)


def dispatch_hop_ms(ctx, manifest_path, expected):
    """`dispatch` over 4 shards minus `dump` of the same jobs."""
    hops = []
    for _ in range(3):
        t_dump = dump_pass(ctx, manifest_path, False).wall
        d = ctx.fresh("dispatch")
        rc, _, wall = ctx.procs.run(
            [RUNNER, "dispatch", "--manifest", manifest_path, "--dir", d,
             "--shards", "4", "--jobs", "1"], stderr=ctx.log)
        if rc:
            ctx.gate.fail("dispatch exited with %d" % rc)
        hops.append(1e3 * (wall - t_dump))
        merged = os.path.join(d, "merged.jsonl")
        shards = sorted(os.path.join(d, n) for n in os.listdir(d)
                        if n.startswith("shard-") and n.endswith(".jsonl"))
        ctx.procs.run([RUNNER, "merge", "--manifest", manifest_path,
                       "--out", merged] + shards, stderr=ctx.log)
        with open(merged, "rb") as f:
            ctx.gate.check_identical(expected, f.read().splitlines(),
                                     "dispatch")
    return median(hops)


def serve_layers(ctx, session, service_ms):
    """Per-layer serve numbers from a traced session (already run)."""
    events, dropped = read_trace(session.daemon.trace)
    return {
        "serve.service_ms": service_ms,
        "serve.overhead_ms": session.metrics()["p50_ms"] - service_ms,
        "serve.queue_wait_ms": span_ms(events, "serve.queue_wait"),
        "serve.reply_flush_ms": span_ms(events, "serve.reply_flush"),
        "serve.busy_frac": session.busy / session.attempted,
    }, dropped


class ServeMix:
    """The serve-short request mix, its files and its `dump` records."""

    def __init__(self, ctx):
        self.jobs = serve_jobs(ctx)
        self.path = ctx.write_jobs("serve.jsonl", self.jobs)
        self.lines = [job_line(j).encode() for j in self.jobs]
        self.expected = dump_lines(ctx, self.path)
        self.records = ctx.gate.check_batch(self.jobs, self.expected,
                                            "serve dump")
        # One job per (benchmark, experiment): the probes' job set.
        self.kinds_path = ctx.write_jobs("serve-kinds.jsonl",
                                         self.jobs[:SERVE_KINDS])


def common_layers(ctx, jobs, manifest_path, memoize, records, ref_lines,
                  mix):
    """Per-layer metrics every traced run reports, whatever its
    workload: the in-process harness, simulated counts, the serve
    service time over the whole serve mix, the two process hops (on one
    job per benchmark and experiment of the mix) and the C2-vs-PG
    fidelity."""
    m, inproc = layer_harness(ctx, manifest_path, memoize, mix.path)
    ctx.gate.check_identical(ref_lines, inproc, "in-process runJobs")
    m.update(sim_metrics(ctx, jobs, records))
    m["serve.isolate_hop_ms"] = isolate_hop_ms(
        ctx, mix.lines[:SERVE_KINDS], mix.expected)
    m["dist.dispatch_hop_ms"] = dispatch_hop_ms(
        ctx, mix.kinds_path, mix.expected[:SERVE_KINDS])
    avgs = fidelity(ctx, records if ctx.workload == "fig5-sweep" else None)
    m["c2_minus_pg_ed_pp"] = paper.c2_minus_pg_ed_pp(avgs)
    return m


def overhead_pct(traced_walls, plain_walls):
    return 100.0 * (median(traced_walls) / median(plain_walls) - 1.0)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def batch_workload(ctx, jobs, memoize):
    path = ctx.write_jobs("jobs.jsonl", jobs)
    setup = batch_setup_s(ctx, jobs, memoize)
    stolen = steal_s()
    plain, traced = batch_passes(ctx, path, memoize)
    stolen = steal_s() - stolen
    ref = plain[0].lines
    records = ctx.gate.check_batch(jobs, ref, "dump")
    for p in plain[1:]:
        ctx.gate.check_identical(ref, p.lines, "repeated dump")
    for p in traced:
        ctx.gate.check_identical(ref, p.lines, "traced dump")
    if memoize:
        scratch = dump_lines(ctx, path, memoize=False)
        ctx.gate.check_identical(scratch, ref, "memoized vs from-scratch")

    if not ctx.trace:
        m = {"setup_s": setup}
        m.update(batch_metrics(jobs, plain))
        ctx.note("%d passes of %d jobs, walls %s, peak RSS MB %s, "
                 "host steal %.2f s"
                 % (len(plain), len(jobs), [p.wall for p in plain],
                    [p.rss_mb for p in plain], stolen))
        fig5 = records if ctx.workload == "fig5-sweep" else None
        m.update(end_to_end_fidelity(fidelity(ctx, fig5)))
        return m

    mix = ServeMix(ctx)
    m = common_layers(ctx, jobs, path, memoize, records, ref, mix)
    dropped, busy = 0, []
    for p in traced:
        events, d = read_trace(p.trace)
        dropped += d
        busy.append(pool_busy_us(events) / 1e6 / (BATCH_WORKERS * p.wall))
    m["core.pool_efficiency"] = median(busy)
    m["obs.trace_overhead_pct"] = overhead_pct(
        [p.wall for p in traced], [p.wall for p in plain])
    # This workload does not exercise the serve layer: one traced pass
    # of the serve-short mix measures it.
    session = ServeSession(ctx, mix.lines, mix.expected, trace=True)
    session.run_for(0, random.Random(ctx.seed))
    session.stop()
    serve_m, d = serve_layers(ctx, session, m["serve.service_ms"])
    m.update(serve_m)
    m["obs.trace_dropped"] = dropped + d
    return m


def fig5_sweep(ctx):
    return batch_workload(ctx, fig5_jobs(ctx), memoize=False)


def warm_fork(ctx):
    return batch_workload(ctx, fork_jobs(ctx), memoize=True)


def serve_short(ctx):
    mix = ServeMix(ctx)
    order_rng = random.Random(ctx.seed)

    if not ctx.trace:
        setup = serve_setup_s(ctx, mix)
        session = ServeSession(ctx, mix.lines, mix.expected)
        stolen = steal_s()
        session.run_for(ctx.seconds, order_rng, warm_up=True)
        stolen = steal_s() - stolen
        rss = session.stop()
        m = {"setup_s": setup, "peak_rss_mb": rss}
        m.update(session.metrics())
        ctx.note("%d passes of %d requests, walls %s, host steal %.2f s"
                 % (len(session.passes), len(mix.jobs),
                    [p[0] for p in session.passes], stolen))
        m.update(end_to_end_fidelity(fidelity(ctx)))
        return m

    # Untraced and traced sessions of equal length; the traced one is
    # short enough that no per-thread trace ring fills.
    half = min(ctx.seconds / 2.0, 3.0)
    plain = ServeSession(ctx, mix.lines, mix.expected)
    plain.run_for(half, order_rng)
    plain.stop()
    traced = ServeSession(ctx, mix.lines, mix.expected, trace=True)
    traced.run_for(half, order_rng)
    traced.stop()
    m = common_layers(ctx, mix.jobs, mix.path, False, mix.records,
                      mix.expected, mix)
    serve_m, dropped = serve_layers(ctx, traced, m["serve.service_ms"])
    m.update(serve_m)
    m["core.pool_efficiency"] = pool_efficiency_serve(traced)
    m["obs.trace_dropped"] = dropped
    m["obs.trace_overhead_pct"] = overhead_pct(
        [p[0] for p in traced.passes], [p[0] for p in plain.passes])
    return m


def pool_efficiency_serve(session):
    """Daemon worker utilization: serve.sim busy time over workers x
    the traced session's pass time."""
    events, _ = read_trace(session.daemon.trace)
    busy = sum(e["dur"] for e in events if e["name"] == "serve.sim") / 1e6
    return busy / (SERVE_WORKERS * sum(p[0] for p in session.passes))


WORKLOADS = {"fig5-sweep": fig5_sweep, "serve-short": serve_short,
             "warm-fork": warm_fork}


# ---------------------------------------------------------------------------

def declared(spec, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)

    ctx = None
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        prov = build()
        prov.update(commit=git_commit(), source=source_digest(),
                    nproc=os.cpu_count(), seed=args.seed,
                    workload=args.workload, trace=args.trace)
        print("perfbench: provenance " + json.dumps(prov, sort_keys=True),
              flush=True)
        ctx = Ctx(args)
        os.makedirs(ctx.dir)
        # The parsed records are large and acyclic: a full collection
        # over them takes about 8 ms, which would read as latency.
        gc.disable()
        values = WORKLOADS[args.workload](ctx)
    except BenchError as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        return 2
    finally:
        gc.enable()
        if ctx:
            ctx.procs.stop_all()
            ctx.log.close()
            shutil.rmtree(ctx.dir, ignore_errors=True)

    units = declared(spec, args.trace)
    if set(values) != set(units):
        print("perfbench: error: metrics %s do not match BENCHMARK.json %s"
              % (sorted(values), sorted(units)), file=sys.stderr)
        return 2
    g = ctx.gate
    for p in g.problems:
        print("perfbench: FAILED " + p, file=sys.stderr)
    result = {"correct": g.failed == 0, "attempted": g.attempted,
              "failed": g.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in sorted(values)}}
    print(json.dumps(result), flush=True)
    return 0 if g.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
