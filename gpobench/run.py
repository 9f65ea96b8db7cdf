#!/usr/bin/env python3
"""gpobench: the repository benchmark.

Builds `julie` and the in-process probe from the checkout it lives in, runs
one workload for a fixed time and prints, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 gpobench/run.py --workload gpo_ladder --seed 1 --seconds 30 --trace 0
    python3 gpobench/run.py --workload portfolio_serve --steady 5 --seconds 30

--trace 0 drives `julie` as child processes and reports the end-to-end
metrics; --trace 1 adds the in-process probe (gpobench_probe) and reports the
per-layer metrics. --steady N re-runs the workload N times with seeds
seed..seed+N-1 and prints each end-to-end metric's median, quartiles and
spread against its bound in BENCHMARK.json. The cell workloads' end-to-end
times are scaled by the host's speed during the run (HostSpeed). Cells, job
mix, rates and the expected verdicts live in gpobench/workloads.json; see
gpobench/README.md.
"""
import argparse
import hashlib
import json
import math
import os
import random
import re
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gpo_ladder", "explicit_reach", "portfolio_serve")

# How the run samples, as opposed to what it runs (workloads.json). setup_s
# samples are spread over the whole run (a trivial cell before each cell,
# serve spawns before each burst), so that a slow stretch of the host moves
# a few of them, not all.
SETUP_SPAWNS_PER_BURST = 3       # serve spawn-to-READY samples per burst
SECONDS_PER_BURST = 1.5          # one open-loop segment plus one burst
LATENCY_WINDOWS = 10             # windows of the serve latencies, see windowed
REF_KEYS = 100000                # size of host_ref()'s work
REF_SECONDS = 0.045              # host_ref() on the host that set the bounds
REF_ELASTICITY = 0.5             # share of host_ref()'s drift that julie shows

# name -> unit. Every --trace 0 result carries all END_TO_END metrics, every
# --trace 1 result all PER_LAYER metrics; a layer a workload does not run
# reports 0 (no work), see README.md.
END_TO_END = {
    "wall_s": "s",
    "cell_geomean_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "job_latency_p50_ms": "ms",
    "job_latency_p99_ms": "ms",
    "jobs_per_s": "jobs/s",
}
SERVICE_ENGINES = ("gpo-intern", "por", "bdd", "unfold")
PER_LAYER = {
    "cli.outside_engine_ms": "ms", "cli.cpu_s": "s", "cli.self_ms": "ms",
    "petri.conflict_ms": "ms", "petri.successor_ns": "ns",
    "petri.self_ms": "ms",
    "util.marking_hash_ns": "ns", "util.self_ms": "ms",
    "core.r0_ms": "ms", "core.run_gpo_ms": "ms",
    "core.reduced_search_ms": "ms", "core.ignoring_guard_ms": "ms",
    "core.delegated_search_ms": "ms", "core.mcs_ms": "ms",
    "core.family_ops_ms": "ms", "core.unattributed_ms": "ms",
    "core.gpn_states": "count", "core.multiple_steps": "count",
    "core.self_ms": "ms",
    "bdd.family_nodes": "count", "bdd.families_bytes": "B",
    "bdd.cache_hit_ratio": "ratio", "bdd.cache_lookups": "count",
    "bdd.cache_evictions": "count", "bdd.symbolic_ms": "ms",
    "bdd.symbolic_peak_nodes": "count", "bdd.symbolic_iterations": "count",
    "bdd.self_ms": "ms",
    "reach.explore_ms": "ms", "reach.states_per_s": "states/s",
    "reach.edges_per_s": "edges/s", "reach.teardown_ms": "ms",
    "reach.speedup_4t": "x", "reach.steals": "count", "reach.self_ms": "ms",
    "por.explore_ms": "ms", "por.states_per_s": "states/s",
    "por.states": "count", "por.self_ms": "ms",
    "service.queue_wait_p50_ms": "ms", "service.queue_wait_p99_ms": "ms",
    "service.cancel_latency_p99_ms": "ms",
    "service.useful_racer_ratio": "ratio", "service.racers_started": "count",
    **{f"service.wins.{e}": "count" for e in SERVICE_ENGINES},
    **{f"service.racer_p50_ms.{e}": "ms" for e in SERVICE_ENGINES},
    "service.generator_lag_ms": "ms", "service.self_ms": "ms",
    "obs.trace_overhead_ratio": "ratio",
}

ENGINE_LINE = re.compile(
    r"^\s*(\S+): (?:states=(\S+) )?(?:peak-bdd=\d+ )?(DEADLOCK|no deadlock)"
    r"\s+\((\S+)s\)\s*$")
VERDICT_LINE = re.compile(
    r"^VERDICT (\d+) (\S+) winner=(\S+) seconds=(\S+) cancel-latency=(\S+)(.*)$")


def die(msg, code=2):
    print(f"gpobench: {msg}", file=sys.stderr)
    sys.exit(code)


def note(msg):
    print(f"gpobench: {msg}", file=sys.stderr, flush=True)


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- build and stamp ---------------------------------------------------------

def run_quiet(argv, log):
    with open(log, "a") as out:
        rc = subprocess.call(argv, stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log) as f:
            tail = f.read()[-3000:]
        die(f"{' '.join(argv)} failed (rc={rc}); log {log}:\n{tail}")


def build(build_dir):
    """Configures (once) and builds julie and the probe; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "cli", "julie_main.cpp"))):
        die(f"{ROOT} holds no repository sources to build julie from")
    repo = os.path.abspath(build_dir)
    probe = os.path.join(ROOT, ".bench_build", "probe")
    os.makedirs(repo, exist_ok=True)
    os.makedirs(probe, exist_ok=True)
    # Keeps the compiler's temporary files inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    log = os.path.join(probe, "build.log")
    if not os.path.isfile(os.path.join(repo, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", repo,
                   "-DCMAKE_BUILD_TYPE=Release"], log)
    run_quiet(["cmake", "--build", repo, "-j4", "--target", "julie"], log)
    # Re-configured every time: the probe links whatever gpo_* libraries the
    # repository build holds now.
    run_quiet(["cmake", "-S", HERE, "-B", probe, "-DCMAKE_BUILD_TYPE=Release",
               f"-DGPO_REPO_BUILD={repo}"], log)
    run_quiet(["cmake", "--build", probe, "-j4"], log)
    return (os.path.join(repo, "src", "cli", "julie"),
            os.path.join(probe, "gpobench_probe"), repo)


def cmake_cache(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def compiler_of(build_dir):
    files = os.path.join(build_dir, "CMakeFiles")
    for d in sorted(os.listdir(files)):
        path = os.path.join(files, d, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            with open(path) as f:
                text = f.read()
            cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
            ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
            return f"{cid.group(1) if cid else '?'} {ver.group(1) if ver else '?'}"
    return "unknown"


def cpu_quota():
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            quota, period = f.read().split()
        return "none" if quota == "max" else f"{int(quota) / int(period):g} CPUs"
    except (OSError, ValueError):
        pass
    try:
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as f:
            quota = int(f.read())
        with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as f:
            period = int(f.read())
        return "none" if quota < 0 else f"{quota / period:g} CPUs"
    except (OSError, ValueError):
        return "none"


def stamp(julie, build_dir):
    """Host and build stamp; refuses Debug and sanitizer builds."""
    cache = cmake_cache(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", f"CMAKE_CXX_FLAGS_{build_type.upper()}"))
    if build_type not in ("Release", "RelWithDebInfo", "MinSizeRel"):
        die(f"refusing to measure a '{build_type or 'unset'}' build")
    if cache.get("GPO_SANITIZE") or "-fsanitize" in flags:
        die("refusing to measure a sanitizer build")
    with open(julie, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cpu_quota(),
        "compiler": compiler_of(build_dir),
        "build_type": build_type,
        "julie_sha256": digest[:16],
    }


# -- host speed --------------------------------------------------------------

def host_ref():
    """Seconds that a fixed piece of dict work, which shares no code with
    the repository, takes in this process right now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(REF_KEYS):
        table[(i * 2654435761) & 0xFFFFF] = i
    hits = 0
    for i in range(REF_KEYS):
        hits += (i * 2654435761) & 0xFFFFF in table
    took = time.perf_counter() - t0
    if hits != REF_KEYS:
        die(f"host reference found {hits} of {REF_KEYS} keys", 1)
    return took


class HostSpeed:
    """The speed of the host during one cell-workload run. The host drifts by
    15-25% over tens of seconds, all cells of a pass together, so every
    end-to-end time is divided by the speed, (median host_ref() time /
    REF_SECONDS) ** REF_ELASTICITY, and every rate multiplied by it: the
    metrics read as on a host where host_ref() takes REF_SECONDS (README.md,
    "Host speed"). Samples are taken between the measured children, never
    beside one."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(host_ref())

    def scaled(self, metrics):
        ratio = statistics.median(self.samples) / REF_SECONDS
        speed = ratio ** REF_ELASTICITY
        note(f"host speed {speed:.4f} from {len(self.samples)} samples; "
             "unscaled: " + ", ".join(
                 f"{n}={v:.6g}" for n, v in metrics.items()))
        power = {"s": -1, "ms": -1, "jobs/s": 1}
        return {n: v * speed ** power.get(END_TO_END[n], 0)
                for n, v in metrics.items()}


# -- child processes ---------------------------------------------------------

class Child:
    def __init__(self, argv):
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        self.output = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        self.wall = time.perf_counter() - t0
        self.rc = os.waitstatus_to_exitcode(status)
        p.returncode = self.rc
        self.start = t0
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0


def cell_name(cell):
    return " ".join([cell["model"], cell["engine"], *cell["flags"]])


def check_cell(cell, child, models):
    """Returns (engine seconds, failure reason or None)."""
    want = models[cell["model"]]["verdict"]
    want_rc = 10 if want == "deadlock" else 0
    engine_s, found = None, None
    for line in child.output.splitlines():
        if "failed:" in line or "ABORTED" in line or "undecided" in line:
            return None, line.strip()
        m = ENGINE_LINE.match(line)
        if m and m.group(1) == cell["engine"]:
            found, engine_s = m, float(m.group(4))
    if found is None:
        return None, f"no verdict line (rc={child.rc}): {child.output[-200:]!r}"
    verdict = "deadlock" if found.group(3) == "DEADLOCK" else "no-deadlock"
    if verdict != want:
        return engine_s, f"verdict {verdict}, expected {want}"
    if found.group(2) != format(cell["states"], ".6g"):
        return engine_s, f"states {found.group(2)}, expected {cell['states']}"
    if child.rc != want_rc:
        return engine_s, f"exit code {child.rc}, expected {want_rc}"
    return engine_s, None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            note(f"FAIL {what}: {reason}")


def cell_argv(julie, cell):
    return [julie, "--model", cell["model"], "--engine", cell["engine"],
            "--quiet", *cell["flags"]]


def setup_cell(julie, data, tally, setups, speed):
    """Samples the host's speed, then runs the trivial cell twice and keeps
    the second, whose wall time is the fixed cost of a cell. The first one
    absorbs what the cell before it left behind (cold caches, freed memory):
    on the host that set the bounds it took 25% longer, and varied more, than
    one run right after it."""
    speed.sample()
    cell = data["setup_cell"]
    for _ in range(2):
        c = Child(cell_argv(julie, cell))
        tally.record("setup " + cell_name(cell),
                     check_cell(cell, c, data["models"])[1])
    setups.append(c)


def run_pass(julie, data, cells, tally, spans, t_origin, setups, speed):
    models = data["models"]
    rows = []
    for cell in cells:
        setup_cell(julie, data, tally, setups, speed)
        c = Child(cell_argv(julie, cell))
        engine_s, reason = check_cell(cell, c, models)
        tally.record(cell_name(cell), reason)
        rows.append((c, engine_s or 0.0))
        spans.append({"name": "cli/julie " + cell_name(cell), "ph": "X",
                      "pid": 0, "tid": 0,
                      "ts": (c.start - t_origin) * 1e6, "dur": c.wall * 1e6})
    return rows


def workload_cells(args, data):
    """The cells of a run. `traced_cells` join only the traced run: the
    4-thread explorer cell's wall time moved by 0.30 IQR/median from one pass
    to the next with the host's scheduling, so it feeds reach.speedup_4t
    and no end-to-end metric."""
    wl = data[args.workload]
    return wl["cells"] + (wl.get("traced_cells", []) if args.trace else [])


def cell_workload(args, julie, data, tally, spans, t_origin):
    cells = workload_cells(args, data)
    deadline = time.perf_counter() + args.seconds
    passes, setups, speed = [], [], HostSpeed()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(julie, data, cells, tally, spans, t_origin,
                               setups, speed))
        took = time.perf_counter() - t0
        if args.trace or time.perf_counter() + took > deadline:
            break
    medians = [statistics.median(row[i][0].wall for row in passes)
               for i in range(len(cells))]
    rss = max([c.rss_mb for c in setups] +
              [c.rss_mb for row in passes for c, _ in row])
    # One job here is one pass over the cells, so these three metrics restate
    # wall_s (README.md). Quantiles over the cells would each rest on one or
    # two cells, which moved by 0.2-0.3 IQR/median from run to run.
    jobs = [sum(c.wall for c, _ in row) for row in passes]
    metrics = {
        "wall_s": sum(medians),
        "cell_geomean_ms": geomean(medians) * 1e3,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(c.wall for c in setups),
        "job_latency_p50_ms": statistics.median(jobs) * 1e3,
        "job_latency_p99_ms": quantile(jobs, 0.99) * 1e3,
        "jobs_per_s": len(jobs) / sum(jobs),
    }
    note(f"{args.workload}: {len(passes)} passes of {len(cells)} cells; "
         "per-cell median ms: " + ", ".join(
             f"{cell_name(c)}={m * 1e3:.1f}" for c, m in zip(cells, medians)))
    return speed.scaled(metrics), passes


# -- portfolio_serve ---------------------------------------------------------

class Server:
    """One `julie serve` child driven over its stdin/stdout pipes from a
    single-threaded select loop."""

    def __init__(self, julie, pool, log):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [julie, "serve", "--pool-threads", str(pool)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log)
        self.out_fd = self.proc.stdout.fileno()
        os.set_blocking(self.out_fd, False)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.out_fd, selectors.EVENT_READ)
        self.buf = b""
        self.eof = False
        self.t_ready = None
        self.verdicts = {}  # job id -> (read time, verdict, winner, seconds, tail)
        self.errors = []
        self.bye = None

    def pump(self, timeout):
        if self.eof:
            time.sleep(max(timeout, 0))
            return
        if not self.sel.select(max(timeout, 0)):
            return
        t = time.perf_counter()
        data = os.read(self.out_fd, 1 << 16)
        if not data:
            self.eof = True
            return
        self.buf += data
        *lines, self.buf = self.buf.split(b"\n")
        for raw in lines:
            line = raw.decode()
            if line.startswith("VERDICT "):
                m = VERDICT_LINE.match(line)
                if m is None:
                    self.errors.append(line)
                    continue
                self.verdicts[int(m.group(1))] = (
                    t, m.group(2), m.group(3), float(m.group(4)), m.group(6))
            elif line.startswith("READY"):
                self.t_ready = t
            elif line.startswith("BYE"):
                self.bye = line
            elif line.startswith("ERR"):
                self.errors.append(line)

    def wait_for(self, predicate, limit_s):
        end = time.perf_counter() + limit_s
        while not predicate():
            now = time.perf_counter()
            if now > end or self.eof:
                return False
            self.pump(min(0.5, end - now))
        return True

    def send(self, text):
        data = text.encode()
        while data:
            n = os.write(self.proc.stdin.fileno(), data)
            data = data[n:]

    def close(self):
        """QUIT, drain to EOF, reap; returns the child's rusage."""
        try:
            self.send("QUIT\n")
            self.proc.stdin.close()
        except OSError:
            pass
        self.wait_for(lambda: False, 60)
        self.sel.close()
        self.proc.stdout.close()
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return ru


def job_mix(rng, wl, n):
    """n jobs in which each model's share is fixed by its weight; the seed
    only orders them. Heavy models are spread one per block of jobs, so the
    seed cannot bunch them up."""
    mix = wl["mix"]
    total = sum(m["weight"] for m in mix)
    exact = [n * m["weight"] / total for m in mix]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(mix)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    heavy, light = [], []
    for m, c in zip(mix, counts):
        (heavy if m.get("heavy") else light).extend([m["model"]] * c)
    rng.shuffle(heavy)
    rng.shuffle(light)
    block = n / max(len(heavy), 1)
    at = {int(k * block) + rng.randrange(max(int(block), 1))
          for k in range(len(heavy))}
    heavy_it, light_it = iter(heavy), iter(light)
    return [next(heavy_it) if i in at else next(light_it) for i in range(n)]


def windowed(lat, stat):
    """Median over LATENCY_WINDOWS consecutive windows of stat(window), so
    that a slow stretch of the host moves one window, not the whole result.
    On a shared 4-vCPU host the open-loop p50 of one 2 s segment ranged from
    2.5 to 11 ms within a run."""
    size = len(lat) // LATENCY_WINDOWS
    return statistics.median(stat(lat[k * size:(k + 1) * size])
                             for k in range(LATENCY_WINDOWS))


def job_line(model, wl):
    """The manifest job line of one job (what follows CHECK on the wire)."""
    return f"{model} {wl['job_flags']}".rstrip()


def check_verdicts(srv, ids, jobs, models, tally):
    for i, model in zip(ids, jobs):
        got = srv.verdicts.get(i)
        want = models[model]["verdict"]
        if got is None:
            tally.record(f"job {i} {model}", "no VERDICT line")
        elif got[1] != want or got[2] == "-" or "error=" in got[4]:
            tally.record(f"job {i} {model}",
                         f"verdict {got[1]} winner={got[2]}{got[4]}, "
                         f"expected {want}")
        else:
            tally.record(f"job {i} {model}", None)


def serve_workload(args, julie, data, tally, spans, t_origin):
    wl = data["portfolio_serve"]
    models = data["models"]
    log = open(os.path.join(ROOT, ".bench_build", "serve-stderr.log"), "w")
    try:
        setups = []

        def spawn_setup():
            s = Server(julie, wl["pool_threads"], log)
            ok = s.wait_for(lambda: s.t_ready is not None, 30)
            s.close()
            tally.record("serve start", None if ok else "no READY line")
            if ok:
                setups.append(s.t_ready - s.t_spawn)

        rng = random.Random(args.seed)
        jobs = job_mix(rng, wl, wl["open_loop_jobs"])
        rate = wl["rate_per_s"]
        # The burst count follows from --seconds alone, so every run serves
        # the same number of jobs (the server's memory grows with jobs
        # served). Open-loop segments, set-up spawns and bursts alternate, so
        # that each samples the host over the whole run, not one end of it.
        n_bursts = 1 if args.trace else max(1, int(
            (args.seconds - len(jobs) / rate) / SECONDS_PER_BURST))
        segment = math.ceil(len(jobs) / n_bursts)
        srv = Server(julie, wl["pool_threads"], log)
        if not srv.wait_for(lambda: srv.t_ready is not None, 30):
            srv.close()
            die("julie serve printed no READY line", 1)
        lat, outside, verdict_s, lags, due_offsets, bursts = [], [], [], [], [], []
        next_id = 0
        for k in range(n_bursts):
            # Open loop: job j is due at t0 + j / rate, whether or not the
            # server kept up; latency runs from the due time.
            part = jobs[k * segment:(k + 1) * segment]
            ids = range(next_id, next_id + len(part))
            next_id += len(part)
            t0 = time.perf_counter() + 0.05
            due = [t0 + j / rate for j in range(len(part))]
            for j, model in enumerate(part):
                while (now := time.perf_counter()) < due[j]:
                    srv.pump(due[j] - now)
                srv.send(f"CHECK {job_line(model, wl)}\n")
                lags.append(time.perf_counter() - due[j])
            srv.wait_for(lambda: all(i in srv.verdicts for i in ids), 120)
            check_verdicts(srv, ids, part, models, tally)
            for i, d in zip(ids, due):
                if i in srv.verdicts:
                    t, _, _, seconds, _ = srv.verdicts[i]
                    lat.append(t - d)
                    outside.append(t - d - seconds)
                    verdict_s.append(seconds)
            due_offsets += [d - t0 for d in due]
            spans.append({"name": "cli/serve open-loop", "ph": "X", "pid": 0,
                          "tid": 0, "ts": (t0 - t_origin) * 1e6,
                          "dur": (time.perf_counter() - t0) * 1e6})

            # The serve child has answered every job sent so far, so a second
            # one starting beside it finds the host nearly idle.
            for _ in range(SETUP_SPAWNS_PER_BURST):
                spawn_setup()

            # Saturating burst: every job of the burst written at once.
            burst = job_mix(rng, wl, wl["burst_jobs"])
            ids = range(next_id, next_id + len(burst))
            next_id += len(burst)
            tb = time.perf_counter()
            srv.send("".join(f"CHECK {job_line(m, wl)}\n" for m in burst))
            srv.wait_for(lambda: all(i in srv.verdicts for i in ids), 120)
            check_verdicts(srv, ids, burst, models, tally)
            done = [srv.verdicts[i][0] for i in ids if i in srv.verdicts]
            took = (max(done) if done else time.perf_counter()) - tb
            bursts.append(took)
            spans.append({"name": "cli/serve burst", "ph": "X", "pid": 0,
                          "tid": 0, "ts": (tb - t_origin) * 1e6,
                          "dur": took * 1e6})
        for e in srv.errors:
            tally.record("serve", e)
        ru = srv.close()
        tally.record("serve exit",
                     None if srv.proc.returncode == 0 and srv.bye
                     else f"rc={srv.proc.returncode} bye={srv.bye!r}")
    finally:
        log.close()
    if not lat:
        die("no job completed", 1)
    note(f"portfolio_serve: {len(lat)} open-loop jobs at {rate}/s, "
         f"{len(bursts)} bursts of {wl['burst_jobs']}; generator lag p99 "
         f"{quantile(lags, 0.99) * 1e3:.3f} ms, max {max(lags) * 1e3:.3f} ms")
    note("burst seconds: " + ", ".join(f"{b:.3f}" for b in bursts))
    print(f"# job_latency samples={len(lat)}")
    # Burst times are bimodal on some hosts (about 0.75 s or 1.05 s for the
    # same jobs); a mean over the bursts moves with the share of slow ones,
    # where a median would jump between the modes.
    metrics = {
        "wall_s": statistics.fmean(bursts),
        "cell_geomean_ms": windowed(
            lat, lambda w: geomean([max(x, 1e-6) for x in w])) * 1e3,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
        "job_latency_p50_ms": windowed(lat, lambda w: quantile(w, 0.5)) * 1e3,
        "job_latency_p99_ms": windowed(lat, lambda w: quantile(w, 0.99)) * 1e3,
        "jobs_per_s": wl["burst_jobs"] * len(bursts) / sum(bursts),
    }
    extra = {
        "lags": lags, "outside": outside, "verdict_s": verdict_s,
        "cpu_s": ru.ru_utime + ru.ru_stime, "jobs": jobs,
        "due_offsets": due_offsets,
    }
    return metrics, extra


# -- traced run ----------------------------------------------------------------

def run_probe(probe, argv, trace_path, tally, models_of_checks):
    out = subprocess.run([probe, argv[0], trace_path, *argv[1:]],
                         capture_output=True, text=True)
    if out.returncode != 0:
        die(f"probe failed (rc={out.returncode}): {out.stderr[-2000:]}", 1)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    for check, (what, want_verdict, want_states) in zip(doc["checks"],
                                                         models_of_checks):
        reason = None
        if check["verdict"] != want_verdict:
            reason = f"verdict {check['verdict']}, expected {want_verdict}"
        elif want_states is not None and check["states"] != want_states:
            reason = f"states {check['states']:g}, expected {want_states}"
        tally.record("probe " + what, reason)
    if len(doc["checks"]) != len(models_of_checks):
        tally.record("probe", f"{len(doc['checks'])} checks, expected "
                     f"{len(models_of_checks)}")
    return doc["metrics"]


def probe_cell(cell):
    parts = [cell["model"], cell["engine"]]
    flags = cell["flags"]
    for i, flag in enumerate(flags[:-1]):
        if flag == "--family-store":
            parts.append("store=" + flags[i + 1])
        elif flag == "--threads":
            parts.append("threads=" + flags[i + 1])
    return ",".join(parts)


def traced_layers(args, probe, data, tally, result, spans):
    """Per-layer metrics of one traced run; unexercised layers read 0."""
    layer = {name: 0.0 for name in PER_LAYER}
    models = data["models"]
    trace_dir = os.path.join(ROOT, ".bench_build", "trace")
    os.makedirs(trace_dir, exist_ok=True)
    probe_trace = os.path.join(trace_dir, f"probe-{args.workload}.json")

    if args.workload == "portfolio_serve":
        wl = data["portfolio_serve"]
        extra = result
        job_file = os.path.join(trace_dir, "jobs.txt")
        with open(job_file, "w") as f:
            for d, model in zip(extra["due_offsets"], extra["jobs"]):
                f.write(f"{d:.6f} {job_line(model, wl)}\n")
        checks = [(m, models[m]["verdict"], None) for m in extra["jobs"]]
        pm = run_probe(probe, ["serve", str(wl["pool_threads"]), job_file],
                       probe_trace, tally, checks)
        layer["cli.outside_engine_ms"] = statistics.median(extra["outside"]) * 1e3
        layer["cli.cpu_s"] = extra["cpu_s"]
        layer["service.generator_lag_ms"] = quantile(extra["lags"], 0.99) * 1e3
        layer["obs.trace_overhead_ratio"] = (
            pm.pop("job_p50_s") / statistics.median(extra["verdict_s"]))
    else:
        passes = result
        rows = passes[0]
        cells = workload_cells(args, data)
        layer["cli.outside_engine_ms"] = sum(
            c.wall - s for c, s in rows) * 1e3
        layer["cli.cpu_s"] = sum(c.cpu for c, _ in rows)
        checks = [(cell_name(c), models[c["model"]]["verdict"], c["states"])
                  for c in cells]
        if args.workload == "gpo_ladder":
            argv = ["gpo", *map(probe_cell, cells)]
        else:
            argv = ["reach", str(args.seed),
                    str(data["explicit_reach"]["walk_steps"]),
                    *map(probe_cell, cells)]
        pm = run_probe(probe, argv, probe_trace, tally, checks)
        layer["obs.trace_overhead_ratio"] = (
            pm.pop("engine_s") / sum(s for _, s in rows))
        if "walk_ns" in pm:
            layer["petri.successor_ns"] = pm.pop("walk_ns") / pm.pop("walk_steps")
            layer["util.marking_hash_ns"] = pm.pop("hash_ns") / pm.pop("hash_calls")
        if "por_engine_s" in pm:
            layer["por.states_per_s"] = pm["por.states"] / pm.pop("por_engine_s")
        if "bdd.cache_lookups" in pm:
            hits = pm.pop("bdd.cache_hits")
            layer["bdd.cache_hit_ratio"] = hits / max(pm["bdd.cache_lookups"], 1)
        if "core.run_gpo_ms" in pm:
            layer["core.unattributed_ms"] = pm["core.run_gpo_ms"] - (
                pm["core.r0_ms"] + pm["core.reduced_search_ms"] +
                pm["core.ignoring_guard_ms"] + pm["core.delegated_search_ms"])
    layer["cli.self_ms"] = sum(s["dur"] for s in spans) / 1e3
    for name in sorted(set(pm) - set(PER_LAYER)):
        note(f"ignoring probe metric {name} (not in the per-layer table)")
        del pm[name]
    layer.update(pm)

    with open(probe_trace) as f:
        events = json.load(f)["traceEvents"]
    for e in events:
        e["pid"] = 1
    with open(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"),
              "w") as f:
        json.dump({"traceEvents": spans + events,
                   "otherData": args.stamp}, f)
    os.remove(probe_trace)
    return layer


# -- steadiness mode -------------------------------------------------------------

def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    runs = []
    for k in range(args.steady):
        seed = args.seed + k
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0", "--build-dir", args.build_dir],
            capture_output=True, text=True)
        if out.returncode != 0:
            die(f"seed {seed} failed (rc={out.returncode}):\n{out.stderr}", 1)
        lines = out.stdout.strip().splitlines()
        if k == 0:
            print(lines[0])  # the stamp
        runs.append(json.loads(lines[-1])["metrics"])
        speed = re.search(r"host speed (\S+)", out.stderr)
        speed = speed.group(1) if speed else "1"
        print(f"seed {seed}: host speed {speed}, " + ", ".join(
            f"{n}={v['value']:.6g}" for n, v in runs[-1].items()), flush=True)
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    unsteady = 0
    for name in END_TO_END:
        values = [r[name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if spread > 0.1:
            flag = "  NOT STEADY (spread > 0.1)"
            unsteady += 1
        elif name in bounds and spread > bounds[name] / 3:
            flag = "  above bound/3"
        print(f"{name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bounds.get(name, float('nan')):>6}{flag}")
    return 1 if unsteady else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="run the workload N times and report spreads")
    ap.add_argument("--build-dir", default=os.path.join(ROOT, ".bench_build",
                                                        "repo"),
                    help="build tree of the repository (configured if new)")
    args = ap.parse_args()

    julie, probe, build_dir = build(args.build_dir)
    args.build_dir = build_dir
    if args.steady:
        return steady(args)
    args.stamp = stamp(julie, build_dir)
    with open(os.path.join(HERE, "workloads.json")) as f:
        data = json.load(f)
    print("# stamp " + json.dumps(args.stamp, sort_keys=True), flush=True)

    tally = Tally()
    spans = []
    t_origin = time.perf_counter()
    if args.workload == "portfolio_serve":
        metrics, result = serve_workload(args, julie, data, tally, spans,
                                         t_origin)
    else:
        metrics, result = cell_workload(args, julie, data, tally, spans,
                                        t_origin)
    if args.trace:
        values = traced_layers(args, probe, data, tally, result, spans)
        units = PER_LAYER
    else:
        values, units = metrics, END_TO_END
    note(f"attempted {tally.attempted}, failed {tally.failed}, fail_ratio "
         f"{tally.failed / max(tally.attempted, 1):g}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
