#!/usr/bin/env python3
"""Job latency, throughput and server CPU of one `julie serve` on a job mix.

Starts `julie serve --pool-threads 4` and sends it --jobs CHECK lines drawn
from gpobench's portfolio_serve mix (each model's share fixed by its weight,
the order shuffled by --seed), plus any models given with --add. Three ways
to send them:

    (default)     all at once: one burst, a backlog that drains
    --rate R      open loop at R jobs/s: a sustained backlog once R exceeds
                  what the server keeps up with
    --serial      one at a time, each after the previous VERDICT: an idle
                  pool

It prints the run's wall time, jobs/s, the server's CPU ms per job (user +
system, read from /proc, so Linux only), job latency p50/p99/max (VERDICT
arrival minus the job's send time) for the mix and for each --add model,
and each engine's racer runs and wins from STATS.

    python3 bench/serve_mix.py build/src/cli/julie --jobs 2000 \\
        --add nsdp:12=1 --add asat:16=1
"""
import argparse
import json
import os
import random
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL_THREADS = 4


def job_mix(rng, mix, n):
    total = sum(w for _, w in mix)
    jobs = []
    for model, w in mix:
        jobs += [model] * max(1, round(n * w / total))
    rng.shuffle(jobs)
    return (jobs * 2)[:n]


def cpu_seconds(pid):
    """User + system CPU time of process `pid` so far."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def quantile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))] if xs else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("julie")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--jobs", type=int, default=800)
    ap.add_argument("--add", action="append", default=[],
                    metavar="MODEL=WEIGHT", help="add a model to the mix")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--rate", type=float, default=0,
                      help="open loop at this many jobs/s")
    mode.add_argument("--serial", action="store_true",
                      help="send each job after the previous VERDICT")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "gpobench", "workloads.json")) as f:
        mix = [(m["model"], m["weight"])
               for m in json.load(f)["portfolio_serve"]["mix"]]
    added = []
    for a in args.add:
        model, _, weight = a.partition("=")
        added.append(model)
        mix.append((model, float(weight or 1)))
    jobs = job_mix(random.Random(args.seed), mix, args.jobs)

    srv = subprocess.Popen(
        [args.julie, "serve", "--pool-threads", str(POOL_THREADS)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
    if not srv.stdout.readline().startswith("READY "):
        sys.exit("julie serve printed no READY line")
    sent = [0.0] * len(jobs)
    done = [0.0] * len(jobs)
    first_id = None

    def read_verdicts(n):
        nonlocal first_id
        got = 0
        while got < n:
            line = srv.stdout.readline()
            if not line:
                sys.exit("julie serve exited mid-run")
            if line.startswith("ERR "):
                sys.exit(line.strip())
            if line.startswith("JOB ") and first_id is None:
                first_id = int(line.split()[1])
            if line.startswith("VERDICT "):
                done[int(line.split()[1]) - first_id] = time.perf_counter()
                got += 1

    cpu0, t0 = cpu_seconds(srv.pid), time.perf_counter()
    if args.serial:
        for i, m in enumerate(jobs):
            sent[i] = time.perf_counter()
            srv.stdin.write(f"CHECK {m}\n")
            srv.stdin.flush()
            read_verdicts(1)
    elif args.rate > 0:
        def send():
            for i, m in enumerate(jobs):
                due = t0 + i / args.rate
                while time.perf_counter() < due:
                    time.sleep(max(0.0, min(due - time.perf_counter(),
                                            0.001)))
                sent[i] = due
                srv.stdin.write(f"CHECK {m}\n")
                srv.stdin.flush()
        writer = threading.Thread(target=send)
        writer.start()
        read_verdicts(len(jobs))
        writer.join()
    else:
        sent = [t0] * len(jobs)
        srv.stdin.write("".join(f"CHECK {m}\n" for m in jobs))
        srv.stdin.flush()
        read_verdicts(len(jobs))
    wall = time.perf_counter() - t0
    cpu_ms = (cpu_seconds(srv.pid) - cpu0) * 1e3 / len(jobs)

    srv.stdin.write("STATS\n")
    srv.stdin.flush()
    line = srv.stdout.readline()
    while not line.startswith("STATS "):
        line = srv.stdout.readline()
    stats = json.loads(line[6:])
    srv.stdin.write("QUIT\n")
    srv.stdin.flush()
    srv.wait()

    print(f"jobs {len(jobs)}  wall_s {wall:.3f}  jobs_per_s "
          f"{len(jobs) / wall:.0f}  cpu_ms_per_job {cpu_ms:.3f}")
    groups = [("mix", lambda m: m not in added)] + [
        (a, lambda m, a=a: m == a) for a in added]
    for name, pick in groups:
        lat = [(done[i] - sent[i]) * 1e3
               for i, m in enumerate(jobs) if pick(m)]
        print(f"  latency_ms {name:10s} n {len(lat):5d}  p50 "
              f"{quantile(lat, 0.5):8.2f}  p99 {quantile(lat, 0.99):8.2f}  "
              f"max {max(lat):8.2f}")
    for e, v in stats["engines"].items():
        print(f"  engine {e:10s} runs {v.get('seconds', {}).get('count', 0):6d}"
              f"  wins {v.get('wins', 0):6d}")


if __name__ == "__main__":
    main()
