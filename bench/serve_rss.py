#!/usr/bin/env python3
"""Peak RSS of one `julie serve` as it serves bursts of jobs.

Starts `julie serve --pool-threads 4`, sends it 13 bursts of 800 CHECK lines
drawn from gpobench's portfolio_serve mix (each model's share fixed by its
weight, the order shuffled by --seed), waits for every VERDICT of a burst,
then asks STATS and prints the server's peak RSS. A server that keeps
per-job state grows linearly down the column. Each line also gives the
burst's wall time and the server's CPU time per job of the burst (user +
system, read from /proc, so Linux only).

    python3 bench/serve_rss.py build/src/cli/julie --seed 1
"""
import argparse
import json
import os
import random
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BURSTS = 13
JOBS = 800
POOL_THREADS = 4


def job_mix(rng, mix, n):
    total = sum(m["weight"] for m in mix)
    jobs = []
    for m in mix:
        jobs += [m["model"]] * round(n * m["weight"] / total)
    rng.shuffle(jobs)
    return (jobs * 2)[:n]


def cpu_seconds(pid):
    """User + system CPU time of process `pid` so far."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("julie")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "gpobench", "workloads.json")) as f:
        mix = json.load(f)["portfolio_serve"]["mix"]
    rng = random.Random(args.seed)
    srv = subprocess.Popen(
        [args.julie, "serve", "--pool-threads", str(POOL_THREADS)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
    if not srv.stdout.readline().startswith("READY "):
        sys.exit("julie serve printed no READY line")
    served = 0
    for burst in range(1, BURSTS + 1):
        jobs = job_mix(rng, mix, JOBS)
        cpu0, t0 = cpu_seconds(srv.pid), time.perf_counter()
        srv.stdin.write("".join(f"CHECK {m}\n" for m in jobs))
        srv.stdin.flush()
        verdicts = 0
        while verdicts < len(jobs):
            line = srv.stdout.readline()
            if not line:
                sys.exit("julie serve exited mid-burst")
            if line.startswith("ERR "):
                sys.exit(line.strip())
            verdicts += line.startswith("VERDICT ")
        wall = time.perf_counter() - t0
        cpu_ms = (cpu_seconds(srv.pid) - cpu0) * 1e3 / len(jobs)
        served += len(jobs)
        srv.stdin.write("STATS\n")
        srv.stdin.flush()
        line = srv.stdout.readline()
        while not line.startswith("STATS "):
            line = srv.stdout.readline()
        rss = json.loads(line[6:])["memory"]["peak_rss_bytes"] / 2**20
        print(f"burst {burst:2d}  jobs {served:6d}  peak_rss_mb {rss:7.1f}  "
              f"wall_s {wall:6.3f}  cpu_ms_per_job {cpu_ms:6.3f}", flush=True)
    srv.stdin.write("QUIT\n")
    srv.stdin.flush()
    srv.wait()


if __name__ == "__main__":
    main()
