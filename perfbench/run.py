#!/usr/bin/env python3
"""Repository benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the `eclat` binary and
the benchmark's own harness (perfbench/harness) in release mode, makes
the workload's inputs from the seed, sets the workload up several times
(the median set-up time is reported), then repeats the workload's
commands for about S seconds and reports the median of each timing.
Every workload reports the same metrics: setup_s, wall_p1_ms and
wall_p2_ms (one mine of its input on one and on two threads) and
peak_rss_mb.
Every command's output is checked; a wrong answer, a refused request or
a non-zero exit counts as a failed operation. The last stdout line is
one JSON object: correct, attempted, failed and metrics.

With --trace 1 the run instead executes the harness's traced probes of
every layer, the stream and serve layers included, and reports the
per-layer metrics; spans are written to
.bench_work/. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("quest-sparse", "quest-dense", "spade")
SETUPS = 5
# Each dmine worker's resident budget for exchanged tid-lists: below
# what a worker receives on quest-sparse, so the spill path runs. The
# harness's in-process dmine (DIST_BUDGET) uses the same budget.
WORKER_BUDGET = "2m"
COMMAND_TIMEOUT_S = 60.0
HEADLINE = re.compile(r"^(\d+) frequent (itemsets|sequences) in ")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Build the CLI and the harness; return their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in (
        ("Cargo.toml", ["-p", "eclat-cli"]),
        (str(HERE / "harness" / "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return target / "release" / "eclat", target / "release" / "perfbench-harness"


def two_cpus():
    """The first two CPUs this process may run on (None if fewer)."""
    cpus = sorted(os.sched_getaffinity(0))
    return set(cpus[:2]) if len(cpus) >= 2 else None


class Runner:
    """Spawns timed commands and keeps what a run needs to report."""

    def __init__(self, work, env):
        self.work = work
        self.env = env
        self.peak_kb = 0
        self.attempted = 0
        self.failed = 0
        self.workers = []
        self.out_path = work / "stdout.txt"

    def timed(self, argv, cpus=None):
        """Run argv to completion, its stdout to out_path; return
        (seconds, exit code)."""
        # The child inherits this process's CPU set at spawn.
        saved = os.sched_getaffinity(0)
        with open(self.out_path, "wb") as out:
            if cpus:
                os.sched_setaffinity(0, cpus)
            t0 = time.perf_counter()
            try:
                proc = subprocess.Popen(argv, stdout=out, env=self.env)
            finally:
                os.sched_setaffinity(0, saved)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            secs = time.perf_counter() - t0
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return secs, proc.returncode

    def stdout(self):
        """The last command's standard output."""
        return self.out_path.read_text(errors="replace")

    def op(self, argv, cpus=None):
        """One counted operation; returns its seconds, or None if it
        exited non-zero."""
        self.attempted += 1
        secs, code = self.timed(argv, cpus)
        if code != 0:
            self.failed += 1
            log(f"perfbench: exit {code}: {' '.join(map(str, argv))}")
            return None
        return secs

    def start_worker(self, eclat):
        port_file = self.work / f"worker{len(self.workers)}.port"
        port_file.unlink(missing_ok=True)
        proc = subprocess.Popen(
            [eclat, "worker", "--listen", "127.0.0.1:0", "--threads", "1",
             "--mem-budget", WORKER_BUDGET, "--port-file", port_file],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=self.env)
        self.workers.append(proc)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            text = port_file.read_text() if port_file.exists() else ""
            if text.strip().isdigit():
                return f"127.0.0.1:{text.strip()}"
            if proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError("dmine worker did not publish its port")

    def stop_workers(self):
        for proc in self.workers:
            try:
                status = Path(f"/proc/{proc.pid}/status").read_text()
                hwm = re.search(r"VmHWM:\s+(\d+) kB", status)
                if hwm:
                    self.peak_kb = max(self.peak_kb, int(hwm.group(1)))
            except OSError:
                pass
            proc.kill()
            proc.wait()
        self.workers = []


def report_body(out):
    """(count, body) of a mine/dmine/seq report; the body is everything
    after the headline, which every variant prints identically."""
    lines = out.splitlines()
    m = HEADLINE.match(lines[0]) if lines else None
    if not m:
        return None
    return int(m.group(1)), "\n".join(lines[1:])


def whole_set(path):
    """(count, body digest) of a whole-set report. It is read in chunks:
    the kernel counts this process's peak resident size into the
    ru_maxrss of the children it spawns, so holding a large output here
    would inflate peak_rss_mb."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        m = HEADLINE.match(f.readline().decode(errors="replace"))
        if not m:
            return None
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return int(m.group(1)), digest.hexdigest()


def batch_workload(args, eclat, harness, runner):
    """Set up, compare each
    command's whole frequent set with P=1's once, then repeat rounds of
    the P=1 and P=2 commands, every report checked against the first
    P=1 report of the run."""
    name = args.workload
    ext = "ecs" if name == "spade" else "ech"
    data = runner.work / f"input.{ext}"
    setup = []
    addrs = []
    for _ in range(SETUPS):
        runner.stop_workers()
        t0 = time.perf_counter()
        gen = subprocess.run(
            [harness, "gen", "--workload", name, "--seed", str(args.seed), "--out", data],
            stdout=subprocess.PIPE, env=runner.env, text=True)
        if gen.returncode != 0:
            raise RuntimeError("input generation failed")
        support = f'{json.loads(gen.stdout.splitlines()[-1])["support_pct"]:g}'
        if name == "quest-sparse":
            addrs = [runner.start_worker(eclat) for _ in range(2)]
        setup.append(time.perf_counter() - t0)

    if name == "spade":
        base = [eclat, "seq", "--input", data, "--minsup", support]
        parallel = ["--policy", "threads:2"]
    else:
        base = [eclat, "mine", "--input", data, "--support", support]
        parallel = ["--algorithm", "parallel"]
    ops = [("wall_p1_ms", base, None), ("wall_p2_ms", base + parallel, two_cpus())]
    # dmine is checked but not timed: every workload reports the same
    # metrics, and only quest-sparse has a distributed run.
    checks = list(ops)
    if name == "quest-sparse":
        checks.append(("dmine", [eclat, "dmine", "--input", data, "--support", support,
                                 "--workers", ",".join(addrs)], None))

    # Once per run, outside the timed rounds: every command prints its
    # whole frequent set, which must equal P=1's exactly. Printing the
    # whole set is the check's cost, so it stays out of peak_rss_mb.
    whole = ["--top", str(10**9)] + ([] if name == "spade" else ["--min-size", "1"])
    reference = None
    peak_kb = runner.peak_kb
    for metric, argv, cpus in checks:
        if runner.op(argv + whole, cpus) is None:
            continue
        got = whole_set(runner.out_path)
        if metric == "wall_p1_ms":
            reference = got
        if got is None or got != reference or got[0] == 0:
            runner.failed += 1
            log(f"perfbench: {metric} whole set differs from the run's P=1 set")
    runner.peak_kb = peak_kb

    times = {metric: [] for metric, _, _ in ops}
    expected = None
    start = time.perf_counter()
    rounds = 0
    last_round = 0.0
    # Start another round only while it should end within the window.
    while rounds == 0 or time.perf_counter() - start + last_round <= args.seconds:
        rounds += 1
        t_round = time.perf_counter()
        for metric, argv, cpus in ops:
            secs = runner.op(argv, cpus)
            if secs is None:
                continue
            got = report_body(runner.stdout())
            if expected is None and metric == "wall_p1_ms" and got and got[0] > 0:
                expected = got
            if got is None or got != expected:
                runner.failed += 1
                log(f"perfbench: {metric} output differs from the run's P=1 report")
                continue
            times[metric].append(secs * 1e3)
        last_round = time.perf_counter() - t_round
    runner.stop_workers()

    metrics = {"setup_s": (statistics.median(setup), "s")}
    for metric, values in times.items():
        if values:
            metrics[metric] = (statistics.median(values), "ms")
    log(f"perfbench: {name}: " + ", ".join(
        f"{m} n={len(v)}" for m, v in times.items()))
    return metrics


def harness_result(runner, argv):
    """Run a harness subcommand that prints a result line, fold its
    counts into the run's and return its metrics."""
    _, code = runner.timed(argv)
    out = runner.stdout()
    if code != 0:
        raise RuntimeError(f"perfbench-harness {argv[1]} exited {code}")
    result = json.loads(out.splitlines()[-1])
    runner.attempted += result["attempted"]
    runner.failed += result["failed"]
    return {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    eclat, harness = build(root / target if not target.is_absolute() else target)

    bench_root = root / ".bench_work"
    work = bench_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # Port files and spill directories of the spawned processes stay
    # inside the checkout.
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    runner = Runner(work, env)
    # A SIGTERM unwinds through the finally below, stopping workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if args.trace:
            spans = bench_root / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics = harness_result(runner, [
                harness, "probe", "--seed", str(args.seed), "--work", work, "--spans", spans])
        else:
            metrics = batch_workload(args, eclat, harness, runner)
            metrics["peak_rss_mb"] = (runner.peak_kb / 1024.0, "MB")
    finally:
        runner.stop_workers()
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
