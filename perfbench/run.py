#!/usr/bin/env python3
"""The benchmark of record (perfbench/NOTES.md): three workloads, five
end-to-end metrics plus a correctness verdict, and a traced run for the
per-layer metrics.

    python3 perfbench/run.py --workload fleet_units --seed 1 --seconds 35 --trace 0

Run it from the repository root. It builds perfbench/soft_bench (Release)
from the sources into $CARGO_TARGET_DIR, or .bench_build/ when that is
unset, then runs the workload for --seconds in fresh processes, one per
iteration, and checks every campaign's result. It prints a table and, as the
last line, one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
`attempted` counts campaigns (a dialect run, a tool run or a fleet
campaign); `failed` counts those that fail the correctness gate, so
failed / attempted is the failed ratio. --workload all runs every workload
in turn and prints one row per workload.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import stats  # noqa: E402


def highest_but_one(values):
    return stats.second_best(values, better="higher")


# End-to-end metrics: name, unit, and how a run's value comes from its
# iterations (perfbench/NOTES.md says why the times take the second best).
END_TO_END = (("wall_s", "s", stats.second_best), ("cpu_s", "s", stats.second_best),
              ("stmts_per_s", "1/s", highest_but_one), ("setup_s", "s", stats.median),
              ("peak_rss_mb", "MB", stats.median))
# Setup-mode iterations per run, whose median is setup_s: one before each
# full iteration, so that they sample the same stretch of time as the full
# iterations (the host's speed drifts over seconds), and at least this many.
SETUP_MIN_RUNS = 3
# A run must end within 180 s of the build finishing.
RUN_DEADLINE_S = 165


def build(out_dir):
    """Configures and builds soft_bench; exits 1 when either fails."""
    cmake_dir = os.path.join(out_dir, "cmake")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "--target", "soft_bench", "-j", jobs]]
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                sys.exit(1)
    return os.path.join(cmake_dir, "soft_bench")


class Runner:
    """Starts soft_bench processes and keeps the correctness tally."""

    def __init__(self, binary, out_dir):
        self.binary = binary
        self.out_dir = out_dir
        self.socket = os.path.relpath(
            os.path.join(out_dir, "fleet-%d.sock" % os.getpid()), ROOT)
        self.out_path = os.path.join(out_dir, "stdout-%d.json" % os.getpid())
        self.deadline = float("inf")
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, workload, seed, mode, extra=()):
        """One soft_bench process: its record, plus wall time, CPU time and
        peak RSS of its whole process tree (forked fleet workers included)."""
        argv = [self.binary, "--workload", workload, "--seed", str(seed), "--mode", mode]
        if workload == "fleet_units":
            argv += ["--socket", self.socket]
            if os.path.exists(self.socket):
                os.unlink(self.socket)
        argv += list(extra)
        with open(self.out_path, "w+") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, start_new_session=True)
            remaining = max(1.0, self.deadline - time.monotonic())
            timer = threading.Timer(remaining, kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            kill_group(proc.pid)  # anything the process left behind
            out.seek(0)
            lines = out.read().splitlines()
        record = None
        if proc.returncode == 0 and lines:
            record = json.loads(lines[-1])
        else:
            sys.stderr.write("perfbench: %s exited with %d\n" % (" ".join(argv), proc.returncode))
        campaigns = record["campaigns"] if record else []
        return {
            "mode": mode,
            "wall_s": wall_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "statements": sum(c["statements"] for c in campaigns),
            "record": record,
        }

    def gate(self, it, expect=None):
        """Counts the iteration's campaigns against the correctness gate. A
        process that failed counts as one failed campaign; `expect`, when
        given, holds campaign fields every campaign must match."""
        record = it["record"]
        if record is None:
            self.attempted += 1
            self.failed += 1
            self.failures.append("%s iteration produced no result" % it["mode"])
            return it
        for c in record["campaigns"]:
            for key, value in (expect or {}).items():
                if c["ok"] and c[key] != value:
                    c["ok"] = False
                    c["why"] = "%s %s != reference %s" % (key, c[key], value)
            self.attempted += 1
            if not c["ok"]:
                self.failed += 1
                self.failures.append("%s %s: %s" % (it["mode"], c["name"], c["why"]))
        return it


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reference(runner, workload, seed):
    """fleet_units only: the bug digest and statement count of the untimed
    in-process sharded campaign the fleet merge must equal."""
    if workload != "fleet_units":
        return None
    it = runner.gate(runner.run(workload, seed, "reference"))
    if it["record"] is None:
        return {"bug_digest": "unavailable"}
    ref = it["record"]["campaigns"][0]
    return {"bug_digest": ref["bug_digest"], "statements": ref["statements"]}


def timed_loop(seconds, step):
    """Calls step() once, then again while the median call so far still fits
    in `seconds` from the start. Returns the results."""
    results, durations = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        results.append(step())
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + stats.median(durations) > seconds:
            return results


def end_to_end(runner, workload, seed, seconds):
    expect = reference(runner, workload, seed)
    setups = []

    def setup():
        setups.append(runner.gate(runner.run(workload, seed, "setup")))

    def iteration():
        setup()
        return runner.gate(runner.run(workload, seed, "full"), expect)

    iters = timed_loop(seconds, iteration)
    while len(setups) < SETUP_MIN_RUNS:
        setup()
    walls = [it["wall_s"] for it in iters]
    samples = {
        "wall_s": walls,
        "cpu_s": [it["cpu_s"] for it in iters],
        "stmts_per_s": [it["statements"] / it["wall_s"] for it in iters],
        "setup_s": [it["wall_s"] for it in setups],
        "peak_rss_mb": [it["rss_mb"] for it in iters],
    }
    metrics = {name: estimate(samples[name]) for name, _, estimate in END_TO_END}
    return metrics, samples, iters


def per_layer(runner, workload, seed, seconds):
    expect = reference(runner, workload, seed)
    it = runner.gate(runner.run(workload, seed, "layers"))
    layers_record = it["record"]["layers"] if it["record"] else None
    spans_path = os.path.join(runner.out_dir, "spans-%d.tsv" % os.getpid())
    traced_flags = ["--trace", "--spans", spans_path]

    def pair():
        untraced = runner.gate(runner.run(workload, seed, "full"), expect)
        traced = runner.gate(runner.run(workload, seed, "full", traced_flags), expect)
        return untraced, traced

    pairs = timed_loop(seconds, pair)
    untraced = [u for u, _ in pairs]
    traced = {"walls": [t["wall_s"] for _, t in pairs], "record": pairs[-1][1]["record"],
              "spans": layers.load_spans(spans_path) if pairs[-1][1]["record"] else []}
    if traced["record"] is None:
        return {name: 0.0 for name, _ in layers.PER_LAYER}, untraced
    oracle_self_s = {}
    if workload == "logic_oracles":
        for oracle in layers.ORACLES:
            it = runner.gate(runner.run(workload, seed, "full", traced_flags + ["--oracles", oracle]))
            if it["record"]:
                oracle_self_s[oracle] = layers.statement_self_s(layers.load_spans(spans_path))[0]
    setup_cpu_s = 0.0
    if workload == "fleet_units":
        setup_cpu_s = runner.gate(runner.run(workload, seed, "setup"))["cpu_s"]
    metrics = layers.layer_metrics(workload, traced, untraced, layers_record,
                                   oracle_self_s, setup_cpu_s)
    os.unlink(spans_path)
    return metrics, untraced


def git_stamp():
    def git(*args):
        try:
            return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None
    sha = git("rev-parse", "HEAD")
    if sha is None:
        return None, None  # not a git checkout
    return sha, bool(git("status", "--porcelain", "--untracked-files=no"))


def stamp(git, record, seed):
    """The run stamp: git sha and dirty flag, build type, compiler, nproc, seed."""
    sha, dirty = git
    return {"git_sha": sha, "dirty": dirty,
            "build_type": record["build_type"] if record else None,
            "compiler": record["compiler"] if record else None,
            "nproc": os.cpu_count(), "seed": seed}


def run_workload(runner, workload, seed, seconds, trace):
    runner.deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        metrics, iters = per_layer(runner, workload, seed, seconds)
        units, samples = dict(layers.PER_LAYER), None
    else:
        metrics, samples, iters = end_to_end(runner, workload, seed, seconds)
        units = {name: unit for name, unit, _ in END_TO_END}
    return metrics, units, samples, iters


def fmt(value):
    return "%.6g" % value


def print_metrics(workload, metrics, units, samples):
    """End-to-end metrics with their spread over the run's iterations;
    per-layer metrics (samples None) with the layers' notes."""
    notes = layers.notes(metrics) if samples is None else {
        name: "spread %.3f of %d" % (stats.spread(samples[name]), len(samples[name]))
        for name in metrics}
    print("%-34s %14s  %-6s %s" % (workload, "value", "unit", "note"))
    for name, value in metrics.items():
        print("%-34s %14s  %-6s %s" % (name, fmt(value), units[name], notes.get(name, "")))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    runner = Runner(build(out_dir), out_dir)
    try:
        report(runner, args, out_dir)
    finally:
        for path in (runner.out_path, runner.socket):
            if os.path.exists(path):
                os.unlink(path)


def report(runner, args, out_dir):
    """Runs the requested workloads and prints their tables and the result line."""
    git = git_stamp()
    workloads = layers.WORKLOADS if args.workload == "all" else (args.workload,)
    result_metrics = {}
    record = None
    for workload in workloads:
        metrics, units, samples, iters = run_workload(runner, workload, args.seed,
                                                      args.seconds, args.trace)
        record = next((it["record"] for it in iters if it["record"]), record)
        print_metrics(workload, metrics, units, samples)
        prefix = workload + "." if args.workload == "all" else ""
        for name, value in metrics.items():
            result_metrics[prefix + name] = {"value": value, "unit": units[name]}
        with open(os.path.join(out_dir, "result-%s-seed%d-trace%d.json"
                               % (workload, args.seed, args.trace)), "w") as f:
            json.dump({"stamp": stamp(git, record, args.seed), "metrics": metrics,
                       "samples": samples,
                       "iterations": [{k: v for k, v in it.items() if k != "record"}
                                      for it in iters]}, f, indent=1)
    print("stamp: " + json.dumps(stamp(git, record, args.seed)))
    for failure in runner.failures:
        print("FAILED " + failure)
    print("correctness: %s (attempted %d, failed %d, failed_ratio %s)" % (
        "PASS" if runner.failed == 0 else "FAIL", runner.attempted, runner.failed,
        fmt(runner.failed / runner.attempted if runner.attempted else 1.0)))
    print(json.dumps({"correct": runner.failed == 0 and runner.attempted > 0,
                      "attempted": max(1, runner.attempted), "failed": runner.failed,
                      "metrics": result_metrics}))


if __name__ == "__main__":
    main()
