#!/usr/bin/env python3
"""Flow benchmark: wall and CPU time of the clustering-driven placement flow.

Run from the root of a checkout:

    python3 flowbench/run.py --workload ladder-signoff-t1 --seed 1 --seconds 25 --trace 0
    python3 flowbench/run.py --self-test

The first run builds the benchmark binary (flowbench/CMakeLists.txt) from the
library sources into .bench_build/flowbench. A run then starts the binary
SETUPS times: SETUPS - 1 processes that only set up (generate the designs, run one
untimed warm-up pass) and exit, and one that sets up and then measures for
--seconds. setup_s is the median time from process start to the end of the
warm-up pass over those processes. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; --trace 0
gives the end-to-end metrics, --trace 1 the per-layer metrics of a traced
stage-by-stage replay. The line before it reports the machine's CPU steal
over the run, read from /proc/stat.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ladder-signoff-t1", "ladder-place-t4", "sharded-100k-t1", "sharded-100k-t2",
             "sharded-100k-t4")
SETUPS = 3           # set-ups per run; setup_s is their median
RUN_LIMIT_S = 165.0  # whole run after the build, processes included
END_TO_END = (("flow_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("hpwl_um", "um"))


def log(message):
    print("flowbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "flowbench")


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("FAILURE build: '%s' exited with %d" % (" ".join(step), done.returncode))
            return None
    return os.path.join(out, "flowbench")


def child_env():
    # The program reads PPACD_THREADS, PPACD_SCALE, PPACD_FAULTS and
    # PPACD_OBSERVE; the workload fixes all of them, so none may leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("PPACD_")}


def read_steal():
    """(steal, total) jiffies summed over all CPUs, or None."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    values = [int(v) for v in fields[1:]]
    return values[7], sum(values[:8])


class BenchProcess:
    """One flowbench process; times process start to its SETUP_DONE line."""

    def __init__(self, cmd, deadline):
        self.start = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                                     text=True, cwd=ROOT)
        self.setup_s = None
        self.result = None
        self.killed = False
        remaining = max(1.0, deadline - time.monotonic())
        self.timer = threading.Timer(remaining, self._kill)
        self.timer.start()

    def _kill(self):
        self.killed = True
        self.proc.kill()

    def finish(self):
        for line in self.proc.stdout:
            if line.startswith("SETUP_DONE") and self.setup_s is None:
                self.setup_s = time.monotonic() - self.start
            elif line.startswith("FLOWBENCH_RESULT "):
                self.result = json.loads(line[len("FLOWBENCH_RESULT "):])
            else:
                sys.stderr.write(line)
        code = self.proc.wait()
        self.timer.cancel()
        if self.killed:
            log("FAILURE run-timeout: the run exceeded %.0f s" % RUN_LIMIT_S)
            return 3
        return code


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, if present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            bench = json.load(spec)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="seed one corruption per output check and confirm it is caught")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.self_test:
        proc = BenchProcess([binary, "--self-test", "--seed", str(args.seed)], deadline)
        return proc.finish()

    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    steal_before = read_steal()
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            proc = BenchProcess(base + ["--setup-only"], deadline)
            code = proc.finish()
            if code != 0 or proc.setup_s is None:
                log("FAILURE setup: set-up process exited with %d" % code)
                return code or 1
            setups.append(proc.setup_s)
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = BenchProcess(cmd, deadline)
    code = proc.finish()
    if code != 0 or proc.result is None or proc.setup_s is None:
        log("FAILURE run: flowbench exited with %d without a result" % code)
        return code or 1
    setups.append(proc.setup_s)
    steal_after = read_steal()

    result = proc.result
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics = {name: metrics[name] for name, _ in END_TO_END}
        log("set-ups: " + ", ".join("%.4f s" % s for s in setups))
    expected = expected_metrics(args.trace)
    if expected is not None:
        missing = [name for name in expected if name not in metrics]
        if missing:
            log("metrics missing from the result: " + ", ".join(missing))
            result["correct"] = False
    if steal_before and steal_after:
        steal = steal_after[0] - steal_before[0]
        total = max(1, steal_after[1] - steal_before[1])
        print("steal: %d jiffies over the run, %.2f%% of all CPU time" % (steal, 100.0 * steal / total))
    else:
        print("steal: unavailable (no /proc/stat)")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
