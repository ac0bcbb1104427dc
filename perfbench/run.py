#!/usr/bin/env python3
"""Build and run the nowsched end-to-end benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 10 --trace 0

builds the `perfbench` load generator from this source tree into
.bench_build/ on first use, runs it, and passes its output through. The last
stdout line is the JSON result; the exit status is non-zero when any output
was wrong or the run failed.

Steadiness report (repeat mode):

    python3 perfbench/run.py --workload cold_solve,warm_mix --repeat 10 --sets 2

runs each workload `repeat` times per set, each run on its own seed, and
prints for every metric the median, the quartiles, the interquartile and
(max - min) spreads as shares of the median, and, from the second set on,
how much worse the set's median is than the first set's. End-to-end
metrics whose (max - min) spread or worsening exceeds their bound in
BENCHMARK.json are flagged, and so, separately, are workloads whose runs
came from different host classes.

WORKLOADS.md describes the workloads, the metrics and the seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = ".bench_build"  # relative to ROOT; keeps socket paths short
WORK_DIR = os.path.join(BUILD_ROOT, "work")
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no nowsched source tree beside perfbench/; nothing to build")
        sys.exit(2)
    build_dir = os.path.join(ROOT, BUILD_ROOT, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={trace}", f"--workdir={WORK_DIR}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 124, ""
    return proc.returncode, proc.stdout or ""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def share(num, den):
    return abs(num) / abs(den) if den else float("inf") if num else 0.0


def report(workload, runs, spec):
    """Prints the steadiness table for one workload; returns True when every
    end-to-end metric's spread and set-to-set shift stay within its bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    hosts = sorted({r["host"] for s in runs for r in s})
    print(f"\n{workload}: {len(runs)} set(s) x {len(runs[0])} runs")
    if len(hosts) > 1:
        print(f"FLAG {workload}: runs came from different host classes {hosts}; "
              "their numbers are not from one host class")
    print(f"{'metric':34} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'rng/med':>8} {'worse':>8} {'bound':>6}  flag")
    steady = True
    for name in runs[0][0]["metrics"]:
        unit = runs[0][0]["metrics"][name]["unit"]
        metric = bounds.get(name)
        first_median = None
        for i, s in enumerate(runs):
            values = [r["metrics"][name]["value"] for r in s]
            q1, med, q3 = quartiles(values)
            iqr = share(q3 - q1, med)
            rng = share(max(values) - min(values), med)
            worse = 0.0
            if first_median is None:
                first_median = med
            elif first_median:
                worse = (med - first_median) / first_median
                if metric is not None and metric["better"] == "higher":
                    worse = -worse
            flag = ""
            if metric is not None:
                if rng > metric["bound"] and name != "setup_s":
                    flag += " spread>bound"
                if worse > metric["bound"]:
                    flag += " worse>bound"
            steady = steady and not flag
            print(f"{name + ' [' + unit + ']':34} {i + 1:>3} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {iqr:>8.3f} {rng:>8.3f} {worse:>8.3f} "
                  f"{'' if metric is None else metric['bound']:>6}  {flag.strip()}")
    return steady


def host_stamp(stdout):
    """The run's host class: nproc, rounded effective parallelism, kernel, build."""
    for line in stdout.splitlines():
        if line.startswith("host "):
            fields = dict(f.split("=", 1) for f in line.split()[1:])
            eff = round(float(fields["effective_parallelism"]))
            return f"{fields['nproc']}cpu-{eff}eff-{fields['kernel']}-{fields['build']}"
    return "unknown"


def repeat(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    all_steady = True
    for workload in args.workload.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.repeat):
                seed = args.seed + k * args.repeat + i
                code, out = run_once(binary, workload, seed, args.seconds, args.trace, True)
                lines = out.strip().splitlines()
                result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
                if code != 0 or result is None or not result["correct"]:
                    print(f"FLAG {workload} seed {seed}: exit {code}, result {result}")
                    all_steady = False
                    continue
                result["host"] = host_stamp(out)
                runs.append(result)
                log(f"{workload} set {k + 1} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()))
            if runs:
                sets.append(runs)
        if len(sets) == args.sets:
            all_steady = report(workload, sets, spec) and all_steady
        else:
            all_steady = False
    print("\nsteady" if all_steady else "\nNOT steady")
    return 0 if all_steady else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="cold_solve | warm_mix | store_read | store_spill "
                             "(comma-separated in repeat mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report: runs per set (0 = one plain run)")
    parser.add_argument("--sets", type=int, default=1,
                        help="steadiness report: sets of runs to compare")
    args = parser.parse_args()

    binary = build()
    if args.repeat > 0:
        return repeat(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
