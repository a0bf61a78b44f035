#!/usr/bin/env python3
"""End-to-end benchmark of the FedWCM simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and with it the fedwcm
libraries from src/) into .bench_build/ on first use, then runs the workload
in fresh processes, one workload run per process, until S seconds have
passed, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over the
runs); --trace 1 the per-layer metrics, from span-traced runs plus the
comparison runs they need. Every run's outputs are checked; any failed check
makes "correct" false and the exit code 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3          # End-to-end runs per invocation, however long they take.
MAX_TRACED = 5        # Traced runs per traced pass (each writes a trace file).
RUN_TIMEOUT_S = 150   # One workload process.

# The workloads that measure obs.telemetry_overhead_share (against the same
# config with telemetry off) and fl.thread_scaling (against one thread);
# elsewhere those metrics read 0.
TELEMETRY_WORKLOAD = "mlp_c100_buffered"
SCALING_WORKLOAD = "convnet_tiny_images"


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configures and builds both benchmark binaries; returns their paths."""
    if not (ROOT / "src" / "fedwcm" / "fl" / "simulation.hpp").is_file():
        fail(f"fedwcm sources not found under {ROOT / 'src'}; run from a full checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log, "w") as f:
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                      "fedwcm_perfbench", "fedwcm_perfbench_traced"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                f.flush()
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return out / "fedwcm_perfbench", out / "fedwcm_perfbench_traced"


def invoke(binary, *args):
    """Runs one benchmark process and returns its JSON result."""
    cmd = [str(binary), *map(str, args)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if p.returncode != 0 or not p.stdout.strip():
        fail(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr.strip()}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def cpu_jiffies():
    """(steal, total) jiffies over all CPUs from /proc/stat; (0, 0) elsewhere."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_note(start):
    """Share of CPU time the hypervisor withheld since `start` (a cpu_jiffies
    reading): on a shared VM, the likeliest cause of a slow invocation."""
    steal, total = (b - a for a, b in zip(start, cpu_jiffies()))
    return f"host steal {100.0 * steal / total:.1f}% of CPU time" if total > 0 else ""


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"], [w["name"] for w in spec["workloads"]]


def quartile_spread(values):
    """(q3 - q1) / median, as statistics.quantiles(n=4) gives the quartiles."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


class Checks:
    """Collects failed output checks; any failure makes the run incorrect."""

    def __init__(self):
        self.failures = []

    def run(self, result, label):
        for f in result["failures"]:
            self.failures.append(f"{label}: {f}")

    def same_output(self, results, label):
        digests = sorted({r["digest"] for r in results})
        if len(digests) > 1:
            self.failures.append(f"{label}: final parameters differ between runs "
                                 f"of one seed ({', '.join(digests)})")


def failed_updates(results):
    return sum(int(r["rejected"] + r["lost"]) for r in results)


def attempted_updates(results):
    return sum(int(r["attempted"]) for r in results)


def end_to_end(args, plain, metrics):
    """Repeats the untraced workload for --seconds; medians per metric."""
    checks = Checks()
    runs = []
    jiffies = cpu_jiffies()
    deadline = time.monotonic() + args.seconds
    while len(runs) < MIN_RUNS or time.monotonic() < deadline:
        runs.append(invoke(plain, "run", "--workload", args.workload, "--seed", args.seed))
        checks.run(runs[-1], f"run {len(runs)}")
    checks.same_output(runs, "end-to-end runs")

    first = runs[0]
    print(f"workload {args.workload}  seed {args.seed}  {len(runs)} runs  "
          f"threads {first['threads']:g}  telemetry {first['telemetry']}  "
          f"rounds {first['rounds']:g} (round_ms_tail = p{first['round_tail_pct']:.4g} "
          f"of {first['rounds']:g} rounds, {first['evaluated_rounds']:g} evaluated)")
    print(f"{'metric':24} {'median':>14} {'unit':10} {'q-spread':>8}")
    units = {m["name"]: m["unit"] for m in metrics}
    # Output-quality figures the bounded set leaves out (see README.md).
    units.update({"final_accuracy": "ratio", "min_class_recall": "ratio",
                  "failed_update_ratio": "ratio"})
    medians = {}
    for name, unit in units.items():
        values = [r["e2e"][name] for r in runs]
        medians[name] = statistics.median(values)
        print(f"{name:24} {medians[name]:14.6g} {unit:10} {quartile_spread(values):8.3f}")
    print(f"updates: {attempted_updates(runs)} attempted, {failed_updates(runs)} failed; "
          f"injected faults (not failures): {sum(r['dropped'] for r in runs):g} dropped, "
          f"{sum(r['straggled'] for r in runs):g} straggled; {steal_note(jiffies)}")
    return checks, runs, {m["name"]: {"value": medians[m["name"]], "unit": m["unit"]}
                          for m in metrics}


def traced(args, plain, traced_bin, metrics):
    """Traced runs plus the untraced comparison runs the shares need."""
    checks = Checks()
    trace_dir = build_dir() / "traces" / args.workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    start = time.monotonic()
    jiffies = cpu_jiffies()
    deadline = start + args.seconds
    base = ["run", "--workload", args.workload, "--seed", args.seed]

    kernels = invoke(traced_bin, "kernels", "--workload", args.workload,
                     "--seconds", max(1, round(0.15 * args.seconds)))
    reference = invoke(plain, *base)
    checks.run(reference, "untraced reference run")
    tr, un, extra = [], [], []
    while not tr or time.monotonic() < deadline:
        if len(tr) < MAX_TRACED:
            path = trace_dir / f"{args.workload}.{args.seed}.{len(tr)}.trace.json"
            tr.append(invoke(traced_bin, *base, "--trace", path))
            checks.run(tr[-1], f"traced run {len(tr)}")
        un.append(invoke(traced_bin, *base))
        checks.run(un[-1], f"untraced comparison run {len(un)}")
        if args.workload == TELEMETRY_WORKLOAD:
            extra.append(invoke(traced_bin, *base, "--telemetry", 0))
        elif args.workload == SCALING_WORKLOAD:
            extra.append(invoke(traced_bin, *base, "--threads", 1))
        if extra:
            checks.run(extra[-1], f"comparison run {len(extra)}")
    # Tracing, the allocation hook, telemetry and the thread count are all
    # read-only: every run of the seed must end bitwise identical.
    checks.same_output([reference, *tr, *un, *extra], "traced vs untraced runs")

    def med(runs, key):
        return statistics.median(r["e2e"][key] for r in runs)

    values = {}
    for name in tr[0]["modules"]:
        values[name] = statistics.median(r["modules"][name] for r in tr)
    values.update(kernels["gemm"])
    values.update(kernels["pv"])
    values["fl.allocs_per_round"] = statistics.median(r["allocs_per_round"] for r in un)
    values["fl.alloc_bytes_per_round"] = statistics.median(
        r["alloc_bytes_per_round"] for r in un)
    values["fl.accept_ratio"] = tr[0]["accepted"] / tr[0]["attempted"]
    for key in ("dropped", "straggled", "rejected"):
        values[f"fl.{key}"] = tr[0][key]
    values["bench.trace_overhead_share"] = med(tr, "total_s") / med(un, "total_s") - 1
    if args.workload == TELEMETRY_WORKLOAD:
        values["obs.telemetry_overhead_share"] = med(un, "total_s") / med(extra, "total_s") - 1
    if args.workload == SCALING_WORKLOAD:
        values["fl.thread_scaling"] = (med(un, "train_samples_per_s") /
                                       med(extra, "train_samples_per_s"))

    print(f"workload {args.workload}  seed {args.seed}  traced pass: {len(tr)} traced, "
          f"{len(un)} untraced, {len(extra)} comparison runs in "
          f"{time.monotonic() - start:.1f} s; {steal_note(jiffies)}; traces in {trace_dir}")
    print("GEMMs per training step (shape-tagged descriptors):")
    for op in kernels["ops"]:
        print(f"  {op['layer']:12} {op['op']} m={op['m']:<4g} n={op['n']:<4g} "
              f"k={op['k']:<4g} {op['layout']} {op['precision']} "
              f"accumulate={op['accumulate']} x{op['calls_per_step']:g}")
    print(f"{'metric':44} {'value':>14} unit")
    out = {}
    for m in metrics:
        value = values.get(m["name"])
        note = ""
        if value is None:
            value, note = 0.0, "  (not run by this workload)"
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:44} {value:14.6g} {m['unit']}{note}")
    unknown = sorted(set(values) - {m["name"] for m in metrics})
    if unknown:
        checks.failures.append("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    runs = [reference, *tr, *un, *extra]
    return checks, runs, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"BENCHMARK.json not found in {ROOT}", 2)
    end_to_end_metrics, per_layer_metrics, workloads = load_spec()
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (one of: {', '.join(workloads)})", 2)

    plain, traced_bin = build()
    if args.trace:
        checks, runs, metrics = traced(args, plain, traced_bin, per_layer_metrics)
    else:
        checks, runs, metrics = end_to_end(args, plain, end_to_end_metrics)

    for f in checks.failures:
        print(f"CHECK FAILED: {f}")
    result = {"correct": not checks.failures, "attempted": attempted_updates(runs),
              "failed": failed_updates(runs), "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
