#!/usr/bin/env python3
"""End-to-end benchmark of the parallelizer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the repo's libraries plus
the C++ runner) into .bench_build/perfbench, runs it on one seeded
workload for S seconds, checks its outputs and prints a report. The last
line of stdout is one JSON object: {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones (the runner then alternates traced and untraced rounds, and
reports the difference as the tracing overhead).

A crash of the runner (the program under test runs in-process) counts as
one failed operation, with the signal named; it is not retried.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 160  # the whole run must end within 180 s

WORKLOADS = ("compile-corpus", "exec-kernels", "seismic-medium")

# Per-layer metrics. Every traced run prints all of them; a layer the
# workload does not exercise reads 0. Each names the workload where it
# should move round_ms, and the workload-level timing of the report it
# feeds there (compile_batch_ms, exec_<mode>_ms, seismic_<flavor>_s).
PASSES = ("ddtest", "privatization", "induction", "inline", "gsa", "constprop", "reduction",
          "other")
PROGRAMS = ("seismic", "gamess", "sander", "perfect", "linpack")
KERNELS = ("jacobi", "reduce", "private", "gather", "alias", "conflict")
MODES = ("serial", "parallel", "spec")
PHASES = ("datagen", "stack", "fft3d", "findiff")
FLAVORS = ("serial", "mpi", "openmp", "polaris", "specpriv")

CC, EK, SM = WORKLOADS
# name -> (unit, better, workload, the workload-level timing it should move)
PER_LAYER = {"frontend.parse_ms": ("ms", "lower", CC, "compile_batch_ms")}
PER_LAYER.update({f"core.pass.{p}_ms": ("ms", "lower", CC, "compile_batch_ms") for p in PASSES})
PER_LAYER.update({f"core.compile_ms.{p}": ("ms", "lower", CC, "compile_batch_ms")
                  for p in PROGRAMS})
PER_LAYER.update({
    "dependence.symbolic_ops": ("count", "lower", CC, "compile_batch_ms"),
    "dependence.pairs_tested": ("count", "lower", CC, "compile_batch_ms"),
    "dependence.gave_up_frac": ("frac", "lower", CC, "compile_batch_ms"),
    "sched.queries": ("count", "lower", CC, "compile_batch_ms"),
    "sched.cache_hit_frac": ("frac", "higher", CC, "compile_batch_ms"),
    "sched.fanout_eff": ("frac", "higher", CC, "compile_batch_ms"),
    "guard.incidents": ("count", "lower", CC, "compile_batch_ms"),
    "interp.machine_build_ms": ("ms", "lower", EK, "exec_*_ms"),
})
PER_LAYER.update({f"interp.{k}.{m}_ms": ("ms", "lower", EK, f"exec_{m}_ms")
                  for k in KERNELS for m in MODES})
PER_LAYER.update({
    "interp.serial_ns_per_iter": ("ns", "lower", EK, "exec_serial_ms"),
    "runtime.forks": ("count", "lower", EK, "exec_parallel_ms"),
    "runtime.fork_join_us": ("us", "lower", EK, "exec_parallel_ms"),
    "runtime.parallel_eff": ("frac", "higher", EK, "exec_parallel_ms"),
    "spec.attempts": ("count", "higher", EK, "exec_spec_ms"),
    "spec.commit_frac": ("frac", "higher", EK, "exec_spec_ms"),
    "spec.rollbacks": ("count", "lower", EK, "exec_spec_ms"),
    "spec.fallbacks": ("count", "lower", EK, "exec_spec_ms"),
    "spec.overhead_frac": ("frac", "lower", EK, "exec_spec_ms"),
    "spec.profile_ms": ("ms", "lower", EK, "setup_s"),
})
PER_LAYER.update({f"seismic.{p}.{f}_ms": ("ms", "lower", SM, f"seismic_{f}_s")
                  for p in PHASES for f in FLAVORS})
PER_LAYER.update({
    "mpisim.messages": ("count", "lower", SM, "seismic_mpi_s"),
    "mpisim.bytes": ("count", "lower", SM, "seismic_mpi_s"),
    "mpi.retries": ("count", "lower", SM, "seismic_mpi_s"),
    "mpi.timeouts": ("count", "lower", SM, "seismic_mpi_s"),
    "seismic.specpriv.commit_frac": ("frac", "higher", SM, "seismic_specpriv_s"),
    "trace.overhead_frac": ("frac", "lower", "all", "round_ms"),
    "selfcheck.count_mismatches": ("count", "lower", "all", "correct"),
})

# Counts that must repeat exactly for a seed, within a run and across runs.
EXACT_COUNTS = ("dependence.symbolic_ops", "dependence.pairs_tested", "sched.queries",
                "guard.incidents", "spec.attempts", "spec.rollbacks", "mpisim.messages",
                "mpisim.bytes")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    """Exit without a result: the benchmark could not run at all."""
    log(f"perfbench: {msg}")
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("no parallelizer sources (src/CMakeLists.txt) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail_setup("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail_setup("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """Digest of everything the runner is built from; names the stored counts."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_once(binary, args):
    # The program sees only generated inputs: no AP_* knobs from outside.
    env = {k: v for k, v in os.environ.items() if not k.startswith("AP_")}
    # Fixed malloc thresholds. glibc otherwise raises its mmap threshold as
    # threads free large blocks, in whatever order they happen to, so
    # exec-kernels' parallel rounds ran either ~210 or ~260 ms from one
    # process to the next and seismic-medium's peak RSS ranged over
    # 115-147 MB. Fixed, both repeat within a few percent.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(128 << 20)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--data", BENCH_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        ended = None
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        ended = f"timeout after {RUN_TIMEOUT_S} s"
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            log(f"perfbench: unparsable runner line: {line[:200]}")
    if ended is None and proc.returncode < 0:
        ended = f"crashed with {signal.Signals(-proc.returncode).name}"
    elif ended is None and proc.returncode != 0:
        ended = f"exited with code {proc.returncode}"
    return records, ended


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90, 95, 99, 99.9):
        if len(xs) * (1 - p / 100) >= 10:
            best = (p, statistics.quantiles(xs, n=1000, method="inclusive")[int(p * 10) - 1])
    return best


def describe(name, xs, unit, scale=1.0):
    xs = [x * scale for x in xs]
    text = f"  {name:<24} {median(xs):12.4f} {unit:<5} n={len(xs)}"
    t = tail(xs)
    if t:
        text += f"  p{t[0]:g}={t[1]:.4f}"
    return text


def check_counts(traced, args):
    """Exact-count self-check: every traced round, and every earlier traced
    run of the same seed and sources, must give the same counts."""
    problems = []
    counts = None
    for r in traced:
        c = {k: v for k, v in r.get("counts", {}).items() if k in EXACT_COUNTS}
        if counts is None:
            counts = c
        elif c != counts:
            problems.append(f"counts differ between rounds: {counts} vs {c}")
    if not counts:
        return problems
    store = os.path.join(BUILD_DIR, "counts")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{args.workload}-seed{args.seed}-{source_digest()}.json")
    if os.path.isfile(path):
        with open(path) as f:
            previous = json.load(f)
        if previous != counts:
            problems.append(f"counts differ from an earlier run of seed {args.seed}: "
                            f"{previous} vs {counts}")
    else:
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    records, ended = run_once(binary, args)

    host = next((r for r in records if r.get("ev") == "host"), {})
    setups = [r for r in records if r.get("ev") == "setup"]
    rounds = [r for r in records if r.get("ev") == "round"]
    end = next((r for r in records if r.get("ev") == "end"), {})
    if not rounds or not setups:
        fail_setup(f"runner produced no measured round ({ended or 'no output'})")

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    errors = [e for r in rounds for e in r["errors"]]
    if ended:
        # The operation in flight when the runner died failed.
        attempted += 1
        failed += 1
        errors.append(f"runner {ended} after {len(rounds)} rounds")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"host: nproc={host.get('nproc')} threads={host.get('threads')} "
          f"build={host.get('build_type')} compiler={host.get('compiler')} "
          f"simd.width={host.get('simd_width')}")
    for e in errors:
        print(f"FAILED: {e}")

    setup_s = median([s["s"] for s in setups])
    round_ms = median([r["ms"] for r in plain])
    serial_ms = median([r["parts"]["serial"] for r in plain])
    # round_ms, serial_ms, peak_rss_mb and setup_s are the gated metrics
    # (BENCHMARK.json); serial_ms is the round's single-threaded part
    # (serial compile batch, serial kernels, serial seismic flavor).
    print("end to end (untraced rounds; median, sample count, tail):")
    print(describe("setup_s", [s["s"] for s in setups], "s"))
    print(f"  {'fail_frac':<24} {failed / attempted:12.4f}       {failed}/{attempted}")
    print(f"  {'peak_rss_mb':<24} {end.get('peak_rss_mb', 0.0):12.4f} MB")
    print(describe("round_ms", [r["ms"] for r in plain], "ms"))
    print(describe("serial_ms", [r["parts"]["serial"] for r in plain], "ms"))
    if args.workload == CC:
        print(describe("compile_batch_ms", [r["parts"]["batch"] for r in plain], "ms"))
        stmts = sum(r["parts"]["stmts"] for r in plain)
        print(f"  {'compile_stmts_per_s':<24} "
              f"{stmts / max(1e-9, sum(r['ms'] for r in plain) / 1e3):12.1f} 1/s")
    elif args.workload == EK:
        for m in MODES:
            print(describe(f"exec_{m}_ms", [r["parts"][m] for r in plain], "ms"))
    else:
        for f in FLAVORS:
            print(describe(f"seismic_{f}_s", [r["parts"][f] for r in plain], "s", 1e-3))

    overhead = 0.0
    if traced:
        overhead = median([r["ms"] for r in traced]) / round_ms - 1 if round_ms else 0.0
        print(f"tracing overhead: traced round median {median([r['ms'] for r in traced]):.4f} ms "
              f"(n={len(traced)}) vs untraced {round_ms:.4f} ms (n={len(plain)}): "
              f"{100 * overhead:+.2f}%")
        for part in sorted(traced[0]["parts"]):
            if part == "stmts":
                continue
            t, u = (median([r["parts"][part] for r in rs]) for rs in (traced, plain))
            print(f"  {part:<10} traced {t:10.4f} ms  untraced {u:10.4f} ms")

    correct = failed == 0
    if args.trace:
        problems = check_counts(traced, args)
        for p in problems:
            print(f"COUNT DRIFT: {p}")
        correct = correct and not problems
        layers = {}
        for name in PER_LAYER:
            vals = [r["layers"][name] for r in traced if name in r.get("layers", {})]
            counts = [r["counts"][name] for r in traced if name in r.get("counts", {})]
            layers[name] = statistics.median_low(counts) if counts else median(vals)
        layers["spec.profile_ms"] = median([s["spec_profile_ms"] for s in setups
                                            if "spec_profile_ms" in s])
        layers["runtime.fork_join_us"] = end.get("fork_join_us", 0.0)
        layers["trace.overhead_frac"] = overhead
        layers["selfcheck.count_mismatches"] = len(problems)
        print("per layer (traced rounds; median):")
        for name, (unit, _, workload, moves) in PER_LAYER.items():
            if workload in (args.workload, "all"):
                print(f"  {name:<34} {layers[name]:14.4f} {unit:<5} feeds {moves}")
        metrics = {n: {"value": layers[n], "unit": PER_LAYER[n][0]} for n in PER_LAYER}
    else:
        metrics = {
            "round_ms": {"value": round_ms, "unit": "ms"},
            "serial_ms": {"value": serial_ms, "unit": "ms"},
            "peak_rss_mb": {"value": end.get("peak_rss_mb", 0.0), "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
