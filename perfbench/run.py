#!/usr/bin/env python3
"""The repo's benchmark: paper figures rendered through service::renderFigure.

    python3 perfbench/run.py --workload analytic|sim_paper|warm_store \
        [--seed N] [--seconds T] [--trace 0|1]
    python3 perfbench/run.py --record

Builds perfbench/ (the repo's libraries plus a driver that intercepts
calls at layer boundaries) into .bench_build/, runs one workload for T
seconds and prints, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer metrics of BENCHMARK.json.

Seed 0 runs the paper inputs and checks every table byte for byte against
perfbench/reference/. Any other seed draws a held-out problem scale for
the simulated figures; their tables are then checked against a render at
another worker count. Every run compares its exact counts with
perfbench/ledger.json and reports drift as ledger.drift.

--record rewrites perfbench/reference/ and perfbench/ledger.json from the
current program. Do that only on purpose: the references are the
correctness gate.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"
DRIVER = BUILD / "perfbench_driver"
REFERENCE = BENCH / "reference"
LEDGER = BENCH / "ledger.json"

WORKLOADS = ("analytic", "sim_paper", "warm_store")
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5_multiprog")
# Held-out problem scales: within 2% of the paper's, so the work per run,
# and with it the timings, stay comparable across seeds.
HELD_OUT_SCALES = tuple(round(0.98 + 0.002 * i, 3) for i in range(10))
LEDGER_KEYS = ("sim.runs", "sim.events", "sim.cycles", "sim.instructions",
               "thermal.rhs_solves", "runner.price_points")
# Set-up samples per untraced run: at least this many, and until they
# add up to SETUP_SECONDS, since a set-up without a store fill is a few
# milliseconds of process start.
SETUPS = 3
SETUP_SECONDS = 0.5
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def scale_for(workload, seed):
    if workload == "analytic" or seed == 0:
        return 1.0
    return HELD_OUT_SCALES[random.Random(seed).randrange(len(HELD_OUT_SCALES))]


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no repo source tree next to {BENCH.name}/; nothing to build")
        sys.exit(2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", "-DTLPPM_SANITIZE="])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", "2"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("build timed out")
            sys.exit(1)
        if done.returncode != 0:
            log("build failed:", " ".join(cmd))
            sys.exit(1)


def run_driver(args, log_path):
    """Run the driver; return its JSON result (None when it prints none),
    or exit on failure."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TLPPM_")}
    with open(log_path, "w") as err:
        try:
            done = subprocess.run([str(DRIVER), *args], env=env,
                                  stdout=subprocess.PIPE, stderr=err,
                                  timeout=DRIVER_TIMEOUT_S, text=True)
        except subprocess.TimeoutExpired:
            log(f"driver timed out after {DRIVER_TIMEOUT_S} s; see {log_path}")
            sys.exit(1)
    with open(log_path) as err:
        for line in err:
            if line.startswith("perfbench"):
                sys.stderr.write(line)
    if done.returncode != 0:
        log(f"driver exited with {done.returncode}; see {log_path}")
        sys.exit(done.returncode)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def source_digest():
    """SHA-256 over the program's sources: the checkout is not always a
    git repository, so this identifies what was measured."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*"))]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(result):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True,
                timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "build_type": result["build"]["type"],
        "tlppm_sanitize": result["build"]["sanitize"],
        "cxx_flags": result["build"]["cxx_flags"],
    }


def iteration_counts(it):
    renders = it["renders"]
    return {
        "sim.runs": it["sim_runs"],
        "sim.events": it["sim_events"],
        "sim.cycles": it["sim_cycles"],
        "sim.instructions": it["sim_instructions"],
        "thermal.rhs_solves": sum(r.get("thermal_solves", 0) for r in renders),
        "runner.price_points": sum(r.get("price_calls", 0) for r in renders),
    }


def ledger_drift(workload, scale, iterations):
    """Ledger keys whose count moved: between iterations of this run, or
    away from the recorded ledger."""
    recorded = {}
    if LEDGER.is_file():
        recorded = json.loads(LEDGER.read_text()).get(workload, {}).get(
            str(scale), {})
    drifted = []
    for key in LEDGER_KEYS:
        seen = {iteration_counts(it)[key] for it in iterations}
        if len(seen) > 1:
            drifted.append(key)
            log(f"ledger drift: {key} varies within the run: {sorted(seen)}")
        elif key in recorded and recorded[key] not in seen:
            drifted.append(key)
            log(f"ledger drift: {key} = {seen.pop()}, recorded "
                f"{recorded[key]} for {workload} at scale {scale}")
    return len(drifted)


def summary(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(result, untraced):
    return {
        "wall_s": summary([it["wall_s"] for it in untraced]),
        "cpu_s": summary([it["cpu_s"] for it in untraced]),
        "setup_s": summary(result["setup_s"]),
        "peak_rss_mb": summary([result["peak_rss_kb"] / 1024.0]),
        "ok_share": summary([1.0 - ratio(result["failed"],
                                         result["attempted"])]),
    }


def per_layer(result, workload, scale, untraced, traced):
    def median_of(fn, its):
        return statistics.median(fn(it) for it in its)

    def total(key):
        return lambda it: sum(r.get(key, 0) for r in it["renders"])

    def rate(hit, miss):
        return lambda it: ratio(total(hit)(it), total(hit)(it) + total(miss)(it))

    m = {key: statistics.median(it["layers"][key] for it in traced)
         for key in traced[0]["layers"]}
    m["thermal.rhs_solves"] = median_of(total("thermal_solves"), traced)
    m["thermal.solve_passes"] = median_of(total("thermal_solve_passes"), traced)
    m["thermal.rhs_per_pass"] = ratio(m["thermal.rhs_solves"],
                                      m["thermal.solve_passes"])
    m["thermal.fallback_solves"] = median_of(total("thermal_fallback_solves"),
                                             traced)
    m["thermal.factorizations"] = median_of(total("thermal_factorizations"),
                                            traced)
    m["runner.price_points"] = median_of(total("price_calls"), traced)
    m["runner.us_per_point"] = ratio(m["runner.price_s"] * 1e6,
                                     m["runner.price_points"])
    m["runner.store_records"] = max(
        (r.get("store_loaded", 0) for it in traced for r in it["renders"]),
        default=0)
    m["runner.store_hit_rate"] = median_of(rate("store_hits", "store_misses"),
                                           traced)
    m["runner.store_bytes"] = result["store_bytes"]
    m["runner.raw_hit_rate"] = median_of(rate("raw_hits", "raw_misses"), traced)
    m["runner.priced_hit_rate"] = median_of(
        rate("priced_hits", "priced_misses"), traced)
    m["runner.pool_steals"] = median_of(total("pool_steals"), traced)
    for figure in FIGURES:
        m[f"service.render_s.{figure}"] = median_of(
            lambda it: sum(r["wall_s"] for r in it["renders"]
                           if r["figure"] == figure), untraced)
    m["trace.overhead"] = ratio(
        statistics.median(it["wall_s"] for it in traced),
        statistics.median(it["wall_s"] for it in untraced))
    reported = median_of(total("sim_events"), untraced)
    m["trace.sim_coverage"] = (ratio(m["sim.events"], reported)
                               if reported or m["sim.events"] else 1.0)
    m["ledger.drift"] = ledger_drift(workload, scale, untraced + traced)
    m["failed_share"] = ratio(result["failed"], result["attempted"])
    return m


def run_workload(workload, scale, tag, setups, measure_args):
    """Set the workload up in separate processes, each timed from start to
    exit, then measure it in another, so that the measured process's peak
    memory is the timed renders' own. Returns the measure result with the
    set-up times and checks added."""
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", workload, "--scale", repr(scale),
              "--work", str(work), "--reference", str(REFERENCE)]
    setup_s, setup_results = [], []
    while len(setup_s) < setups or (setups > 1 and
                                    sum(setup_s) < SETUP_SECONDS):
        start = time.perf_counter()
        setup_results.append(run_driver(["--mode", "setup", *common],
                                        WORK / f"{tag}.setup.log"))
        setup_s.append(time.perf_counter() - start)
    result = run_driver(["--mode", "measure", *common, *measure_args],
                        WORK / f"{tag}.log")
    result["setup_s"] = setup_s
    for setup in setup_results:
        result["attempted"] += setup["attempted"]
        result["failed"] += setup["failed"]
    result["failures"] = [f for r in (*setup_results, result)
                          for f in r["failures"]]
    return result


def run(opts):
    scale = scale_for(opts.workload, opts.seed)
    build()
    WORK.mkdir(exist_ok=True)
    tag = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    log(f"{opts.workload}: seed {opts.seed}, scale {scale}, "
        f"{opts.seconds} s, trace {opts.trace}")
    result = run_workload(
        opts.workload, scale, tag, 1 if opts.trace else SETUPS,
        ["--seconds", str(opts.seconds), "--trace", str(opts.trace),
         "--trace-out", str(WORK / f"{tag}.trace.json")])
    host = stamp(result)

    untraced = [it for it in result["iterations"] if not it["traced"]]
    traced = [it for it in result["iterations"] if it["traced"]]
    if opts.trace:
        stats = {k: {"median": v} for k, v in
                 per_layer(result, opts.workload, scale, untraced,
                           traced).items()}
    else:
        ledger_drift(opts.workload, scale, untraced)
        stats = end_to_end(result, untraced)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if opts.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in stats]
    if missing:
        log("metrics BENCHMARK.json declares but the run lacks:", missing)
        sys.exit(1)
    units = {m["name"]: m["unit"] for m in declared}

    record = {"stamp": host, "workload": opts.workload, "seed": opts.seed,
              "scale": scale, "seconds": opts.seconds, "trace": opts.trace,
              "attempted": result["attempted"], "failed": result["failed"],
              "failures": result["failures"], "metrics": stats}
    (WORK / f"{tag}.result.json").write_text(json.dumps(record, indent=1))
    for name, s in stats.items():
        spread = (f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}"
                  if "n" in s else "")
        log(f"  {name:32s} {s['median']:.6g} {units.get(name, '')}{spread}")

    print(json.dumps({"stamp": host}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }))


def record():
    """Rewrite the references and the exact-count ledger."""
    build()
    WORK.mkdir(exist_ok=True)
    for workload in ("analytic", "warm_store"):  # together: every figure
        run_driver(["--mode", "reference", "--workload", workload,
                    "--work", str(WORK / "record"),
                    "--reference", str(REFERENCE)], WORK / "record.log")
    ledger = {}
    for workload in WORKLOADS:
        scales = (1.0,) if workload == "analytic" else \
            (1.0, *HELD_OUT_SCALES)
        for scale in scales:
            result = run_workload(workload, scale, "record", 1,
                                  ["--seconds", "0"])
            if result["failed"]:
                log("record: failures", result["failures"])
                sys.exit(1)
            counts = iteration_counts(result["iterations"][0])
            ledger.setdefault(workload, {})[str(scale)] = counts
            log(f"record: {workload} @ {scale}: {counts}")
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    opts = parser.parse_args()
    if opts.record:
        record()
    elif opts.workload:
        run(opts)
    else:
        parser.error("--workload or --record is required")


if __name__ == "__main__":
    main()
