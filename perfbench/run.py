#!/usr/bin/env python3
"""Repository benchmark: build the OCaml harness, run one workload for a
fixed time, check its outputs, print every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Each run repeats the workload from a fresh
process (same seed, so the same inputs) until --seconds have passed, and
reports the median of the real-clock figures over those repetitions,
scaled for machine speed by a calibration kernel timed between them.
Simulated figures and counts must repeat exactly; that is checked.

--trace 0 prints the end-to-end metrics. --trace 1 also runs timed and
critical-path repetitions and prints the per-layer metrics; the span log
of the last timed repetition is written under .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every correctness check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["oltp_contended", "nav_spill", "shard_2pc"]
EXE = os.path.join(".bench_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = ".bench_out"
REP_TIMEOUT_S = 150
# Independent draws of each workload measured in one run (see run_reps).
INSTANCES = {"oltp_contended": 16, "nav_spill": 4, "shard_2pc": 8}

# Metric names, units and sections come from BENCHMARK.json. Each rep of
# perfbench.exe reports figures in named sections: "sim" and
# "layer_counts" repeat exactly for a seed, "real" holds real-clock and
# GC figures, "timers" the timed calls (timed reps only) and "critpath"
# the simulated wait shares (critpath reps only). A metric's source is
# the section that carries its name; values() derives setup_s, the wall
# time per commit and the tracing overhead from several repetitions.
SECTIONS = ("sim", "layer_counts", "real", "timers", "critpath")
TIME_UNITS = ("s", "us", "ns")
# Real-clock times are scaled to a machine on which the calibration
# kernel (common.ml) takes this long; the 2-vCPU x86-64 cloud VM the
# bounds were measured on takes 45-70 ms. The kernel uses no part of the
# storage manager, so a change to the program does not move it, while a
# machine that runs everything slower for a while moves both alike.
CALIB_REF_S = 0.05


def declared():
    with open("BENCHMARK.json") as f:
        b = json.load(f)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]})


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", ".bench_build",
           "--profile", "release", "--display", "quiet", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)


def rep(workload, seed, mode, scale="full", inject=False, spans=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--mode", mode, "--scale", scale]
    if inject:
        cmd.append("--inject")
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s %s repetition timed out" % (workload, mode))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("%s %s repetition exited %d" % (workload, mode, r.returncode))
    out = json.loads(r.stdout.strip().splitlines()[-1])
    out["rep_s"] = time.monotonic() - t0
    return out


def calibrate(n):
    try:
        r = subprocess.run([EXE, "--calibrate", str(n)], stdout=subprocess.PIPE, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("calibration timed out")
    if r.returncode != 0:
        fail("calibration exited %d" % r.returncode)
    return json.loads(r.stdout.strip().splitlines()[-1])["calib_s"]


def instance_seed(seed, i):
    return (seed * 1000 + i) % (1 << 61)


def run_reps(workload, seed, seconds, trace, scale):
    """Run the workload's instances, then repeat them until `seconds` have
    passed. Instance i draws its inputs from instance_seed(seed, i), so a
    run measures several independent draws of the workload and the same
    seed always gives the same draws. Untraced runs repeat instance 0 at
    least once (the same-seed check). Traced runs pair every plain
    repetition with a timed one of the same instance (the observer-effect
    check), then make one critical-path repetition."""
    k = INSTANCES[workload] if scale == "full" else 2
    seeds = [instance_seed(seed, i) for i in range(k)]
    spans = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "spans-%s-seed%d.csv" % (workload, seed))
        plan = [(s, m) for s in seeds for m in ("plain", "timed")] + [(seeds[0], "critpath")]
    else:
        plan = [(s, "plain") for s in seeds] + [(seeds[0], "plain")]
    start = time.monotonic()
    reps = []
    calib = []
    i = 0
    while True:
        if i < len(plan):
            s, mode = plan[i]
        elif trace or time.monotonic() - start + reps[-1]["rep_s"] > seconds:
            break
        else:
            s, mode = seeds[(i - 1) % k], "plain"
        # One calibration kernel per started second of the last
        # repetition: samples spread over the whole run.
        calib += calibrate(1 + int(reps[-1]["rep_s"]) if reps else 1)
        r = rep(workload, s, mode, scale, spans=spans if mode == "timed" else None)
        r["instance"] = seeds.index(s)
        reps.append(r)
        i += 1
    return seeds, reps, calib


def med(reps, section, name):
    return statistics.median(r[section][name] for r in reps)


def firsts(seeds, reps, mode):
    """The first repetition of each instance in [mode]: the figures that
    repeat exactly for a seed are medians over these."""
    out = []
    for i in range(len(seeds)):
        out += [r for r in reps if r["instance"] == i and r["mode"] == mode][:1]
    return out


def check(seeds, reps):
    """Every repetition's own checks, plus: same seed, same code, so every
    simulated outcome of an instance repeats exactly, traced or not (only
    the wall clock may differ), and different seeds give different
    fingerprints."""
    failures = []
    for r in reps:
        for c in r["checks"]:
            if not c["ok"]:
                failures.append("%s (instance %d, %s): %s"
                                % (c["name"], r["instance"], r["mode"], c["detail"]))
    base = firsts(seeds, reps, "plain")
    for r in reps:
        if r["mode"] == "critpath":
            continue
        b = base[r["instance"]]
        for key in ("fingerprint", "sim", "layer_counts", "counts", "fails"):
            if r[key] != b[key]:
                kind = "observer effect" if r["mode"] == "timed" else "nondeterminism"
                failures.append("%s: %s of instance %d differs between %s and plain repetitions"
                                % (kind, key, r["instance"], r["mode"]))
    if len({r["fingerprint"] for r in base}) != len(base):
        failures.append("different seeds gave the same fingerprint")
    return failures


def per_instance_wall(seeds, reps, mode):
    """Median wall per commit of each instance's [mode] repetitions, then
    the median over instances: instances that happened to repeat more
    often within --seconds weigh no more than the others."""
    return statistics.median(
        statistics.median(r["real"]["wall_us_per_commit"] for r in reps
                          if r["instance"] == i and r["mode"] == mode)
        for i in range(len(seeds)))


def values(names, seeds, reps, speed):
    """name -> unit for each metric to report. Real-clock times are
    multiplied by [speed], the calibration scale. Raises KeyError when
    the exe emits no figure of that name."""
    base = firsts(seeds, reps, "plain")
    by_mode = {"timers": [r for r in reps if r["mode"] == "timed"],
               "critpath": [r for r in reps if r["mode"] == "critpath"]}
    out = {}
    for name, unit in names.items():
        if name == "setup_s":
            v = speed * med(reps, "real", "setup_s")
        elif name == "wall_us_per_commit":
            v = speed * per_instance_wall(seeds, reps, "plain")
        elif name == "trace.overhead_us_per_commit":
            v = speed * (per_instance_wall(seeds, reps, "timed")
                         - per_instance_wall(seeds, reps, "plain"))
        else:
            group = None
            for section in SECTIONS:
                group = by_mode.get(section, base)
                if group and name in group[0][section]:
                    break
            else:
                raise KeyError(name)
            # Simulated figures, counts, allocation and heap repeat
            # exactly per instance: median over the instances. Timers:
            # median over the timed repetitions, one per instance.
            # Wait shares: the one critical-path repetition.
            v = med(group, section, name)
            if section in ("real", "timers") and unit in TIME_UNITS:
                v *= speed
        out[name] = {"value": v, "unit": unit}
    return out


def run(args):
    build()
    seeds, reps, calib = run_reps(args.workload, args.seed, args.seconds, args.trace, args.scale)
    speed = CALIB_REF_S / statistics.median(calib)
    failures = check(seeds, reps)
    base = firsts(seeds, reps, "plain")
    print("workload %s  seed %d  trace %d  instances %d  repetitions %d"
          % (args.workload, args.seed, args.trace, len(seeds), len(reps)))
    for r in base:
        print("  instance %d: %d attempts, %d committed, %d failed %s; %d latency samples, "
              "%d above p99; fingerprint %s"
              % (r["instance"], r["attempted"], r["committed"], r["failed"],
                 json.dumps(r["fails"], sort_keys=True), r["samples"], r["beyond_p99"],
                 r["fingerprint"]))
    print("  calibration kernel: median %.6f s over %d samples; real-clock times scaled by %.6f"
          % (statistics.median(calib), len(calib), speed))
    print("  unscaled wall_us_per_commit %.6f us, setup_s %.6f s"
          % (per_instance_wall(seeds, reps, "plain"), med(reps, "real", "setup_s")))
    end_to_end, per_layer = declared()
    shown = values(end_to_end, seeds, reps, speed)
    shown.update(values(per_layer if args.trace else {"fail_frac": per_layer["fail_frac"]},
                        seeds, reps, speed))
    for name, m in shown.items():
        print("  %-36s %18.6f %s" % (name, m["value"], m["unit"]))
    for f in failures:
        print("CHECK FAILED: " + f)
    print("correctness checks: %s" % ("all passed" if not failures else "%d failed" % len(failures)))
    reported = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: shown[k] for k in reported},
    }))
    return 0 if not failures else 1


def self_test():
    """Tiny-scale self-test: every check passes on the current code (the
    same-seed repeat, the observer-effect pairs, distinct fingerprints per
    seed), the determinism check notices a changed fingerprint, each
    workload's shadow checker flags an injected wrong value, both trace
    modes find a figure for every metric BENCHMARK.json declares, and
    every call the exe times is declared."""
    build()
    end_to_end, per_layer = declared()
    problems = []

    def expect(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            problems.append(what)

    for w in WORKLOADS:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            seeds, reps, _ = run_reps(w, 1, 0, trace, "tiny")
            failures = check(seeds, reps)
            expect(not failures, "%s: --trace %d checks pass %s" % (w, trace, failures))
            try:
                values(names, seeds, reps, 1.0)
                missing = []
            except KeyError as e:
                missing = [str(e)]
            expect(not missing, "%s: --trace %d prints every declared metric %s"
                   % (w, trace, missing))
        timed = next(r for r in reps if r["mode"] == "timed")
        undeclared = sorted(set(timed["timers"]) - set(per_layer))
        expect(not undeclared, "%s: every timed call is declared %s" % (w, undeclared))
        reps[-2] = dict(reps[-2], fingerprint="0" * 32)
        expect(any("observer effect" in f for f in check(seeds, reps)),
               "%s: a changed fingerprint is flagged" % w)
        bad = rep(w, 1, "plain", "tiny", inject=True)
        failed = [x["name"] for x in bad["checks"] if not x["ok"]]
        expect(not bad["correct"] and len(failed) == 1,
               "%s: injected wrong value flagged by %s" % (w, failed))
    print("self-test: %s" % ("passed" if not problems else "%d failed" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None or args.seed is None or args.seed < 0:
        ap.error("--workload and a non-negative --seed are required")
    sys.exit(run(args))


if __name__ == "__main__":
    main()
