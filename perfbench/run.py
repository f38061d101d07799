#!/usr/bin/env python3
"""vasim benchmark entry point.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve_mix --seed 7 --seconds 2 --trace 1 --smoke
    python3 perfbench/run.py --regen-ref      # rewrite perfbench/reference.tsv

Run from the repository root.  Builds the simulator and the measuring
binary from source into .bench_build/ (CMake), runs one workload, checks
that no file outside the benchmark's own output (.bench_out/) changed, and
prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join("perfbench", "reference.tsv")
WORKLOADS = ("paper_grid", "baseline_probe", "serve_mix")
RUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    for needed in ("src/CMakeLists.txt", "tools/vasim_cli.cpp", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a vasim source tree (missing %s)" % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def tree_state():
    """What 'files outside the benchmark's output' look like right now."""
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout
    h = hashlib.sha256()
    skip = {".bench_build", ".bench_out", ".git"}
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not (top == ROOT and d in skip))
        for f in sorted(files):
            p = os.path.join(top, f)
            st = os.lstat(p)
            h.update(("%s %d %d\n" % (os.path.relpath(p, ROOT), st.st_size,
                                      st.st_mtime_ns)).encode())
    return h.hexdigest()


def host_facts():
    facts = {"nproc": os.cpu_count()}
    try:
        with open(os.path.join(BUILD, "build_facts.txt")) as f:
            for line in f:
                k, _, v = line.strip().partition("=")
                facts[k] = v
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    facts["commit"] = commit
    return facts


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().split()[0]
    except OSError:
        return "unknown"


def invoke(cmd):
    """Runs the measuring binary; returns its result object and report lines."""
    env = dict(os.environ, VASIM_RESULTS="0", VASIM_JSON="0")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(cmd[:3]), RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(cmd[:3]), r.returncode))
    return json.loads(lines[-1])


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--regen-ref", action="store_true",
                    help="rewrite the checksum reference table (never during a run)")
    args = ap.parse_args()
    if not args.regen_ref and args.workload is None:
        ap.error("--workload is required")

    os.chdir(ROOT)
    build()
    binary = os.path.join(".bench_build", "perfbench")
    if args.regen_ref:
        sys.exit(subprocess.run([binary, "--regen-ref", REFERENCE]).returncode)

    os.makedirs(OUT, exist_ok=True)
    facts = host_facts()
    facts["loadavg_start"] = loadavg()
    before = tree_state()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--vasim", os.path.join(".bench_build", "vasim"), "--out", ".bench_out",
           "--reference", REFERENCE]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    run = invoke(cmd)
    facts["loadavg_end"] = loadavg()
    facts["wall_s"] = round(time.monotonic() - t0, 3)

    failed = run["failed"]
    attempted = max(1, run["attempted"])
    errors = run["errors"]
    if tree_state() != before:
        failed += 1
        errors.append("files outside .bench_out changed during the run")
    metrics, report = run["metrics"], run["report"]
    if failed == 0 or not args.trace:
        for m in declared(args.trace):
            got = metrics.get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                fail("metric %s missing or has the wrong unit" % m["name"])
        metrics = {m["name"]: metrics[m["name"]] for m in declared(args.trace)}
    report["error_frac"] = {"value": failed / attempted, "unit": "frac"}

    print("perfbench %s seed %d seconds %s trace %d%s" % (
        args.workload, args.seed, args.seconds, args.trace, " smoke" if args.smoke else ""))
    for k, m in metrics.items():
        print("  %s = %r %s" % (k, m["value"], m["unit"]))
    for k, m in report.items():
        print("  (%s = %r %s)" % (k, m["value"], m["unit"]))
    for e in errors:
        print("  FAILED: " + e)
    for k in sorted(facts):
        print("  host %s = %s" % (k, facts[k]))
    record = dict(host=facts, args=vars(args), attempted=attempted, failed=failed,
                  errors=errors, metrics=metrics, report=report)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
