#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload and the traced run at
tiny sizes.  Asserts that every metric BENCHMARK.json names is printed with
its unit, that error_frac is 0, and that no tracked file changed.

    python3 perfbench/test_smoke.py
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
# Printed in the report lines, outside BENCHMARK.json's metric sets.
COMMON = [("error_frac", "frac"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
          ("peak_rss_mb", "MB")]
REPORT_ONLY = {"paper_grid": COMMON + [("fig4_ratio_err", "ratio")],
               "baseline_probe": COMMON,
               "serve_mix": COMMON}


def printed(stdout):
    """name -> unit for every '  name = value unit' report line."""
    out = {}
    for line in stdout.splitlines():
        m = re.match(r"^\s+\(?([A-Za-z0-9_.-]+) = (\S+) (\S+?)\)?$", line)
        if m:
            out[m.group(1)] = (float(m.group(2)), m.group(3))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            r = subprocess.run([sys.executable, RUN, "--workload", w, "--seed", "5",
                                "--seconds", "1", "--trace", str(trace), "--smoke"],
                               cwd=ROOT, capture_output=True, text=True, timeout=600)
            tag = "%s trace=%d" % (w, trace)
            if r.returncode != 0:
                failures.append("%s: exit %d\n%s" % (tag, r.returncode, r.stderr[-2000:]))
                continue
            result = json.loads(r.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (tag, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: failed %d\n%s" % (tag, result["failed"], r.stdout))
            lines = printed(r.stdout)
            want = [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]
            if not trace:
                want += REPORT_ONLY[w]
            for name, unit in want:
                if name not in lines or lines[name][1] != unit:
                    failures.append("%s: %s not printed with unit %s" % (tag, name, unit))
                if not trace and name not in dict(REPORT_ONLY[w]) and \
                        result["metrics"][name]["unit"] != unit:
                    failures.append("%s: %s has the wrong unit in the result" % (tag, name))
            if lines.get("error_frac", (1.0,))[0] != 0.0:
                failures.append("%s: error_frac is not 0" % tag)
            print("ok  " + tag)
    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
