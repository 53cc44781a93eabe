#!/usr/bin/env python3
"""Self-test of the benchmark: reduced sizes of every workload, both modes.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  * an untraced run prints exactly the end_to_end metrics of BENCHMARK.json
    and a traced run exactly the per_layer ones, each with its unit, and
    that every check passes (correct, no failed job);
  * serve-cold reports a cache hit ratio of 0 and serve-warm of 1;
  * a traced run writes its spans (id, parent, job, name, start, end);
  * the correctness gate counts a failed job when one cached row of a
    temp copy of the warm cache file is corrupted;
  * a run too short to back its p90 exits non-zero without a result.
Exits 1 when any check fails.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

WORKLOADS = ["serve-cold", "serve-warm", "calibrated-explore"]
failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def driver(workload, trace, *extra, small=True):
    cmd = [run.DRIVER, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--out-dir", ".bench_out/selftest",
           "--data-dir", os.path.relpath(os.path.join(run.HERE, "data"),
                                         run.ROOT)]
    if small:
        cmd.append("--small")
    cmd.extend(extra)
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def parse(lines):
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    return result, detail


def main():
    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in WORKLOADS:
        for trace in (0, 1):
            tag = "%s trace=%d" % (w, trace)
            code, lines, err = driver(w, trace)
            expect(code == 0, "%s exits 0 (%s)" % (tag, err.strip()[-200:]))
            if code != 0:
                continue
            result, detail = parse(lines)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   tag + " result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   tag + " correct with no failed job")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], tag + " emits every metric with its unit")
            values = [v["value"] for v in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) for v in values),
                   tag + " metric values are numbers")
            for key in ("host_nproc", "build_type", "cpu_steal_share",
                        "cpu_iowait_share"):
                expect(key in detail, "%s records host fact %s" % (tag, key))
            if trace == 1:
                ratio = result["metrics"]["server.cache.hit_ratio"]["value"]
                if w == "serve-cold":
                    expect(ratio == 0, tag + " cache hit ratio is 0")
                if w == "serve-warm":
                    expect(ratio == 1, tag + " cache hit ratio is 1")
                path = os.path.join(run.ROOT, detail.get("spans_file", ""))
                try:
                    with open(path) as f:
                        spans = json.load(f)["spans"]
                except (OSError, ValueError, KeyError):
                    spans = []
                expect(len(spans) > 0 and all(
                    set(s) == {"id", "parent", "job", "name", "start_us",
                               "end_us"} and s["end_us"] >= s["start_us"]
                    for s in spans), tag + " writes its spans")

    code, lines, _ = driver("serve-warm", 0, "--corrupt-row")
    if code == 0:
        result, _ = parse(lines)
        expect(result["failed"] >= 1 and not result["correct"],
               "a corrupted cached row fails its job")
    else:
        expect(False, "corrupt-row run exits 0")

    code, lines, _ = driver("calibrated-explore", 0, small=False)
    expect(code != 0 and not any(l.startswith('{"correct"') for l in lines),
           "an unbacked p90 ends the run without a result")

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
