#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --trace 0|1
    python3 perfbench/run.py --self-check

Builds the OCaml benchmark program (perfbench/bench.ml) and the turbosyn
CLI from the sources of this checkout with dune, runs one workload (or
each in turn), checks that the printed metrics are exactly the ones
BENCHMARK.json names (with their units and finite values), and prints the
result object as the last line of standard output.  The exit code is 0 only when every correctness
check of the run passed.  perfbench/METRICS.md describes the workloads and
every metric.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
BENCH_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join(ROOT, "_build", "default", "bin", "turbosyn_cli.exe")
RUN_TIMEOUT = 170
SOURCES = ["dune-project", "lib", "bin", "perfbench"]


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for path in SOURCES:
        if not os.path.exists(os.path.join(ROOT, path)):
            die(2, "source tree incomplete: %s is missing" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "perfbench/bench.exe", "bin/turbosyn_cli.exe"],
            cwd=ROOT, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(3, "build failed: %s" % e)
    if proc.returncode != 0:
        die(3, "build failed (dune exit %d)" % proc.returncode)


def revision():
    """Git commit when the checkout has one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in SOURCES:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sources:" + h.hexdigest()[:16]


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_bench(workload, seed, seconds, trace, quick=False):
    """Run one workload; returns (exit code, stdout lines)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server", CLI_EXE, "--work", WORK, "--commit", revision()]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        die(4, "run exceeded %d s" % RUN_TIMEOUT)
    finally:
        stop_group(proc.pid)
    return proc.returncode, out.splitlines()


def check_result(spec, line, trace):
    """Parse the result line and check it against BENCHMARK.json."""
    try:
        res = json.loads(line)
    except (ValueError, TypeError):
        return None, "no result line"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys %s" % sorted(res)
    want = spec["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    names = {m["name"] for m in want}
    if set(got) != names:
        return None, "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(names - set(got)), sorted(set(got) - names))
    for m in want:
        v = got[m["name"]]
        if v.get("unit") != m["unit"]:
            return None, "%s: unit %r, BENCHMARK.json says %r" % (
                m["name"], v.get("unit"), m["unit"])
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            return None, "%s: value %r is not a finite number" % (m["name"], v.get("value"))
        if not trace and v["value"] == 0:
            return None, "%s: end-to-end metric reads 0" % m["name"]
    if res["attempted"] < 1:
        return None, "attempted < 1"
    return res, None


def self_check(spec):
    """Short pass over every workload: every metric is emitted with its unit
    and a finite value, and two runs at one seed agree on the QoR metrics."""
    deterministic = {0: ["phi_geomean", "luts_total"],
                     1: ["period_gain_vs_turbomap", "period_gain_vs_flowsyn"]}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            values = []
            for _ in range(2):
                code, lines = run_bench(w["name"], 7, 2, trace, quick=True)
                res, err = check_result(spec, lines[-1] if lines else None, trace)
                if err is None and (code != 0 or not res["correct"]):
                    err = "run failed its correctness checks (exit %d)" % code
                if err:
                    print("self-check: %s trace=%d: %s" % (w["name"], trace, err))
                    ok = False
                    break
                values.append({k: res["metrics"][k]["value"] for k in deterministic[trace]})
            if len(values) == 2 and values[0] != values[1]:
                print("self-check: %s trace=%d: not deterministic at one seed: %s vs %s"
                      % (w["name"], trace, values[0], values[1]))
                ok = False
            elif len(values) == 2:
                print("self-check: %s trace=%d: ok %s" % (w["name"], trace, values[0]))
    print("self-check: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    build()
    spec = load_spec()
    if args.self_check:
        sys.exit(self_check(spec))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        die(2, "--workload must be one of %s, or all" % ", ".join(names))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    ok = True
    for name in names if args.workload == "all" else [args.workload]:
        code, lines = run_bench(name, args.seed, seconds, args.trace)
        if not lines:
            die(5, "the benchmark printed nothing (exit %d)" % code)
        for line in lines[:-1]:
            print(line)
        res, err = check_result(spec, lines[-1], args.trace)
        if err:
            die(5, err)
        print(json.dumps(res))
        ok = ok and code == 0 and res["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
