#!/usr/bin/env python3
"""Build and run the Padico wall-clock benchmark.

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

A run builds the program's libraries and the perfbench binary from source
(CMake, into .bench_build/ at the repository root), then runs one workload.
The last line of standard output is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Traced runs (--trace 1) also write a Chrome trace-event file under
.bench_out/. The program's environment toggles (PADICO_*) are removed so
the program always runs in its default configuration.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary; raises on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("PADICO_")}


def run_binary(args):
    """Run the benchmark binary; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              env=clean_env(), text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log("benchmark timed out after", RUN_TIMEOUT_S, "s")
        return 1, e.stdout or ""
    return proc.returncode, proc.stdout


def parse_result(stdout):
    """The JSON object on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def run(workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        OUT.mkdir(exist_ok=True)
        args += ["--trace-out", str(OUT / f"trace-{workload}-{seed}.json")]
    code, stdout = run_binary(args + list(extra))
    return code, stdout, parse_result(stdout)


# ---------------------------------------------------------------------------
# Self-test


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    # 1. Every metric BENCHMARK.json names is printed, with its unit, by the
    #    gated workloads and by gridccm_fanout, which is measured but not
    #    gated (see LAYERS.md).
    traced = {}
    for name in [w["name"] for w in spec["workloads"]] + ["gridccm_fanout"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            code, _, res = run(name, 1, 2, trace)
            expect(code == 0 and res is not None,
                   f"{name} trace={int(trace)}: exits 0 with a JSON result")
            if res is None:
                continue
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] > 0,
                   f"{name} trace={int(trace)}: zero failed operations")
            metrics = res["metrics"]
            missing = [m["name"] for m in spec[key]
                       if m["name"] not in metrics
                       or metrics[m["name"]]["unit"] != m["unit"]]
            expect(not missing, f"{name} trace={int(trace)}: prints every "
                   f"{key} metric with its unit (missing: {missing})")
            if trace:
                traced[name] = metrics

    # 2. A deliberately wrong pinned virtual value is a failed operation.
    for trace in (False, True):
        code, _, res = run("rpc_small", 1, 1, trace, ["--pin-skew-ns", "1"])
        expect(code == 0 and res is not None and not res["correct"]
               and res["failed"] > 0,
               f"rpc_small trace={int(trace)}: a pin off by 1 ns fails "
               f"operations")

    # 3. The rpc ladder's virtual self times sum to its top rung, the pinned
    #    39.724 us round trip. A self time is a rung minus the one below, so
    #    the sum alone would hold by construction: each self time is checked
    #    against its own DESIGN.md section 7 cost-model term instead.
    m = traced.get("rpc_small")
    if m is not None:
        model = {"fabric.rtt_self": 2 * 7 + 0.324,
                 "madeleine.rtt_self": 2 * (1.2 + 1.2),
                 "padicotm.rtt_self": 2 * 0.3,
                 "svc_corba.rtt_self": 2 * 5.0,
                 "corba_stub.rtt_self": 2 * 5.0}
        for layer, want in model.items():
            got = m[f"{layer}_virt_us"]["value"]
            expect(abs(got - want) < 1e-9,
                   f"rpc ladder {layer} is {want:.3f} virtual us "
                   f"(got {got:.3f})")
        expect(abs(sum(model.values()) - 39.724) < 1e-9
               and abs(m["corba.invoke_rtt_virt_us"]["value"] - 39.724) < 1e-9,
               "rpc ladder self times sum to the pinned 39.724 us top rung")

    # 4. The traced run wrote a loadable Chrome trace.
    path = OUT / "trace-rpc_small-1.json"
    try:
        events = json.loads(path.read_text())["traceEvents"]
        expect(len(events) > 0 and all(
            {"name", "ts", "dur", "args"} <= set(e) for e in events),
            f"{path.name} is Chrome trace-event JSON ({len(events)} spans)")
    except (OSError, ValueError, KeyError):
        expect(False, f"{path.name} is Chrome trace-event JSON")

    print("self-test:", "FAILED" if problems else "passed", flush=True)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 1
    if a.self_test:
        return self_test()

    code, stdout, res = run(a.workload, a.seed, a.seconds, a.trace == 1)
    if code != 0 or res is None:
        sys.stderr.write(stdout)
        log("benchmark failed (exit code %d)" % code)
        return code or 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
