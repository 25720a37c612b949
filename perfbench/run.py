#!/usr/bin/env python3
"""Repository benchmark: builds dmis_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads, metrics and bounds are listed in BENCHMARK.json; what each one
measures and why is in perfbench/README.md. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The line before it records the host and build the numbers came
from. Build output and diagnostics go to standard error.

Every DMIS_* environment variable is recorded and then removed before the
program runs, so a stray knob cannot change what is measured.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def scrubbed_env():
    """The environment minus every DMIS_* knob, and the knobs that were set."""
    env = dict(os.environ)
    knobs = {k: v for k, v in env.items() if k.startswith("DMIS_")}
    for k in knobs:
        del env[k]
    return env, knobs


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs,
         "--target", "dmis_perfbench", "perfbench_selftest"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=840)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd), 2)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    build_type = compiler = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
            elif line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail("refusing to measure a %r build; the benchmark needs Release"
             % build_type, 3)
    return build_type, compiler


def cpu_identity():
    model, flags = platform.processor() or "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name":
                    model = val.strip()
                elif key == "flags":
                    flags = set(val.split())
    except OSError:
        pass
    isa = [f for f in ("avx2", "fma", "avx512f", "avx512bw", "avx512vl")
           if f in flags]
    return model, isa


def source_identity():
    """Git commit when available, and a digest of the library sources."""
    commit = "unavailable"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, spec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    env, knobs = scrubbed_env()
    if knobs:
        log("ignoring DMIS_* knobs for this run:", json.dumps(knobs))
    expected, spec = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload, 2)
    build_type, compiler = build(env)

    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60)
    if selftest.returncode != 0:
        fail("harness self-test failed", 4)

    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    out_path = work + ".json"
    cmd = [os.path.join(BUILD, "dmis_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out", out_path]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0:
        fail("dmis_perfbench exited with %d" % r.returncode)
    with open(out_path) as f:
        res = json.load(f)
    os.remove(out_path)

    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(expected.items())))
    for msg in res["failures"]:
        log("check failed:", msg)

    model, isa = cpu_identity()
    commit, digest = source_identity()
    identity = dict(res["info"])
    identity.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": model,
        "isa": isa, "cmake_build_type": build_type, "cxx": compiler,
        "git_commit": commit, "source_digest": digest,
        "dmis_knobs_scrubbed": sorted(knobs),
    })
    print("host: " + json.dumps(identity, sort_keys=True))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))


if __name__ == "__main__":
    main()
