#!/usr/bin/env python3
"""Build and run the hplx benchmark, for one workload or for all of them.

    python3 hplbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 hplbench/run.py        # every workload, metrics one per line

Run from the root of a source checkout. The solver and the harness are
built from source with CMake into $CARGO_TARGET_DIR (default .bench_build)
on first use. --trace 0 prints the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics (and writes a Chrome trace-event span file
under .bench_out/). Before the result, one line {"record": {...}} describes
the run: workload shape, thread counts, seed, samples behind each median,
and the build (commit, compiler, flags). The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every solve returned, passed verification and reproduced its residual.
Without --workload every workload runs in turn and each metric prints as
"name value unit".
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run normally takes under a minute; a harness still running after this
# long is stopped and the run fails.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"hplbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "hplbench"


def build():
    """Configure (once) and build the harness; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no hplx sources (CMakeLists.txt, src/) under {ROOT}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "hplbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 1)
    return out / "hplbench"


def cmake_cache(out):
    cache = {}
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line)
        if m:
            cache[m.group(1)] = m.group(2)
    return cache


def source_digest():
    """sha256 over the solver's sources, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def build_record():
    """Commit, compiler, build type and the flags the solver compiled with."""
    out = build_dir()
    cache = cmake_cache(out)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]
    flags = []
    commands = json.loads((out / "compile_commands.json").read_text())
    for entry in commands:
        if entry["file"].endswith("src/core/driver.cpp"):
            flags = [f for f in entry["command"].split()
                     if re.match(r"^-(O|g|D|f|m|std|W)", f)]
            break
    march = next((f for f in flags if f.startswith("-march=")), None)
    contract = next((f for f in flags if f.startswith("-ffp-contract=")), None)
    if contract is None:
        q = subprocess.run([cxx, "-Q", "--help=optimizers"] + flags,
                           capture_output=True, text=True).stdout
        m = re.search(r"-ffp-contract=\S*\s+(\S+)", q)
        contract = f"unset (compiler default: {m.group(1) if m else 'unknown'})"
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "compiler": version[0] if version else cxx,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "flags": " ".join(flags),
        "march": march or "absent",
        "fp_contract": contract,
    }


def run_one(binary, spec, workload, seed, seconds, trace, smoke):
    """Runs the harness once; returns (record, result) or exits on failure."""
    results = ROOT / ".bench_out"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(results / f"spans-{stem}.json")]
    if smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.strip().splitlines()
    try:
        full = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"harness exited {run.returncode} without a result", run.returncode or 1)

    record = full["record"]
    record["build"] = build_record()
    record["harness_wall_s"] = time.monotonic() - started
    result = {k: full[k] for k in ("correct", "attempted", "failed", "metrics")}
    if run.returncode != 0:
        result["correct"] = False

    # The harness must report exactly the metrics BENCHMARK.json declares.
    declared = {m["name"]: m["unit"] for m in
                spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        record["failures"].append(
            f"metric set mismatch: missing {sorted(set(declared) - set(got))}, "
            f"undeclared {sorted(set(got) - set(declared))}, units "
            f"{sorted(k for k in got if k in declared and got[k] != declared[k])}")
        result["correct"] = False
    if any(v["value"] is None for v in result["metrics"].values()):
        result["correct"] = False

    (results / f"record-{stem}.json").write_text(
        json.dumps({"record": record, **result}, indent=1) + "\n")
    return record, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="a workload of BENCHMARK.json, or all (the default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny N for testing the harness itself")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}")
    seconds = args.seconds or spec["run_seconds"]
    binary = build()

    if args.workload != "all":
        record, result = run_one(binary, spec, args.workload, args.seed,
                                 seconds, args.trace, args.smoke)
        print(json.dumps({"record": record}))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # Every workload in turn, each metric on its own line.
    ok = True
    for name in names:
        record, result = run_one(binary, spec, name, args.seed, seconds,
                                 args.trace, args.smoke)
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failures={record['failures']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:40s} {v['value']:.6g} {v['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
