#!/usr/bin/env python3
"""Interleaved A/B of the hplx benchmark between two commits.

    python3 scripts/bench_compare.py PARENT CHANGE [--seed N]

Checks out PARENT and CHANGE in two temporary git worktrees, builds each
one's hplbench (a smoke run of its first workload), then runs
`hplbench/run.py --workload W --seed N` for 10 pairs per workload of
BENCHMARK.json, alternating which side runs first. Hypervisor steal is
sampled from /proc/stat around each pair. Every end-to-end metric gets a
verdict per workload, by the rules below, and one row is appended to
bench/ledger.jsonl of the checkout this script lives in.

Verdicts, per (metric, workload), with the bound and the better direction
BENCHMARK.json gives the metric:
  gain          the change wins at least 9 in 10 pairs (ties count for
                neither side), the medians differ by more than the parent's
                interquartile range, and no more solves failed than at the
                parent;
  unresolved    the parent's interquartile range, relative to its median,
                is wider than the bound, unless every change run is better
                than every parent run;
  over bound    the change's median is worse than the parent's by more than
                the bound;
  within bound  otherwise;
  no samples    every pair had a side whose harness crashed.
A workload whose change side failed more solves than the parent side is
reported as such. The exit code is 1 when any metric is over bound or
has no samples, or the change failed more often; 0 otherwise.
"""

import argparse
import datetime
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) of a non-empty sample (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(spec, a, b):
    """Whether value a is strictly better than b for the metric."""
    return a > b if spec["better"] == "higher" else a < b


def verdict(spec, parent, change, more_failures=False):
    """Applies the A/B rules to one metric on one workload.

    `parent` and `change` are the per-pair samples, index i of each from
    pair i; `more_failures` says the change failed more solves. Returns the
    summary stored in the ledger, with its "verdict".
    """
    if not parent or not change:  # every pair had a crashed side
        return {"parent": None, "change": None, "wins": 0, "pairs": 0,
                "worse_rel": None, "parent_spread_rel": None,
                "bound": spec["bound"], "verdict": "no samples"}
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = min(len(parent), len(change))
    wins = sum(better(spec, c, p) for p, c in zip(parent, change))
    sign = -1.0 if spec["better"] == "higher" else 1.0
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    every_run_better = all(better(spec, c, p) for c in change for p in parent)

    if (not more_failures and pairs > 0 and wins >= WIN_SHARE * pairs and
            better(spec, c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1):
        name = "gain"
    elif spread > spec["bound"] and not every_run_better:
        name = "unresolved"
    elif worse > spec["bound"]:
        name = "over bound"
    else:
        name = "within bound"
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "wins": wins, "pairs": pairs, "worse_rel": worse,
        "parent_spread_rel": spread, "bound": spec["bound"],
        "verdict": name,
    }


def failures_increased(parent, change):
    """Whether the change failed a larger share of its attempted solves."""
    p_share = parent["failed"] / parent["attempted"] if parent["attempted"] else 0.0
    c_share = change["failed"] / change["attempted"] if change["attempted"] else 1.0
    return c_share > p_share


def cpu_times():
    """(steal, total) jiffies of the aggregate cpu line of /proc/stat."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    ticks = [int(f) for f in fields[:8]]  # guest time is inside user/nice
    return ticks[7], sum(ticks)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(tree, workload, seed, smoke=False):
    """One hplbench run in `tree`; returns (record, result) or None."""
    cmd = [sys.executable, "hplbench/run.py", "--workload", workload,
           "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    run = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        return json.loads(lines[-2])["record"], json.loads(lines[-1])
    except (IndexError, KeyError, json.JSONDecodeError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    shas = {"parent": git("rev-parse", args.parent + "^{commit}"),
            "change": git("rev-parse", args.change + "^{commit}")}

    scratch = Path(tempfile.mkdtemp(prefix="bench_compare-"))
    trees = {side: scratch / side for side in shas}
    try:
        for side, sha in shas.items():
            git("worktree", "add", "--detach", str(trees[side]), sha)
            print(f"== build {side} {sha[:12]}", file=sys.stderr)
            if run_side(trees[side], workloads[0], args.seed, smoke=True) is None:
                sys.exit(f"bench_compare: {side} harness failed to build or run")

        rows, steal = {}, []
        for workload in workloads:
            samples = {s: {m: [] for m in metrics} for s in shas}
            change_record = None
            counts = {s: {"attempted": 0, "failed": 0} for s in shas}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                steal0, total0 = cpu_times()
                got = {s: run_side(trees[s], workload, args.seed) for s in order}
                steal1, total1 = cpu_times()
                steal.append(100.0 * (steal1 - steal0) / max(total1 - total0, 1))
                if any(got[s] is None for s in order):
                    # A crashed harness is a failed solve on its side; the
                    # pair drops out of the metric samples.
                    for s in order:
                        counts[s]["attempted"] += 1
                        counts[s]["failed"] += got[s] is None
                    continue
                for s in order:
                    record, result = got[s]
                    if s == "change":
                        change_record = record
                    counts[s]["attempted"] += result["attempted"]
                    # A run that is not correct (a residual that did not
                    # reproduce, say) counts as at least one failed solve.
                    counts[s]["failed"] += max(result["failed"],
                                               0 if result["correct"] else 1)
                    for m in metrics:
                        samples[s][m].append(result["metrics"][m]["value"])
                print(f"== {workload} pair {i + 1}/{PAIRS} ({order[0]} first) "
                      f"steal {steal[-1]:.2f}%", file=sys.stderr)
            more = failures_increased(counts["parent"], counts["change"])
            rows[workload] = {
                "record": change_record,
                "counts": counts,
                "more_failed": more,
                "metrics": {m: verdict(metrics[m], samples["parent"][m],
                                       samples["change"][m], more)
                            for m in metrics},
            }
    finally:
        for tree in trees.values():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(tree)], capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)

    bad = False
    for workload, row in rows.items():
        print(f"{workload}: median [q1, q3], parent -> change")
        for m, v in row["metrics"].items():
            if v["verdict"] == "no samples":
                print(f"  {m:20s} no samples")
                bad = True
                continue
            p, c = v["parent"], v["change"]
            print(f"  {m:20s} {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                  f" -> {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                  f"  wins {v['wins']}/{v['pairs']}"
                  f"  worse {100 * v['worse_rel']:+.2f}%  {v['verdict']}")
            bad = bad or v["verdict"] == "over bound"
        counts = row["counts"]
        print(f"  failed solves: parent {counts['parent']['failed']}"
              f"/{counts['parent']['attempted']}, change "
              f"{counts['change']['failed']}/{counts['change']['attempted']}"
              + ("  (more failed)" if row["more_failed"] else ""))
        bad = bad or row["more_failed"]

    ledger_row = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "source": "measured",
        "parent": shas["parent"],
        "change": shas["change"],
        "seed": args.seed,
        "pairs": PAIRS,
        "run_seconds": spec["run_seconds"],
        "steal_pct": {"median": statistics.median(steal), "max": max(steal)},
        "workloads": {
            w: {"record": r["record"],
                "failed": {s: r["counts"][s]["failed"] for s in shas},
                "attempted": {s: r["counts"][s]["attempted"] for s in shas},
                **{m: {k: v[k] for k in ("parent", "change", "wins",
                                          "verdict")}
                   for m, v in r["metrics"].items()}}
            for w, r in rows.items()},
    }
    with open(ROOT / "bench" / "ledger.jsonl", "a") as f:
        f.write(json.dumps(ledger_row) + "\n")
    print(f"appended a row to {ROOT / 'bench' / 'ledger.jsonl'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
