#!/usr/bin/env python3
"""Alternating perfbench pairs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --seeds 1-5 --workloads aqp-suite,contract-mix \\
        --host-note "4 vCPU VM, quiet"

Run from the root of a checkout. The parent side is an export of
`--parent` (`git archive`, so the repository gains no worktree) under
`--work`; the change side is the working tree as it stands. For each
workload and seed both sides run `perfbench/run.py --trace 0` once, for
`BENCHMARK.json`'s `run_seconds`: the parent first on odd seeds and the
change first on even ones, so neither side always runs on the warmer
host. Each side keeps its own build and data directory (`.bench_build` of
its own tree).

One JSON line per workload is appended to `BENCH_<workload>.json`: the
commits, the seeds, the host, the end-to-end metrics of `BENCHMARK.json`
with each side's min, quartiles, median and spread ((q3 - q1) / median),
the median paired change, the number of pairs the change won (ties count
for neither side) and every run's value.
"""
import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def source_digest(tree):
    """Digest of the program sources a perfbench build compiles."""
    d = hashlib.sha256()
    for f in sorted((tree / "src" / "main").rglob("*")):
        if f.is_file():
            d.update(str(f.relative_to(tree)).encode() + b"\0" + f.read_bytes() + b"\0")
    return d.hexdigest()[:16]


def export_parent(sha, work):
    """The parent's files under `work`, exported once per commit."""
    tree = work / f"parent-{sha[:12]}"
    if not (tree / ".exported").is_file():
        data = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                              check=True, capture_output=True).stdout
        tree.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(data)) as t:
            t.extractall(tree, filter="data")
        (tree / ".exported").write_text(sha)
    return tree


def run_once(tree, workload, seed, seconds):
    """Metric values of one untraced run, or None when the run failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr[-2000:])
        return None
    out = json.loads(lines[-1])
    return {k: v["value"] for k, v in out["metrics"].items()} | {"_correct": out["correct"]}


def summary(values):
    vs = sorted(v for v in values if v is not None)
    if not vs:
        return None
    q1, med, q3 = (statistics.quantiles(vs, n=4, method="inclusive")
                   if len(vs) > 1 else (vs[0],) * 3)
    return {"min": vs[0], "q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def compare(metric, pairs):
    """Both sides' summaries and the pairs the change won on one metric."""
    name, lower = metric["name"], metric["better"] == "lower"
    par = [p[0].get(name) if p[0] else None for p in pairs]
    chg = [p[1].get(name) if p[1] else None for p in pairs]
    both = [(a, b) for a, b in zip(par, chg) if a is not None and b is not None]
    wins = sum(1 for a, b in both if (b < a if lower else b > a))
    losses = sum(1 for a, b in both if (b > a if lower else b < a))
    rel = [(b - a) / a for a, b in both if a]
    return {"unit": metric["unit"], "better": metric["better"],
            "parent": summary(par), "change": summary(chg),
            "median_paired_change": statistics.median(rel) if rel else None,
            "pairs": len(both), "change_won": wins, "change_lost": losses,
            "values": {"parent": par, "change": chg}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default=None,
                    help="parent commit (default: HEAD when the working tree differs "
                         "from it, untracked files included, else HEAD~1)")
    ap.add_argument("--seeds", default="1-5", help="e.g. 1-5 or 1,3,7")
    ap.add_argument("--workloads", default="aqp-suite,contract-mix")
    ap.add_argument("--work", default=".bench_build/pairs",
                    help="where the parent is exported")
    ap.add_argument("--host-note", default="", help="free text: host, load, anything odd")
    a = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    dirty = bool(git("status", "--porcelain"))
    head = git("rev-parse", "HEAD")
    parent = git("rev-parse", a.parent or ("HEAD" if dirty else "HEAD~1"))
    work = Path(a.work)
    parent_tree = export_parent(parent, work if work.is_absolute() else ROOT / work)
    seeds = parse_seeds(a.seeds)
    host = {"note": a.host_note, "cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "loadavg_start": os.getloadavg()}

    for workload in a.workloads.split(","):
        pairs = []
        for seed in seeds:
            sides = [("parent", parent_tree), ("change", ROOT)]
            if seed % 2 == 0:
                sides.reverse()
            got = {}
            for side, tree in sides:
                got[side] = run_once(tree, workload, seed, seconds)
                v = got[side]
                print(f"# {workload} seed {seed} {side}: " +
                      ("failed" if v is None else
                       f"setup_s {v['setup_s']:.2f} p50 {v['latency_p50_ms']:.1f} "
                       f"qps {v['throughput_qps']:.3f}"), flush=True)
            pairs.append((got["parent"], got["change"]))
        row = {"date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
               "workload": workload,
               "commit": head + ("+working-tree" if dirty else ""),
               "parent": parent,
               "source_digest": {"parent": source_digest(parent_tree),
                                 "change": source_digest(ROOT)},
               "seeds": seeds, "seconds": seconds,
               "host": host | {"loadavg_end": os.getloadavg()},
               "failed_runs": {"parent": sum(p[0] is None for p in pairs),
                               "change": sum(p[1] is None for p in pairs)},
               "incorrect_runs": {
                   "parent": sum(bool(p[0]) and not p[0]["_correct"] for p in pairs),
                   "change": sum(bool(p[1]) and not p[1]["_correct"] for p in pairs)},
               "metrics": {m["name"]: compare(m, pairs) for m in bench["end_to_end"]}}
        with open(ROOT / f"BENCH_{workload}.json", "a") as f:
            f.write(json.dumps(row) + "\n")
        for name, m in row["metrics"].items():
            if m["parent"] and m["change"]:
                print(f"{workload:13s} {name:20s} parent {m['parent']['median']:.4g} "
                      f"change {m['change']['median']:.4g} "
                      f"won {m['change_won']}/{m['pairs']}", flush=True)


if __name__ == "__main__":
    main()
