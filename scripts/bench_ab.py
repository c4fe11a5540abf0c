"""A/B benchmark of two source trees in alternating process pairs.

    python3 scripts/bench_ab.py PARENT_TREE CHANGE_TREE --pairs N \\
        [--workload W ...] [--seed-base B] [--out BENCH.json] \\
        [--claim WORKLOAD/METRIC] [--what TEXT]

Each tree is a checkout holding ``src/``, ``perfbench/`` and
``BENCHMARK.json``; both are copied to a temporary directory first, so the
runs write nothing into either tree.  Pair p runs ``perfbench/run.py
--trace 0 --seed B+p`` for BENCHMARK.json's ``run_seconds`` on both
copies for every workload, the parent first on odd pairs and the change
first on even ones.  The file written (after every pair, so a cut run
keeps what it measured) has the layout of the committed ``BENCH_*.json``
files: ``what``, ``parent``, ``change``, ``note``, ``environment``,
``summary`` and ``pairs``, and a ``claim`` with ``--claim``.  The
verdicts follow ``VERDICT_RULE``, which ``note`` states; the bounds and
directions are the change tree's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

VERDICT_RULE = (
    "verdict: 'worse beyond bound' if the change's median is worse than the "
    "parent's by more than BENCHMARK.json's bound; 'unresolved' if either side's "
    "IQR over its median exceeds the bound and not every change run beats every "
    "parent run; else 'within bound'. IQR: distance between the quartiles of "
    "statistics.quantiles (exclusive method)."
)
CLAIM_RULE = (
    "claim: met if the change is better in at least nine of ten pairs and its "
    "median beats the parent's by more than the parent's IQR."
)
TREE_PARTS = ("src", "perfbench", "BENCHMARK.json")


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q3 - q1


def relative(delta: float, base: float) -> float:
    """delta as a fraction of |base|; infinite for a nonzero delta on a zero base."""
    if base == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(base)


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one metric from its parent and change runs."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = c_med - p_med if better == "lower" else p_med - c_med
    if relative(worse, p_med) > bound:
        return "worse beyond bound"
    spread = max(relative(iqr(parent), p_med), relative(iqr(change), c_med))
    if spread > bound and not all(beats(c, p, better) for c in change for p in parent):
        return "unresolved"
    return "within bound"


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The summary of one metric over pairs: parent[i] and change[i] are pair i."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "change_pct": 100.0 * relative(c_med - p_med, p_med),
        "parent_iqr": iqr(parent),
        "change_iqr": iqr(change),
        "change_better_pairs": sum(beats(c, p, better) for p, c in zip(parent, change)),
        "change_worse_pairs": sum(beats(p, c, better) for p, c in zip(parent, change)),
        "bound": bound,
        "verdict": verdict(parent, change, better, bound),
    }


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """The per-workload summary of the pairs, in the order workloads first
    appear; end_to_end is BENCHMARK.json's list of metrics."""
    summary = {}
    for name in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == name]
        sides = {side: [p[side] for p in runs] for side in ("parent", "change")}
        entry = {
            "pairs": len(runs),
            "correct": [sum(r["correct"] for r in sides[s]) for s in sides],
            "failed_sessions": [sum(r["failed"] for r in sides[s]) for s in sides],
            "attempted_sessions": [sum(r["attempted"] for r in sides[s]) for s in sides],
        }
        for metric in end_to_end:
            values = [[r["metrics"][metric["name"]] for r in sides[s]] for s in sides]
            if None in values[0] + values[1]:
                continue
            entry[metric["name"]] = compare(*values, metric["better"], metric["bound"])
        summary[name] = entry
    return summary


def claim(summary: dict, workload: str, metric: str, better: str) -> dict:
    """Whether the change improves metric on workload, by CLAIM_RULE."""
    s, pairs = summary[workload][metric], summary[workload]["pairs"]
    gain = s["parent_median"] - s["change_median"]
    if better != "lower":
        gain = -gain
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": s["parent_median"],
        "change_median": s["change_median"],
        "parent_iqr": s["parent_iqr"],
        "change_better_pairs": s["change_better_pairs"],
        "pairs": pairs,
        "met": s["change_better_pairs"] >= 0.9 * pairs and gain > s["parent_iqr"],
    }


def copy_tree(tree: Path, dest: Path) -> Path:
    for part in TREE_PARTS:
        src = tree / part
        if src.is_dir():
            shutil.copytree(src, dest / part,
                            ignore=shutil.ignore_patterns("__pycache__", "results"))
        else:
            shutil.copy2(src, dest / part)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result line of one run.py run and its environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run.py on {tree} ({workload}, seed {seed}) exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    side = {key: result[key] for key in ("correct", "attempted", "failed")}
    side["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return side, json.loads(lines[-2])["environment"]


def tree_label(tree: Path) -> str:
    """The tree's git commit, marked -dirty when its files differ from it."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else str(tree)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent tree")
    parser.add_argument("change", type=Path, help="the change tree")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", action="append",
                        help="repeatable; every workload in BENCHMARK.json by default")
    parser.add_argument("--seed-base", type=int, default=2600)
    parser.add_argument("--out", type=Path, default=Path("BENCH_AB.json"))
    parser.add_argument("--claim", help="WORKLOAD/METRIC the change claims to improve")
    parser.add_argument("--what", default="", help="what the change does, for 'what'")
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    unknown = set(workloads) - {w["name"] for w in spec["workloads"]}
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    seconds = spec["run_seconds"]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    claimed = args.claim.split("/", 1) if args.claim else None
    if claimed and (len(claimed) != 2 or claimed[0] not in workloads
                    or claimed[1] not in directions):
        parser.error(f"--claim {args.claim}: not WORKLOAD/METRIC of a workload that is run")
    what = (f"Alternating parent/change pairs of perfbench/run.py --trace 0 --seconds "
            f"{seconds:g}, seed {args.seed_base}+pair: {args.pairs} pairs on each of "
            f"{', '.join(workloads)}; odd pairs ran the parent first.")
    if args.claim:
        what += f" Claim: {args.claim.replace('/', ' ')}."
    record = {
        "what": f"{what} {args.what}".strip(),
        "parent": tree_label(args.parent),
        "change": tree_label(args.change),
        "note": "",
        "environment": None,
    }
    if claimed:
        record["claim"] = None  # until the claimed workload has run
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as workdir:
        trees = {side: copy_tree(getattr(args, side), Path(workdir) / side)
                 for side in ("parent", "change")}
        for p in range(1, args.pairs + 1):
            order = ("parent", "change") if p % 2 else ("change", "parent")
            for workload in workloads:
                seed = args.seed_base + p
                pair = {"workload": workload, "pair": p, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side], environment = run_once(trees[side], workload, seed, seconds)
                pairs.append(pair)
                if record["environment"] is None:
                    record["environment"] = environment
                    record["note"] = (
                        f"Measured on {environment['nproc']} cores under OPENBLAS_NUM_THREADS="
                        f"{environment['blas_threads']}; compare only files measured on one "
                        f"machine in one sitting. Both sides ran from copies of their src/, "
                        f"perfbench/ and BENCHMARK.json. {VERDICT_RULE}"
                        + (f" {CLAIM_RULE}" if claimed else ""))
                summary = summarize(pairs, spec["end_to_end"])
                if claimed and claimed[0] in summary:
                    record["claim"] = claim(summary, *claimed, directions[claimed[1]])
                record["summary"] = summary
                record["pairs"] = pairs
                args.out.write_text(json.dumps(record, indent=1) + "\n")
            print(f"pair {p}/{args.pairs} done", file=sys.stderr)
    for workload, entry in record["summary"].items():
        verdicts = {m: v["verdict"] for m, v in entry.items() if isinstance(v, dict)}
        print(workload, json.dumps(verdicts))
    if claimed:
        print("claim", json.dumps(record["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
