"""Benchmark of dcidc training runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Each training session runs in a fresh
process (``session.py``) with the BLAS thread count pinned in its
environment.  Session i of a run trains on data and a model seeded with
``seed * 1000 + i``, so one seed always gives the same inputs and a run
averages over several of them.

``--trace 0`` first starts SETUP_PROBES sessions that stop at the epoch-0
report, then full sessions until ``--seconds`` are used, and reports the
end-to-end metrics.  ``--trace 1`` runs pairs of one untraced and one
traced session on the same inputs, reports the per-layer metrics of the
traced ones, the tracing overhead, and checks that both report the same
epochs bit for bit.  Every full session is checked (see ``session.py``); a
session that fails a check counts as failed and makes ``correct`` false.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics, each with its value and unit.  The line before it gives the sample
count of each metric and the environment.  The whole record, per session,
goes to ``perfbench/results/``, with the traced sessions' spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_PROBES = 3
MIN_SESSIONS = 2
MIN_PAIRS = 1
# Longest a run may take over its --seconds before its sessions are cut.
GRACE_S = 100
# At most this many BLAS threads, so that runs on bigger machines stay
# comparable with the 2-core machine the bounds were set on.
MAX_BLAS_THREADS = 2


class SessionCrash(RuntimeError):
    """A session ended without a result: a fault of the benchmark or the program."""


class Run:
    def __init__(self, args):
        self.args = args
        self.wl = workloads.get(args.workload, args.tiny)
        self.start = time.monotonic()
        self.deadline = self.start + args.seconds
        self.dir = RESULTS / args.workload
        self.tag = f"seed{args.seed}-trace{args.trace}"
        self.sessions: list[dict] = []
        threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                        OMP_NUM_THREADS=str(threads))
        self.blas_threads = threads

    def spawn(self, index: int, epochs: int, traced: bool = False,
              replay: bool = False) -> dict:
        seed = self.args.seed * 1000 + index
        workdir = self.dir / f"{self.tag}-work{len(self.sessions)}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "session.py"), "--workload", self.wl.name,
               "--seed", str(seed), "--epochs", str(epochs), "--trace", str(int(traced)),
               "--workdir", str(workdir)]
        if traced:
            cmd += ["--spans", str(self.dir / f"{self.tag}-s{len(self.sessions)}.spans.json")]
        if replay:
            cmd.append("--replay-check")
        if self.args.tiny:
            cmd.append("--tiny")
        timeout = max(1.0, self.deadline + GRACE_S - time.monotonic())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            result = {"failure": f"timed out after {timeout:.0f} s", "checks": {},
                      "t_epochs": [], "reports": []}
        else:
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SessionCrash(f"session exited with {proc.returncode}:\n"
                                   f"{proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            result["t_end"] -= t0
            result["t_epochs"] = [t - t0 for t in result["t_epochs"]]
            if self.wl.via_cli and epochs > 0:
                result["bytes_written"] = dir_bytes(workdir / "run")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result.update(seed=seed, epochs=epochs, traced=traced, wall_s=time.monotonic() - t0)
        self.sessions.append(result)
        return result

    def time_left(self, walls: list[float], minimum: int) -> bool:
        """Whether another session (or pair) of the usual length still fits."""
        if len(walls) < minimum:
            return True
        return time.monotonic() + statistics.median(walls) <= self.deadline

    def run_untraced(self) -> dict[str, list]:
        """Samples of each end-to-end metric."""
        for i in range(SETUP_PROBES):
            self.spawn(i, 0)
        full: list[dict] = []
        while self.time_left([s["wall_s"] for s in full], MIN_SESSIONS):
            full.append(self.spawn(len(full), self.wl.epochs, replay=self.wl.via_cli and not full))
        ok = [s for s in full if not s["failure"]]
        return {
            "setup_s": [s["t_epochs"][0] for s in self.sessions if s["t_epochs"]],
            "run_s": [s["t_end"] for s in ok],
            "epoch_ms_p50": [1000 * (b - a) for s in ok
                             for a, b in zip(s["t_epochs"], s["t_epochs"][1:])],
            "peak_rss_mb": [s["peak_rss_mib"] for s in ok],
            "accuracy": [s["reports"][-1][5] for s in ok],
            "nmi": [s["reports"][-1][6] for s in ok],
        }

    def run_traced(self) -> dict[str, list]:
        """Samples of each per-layer metric, one per traced session."""
        pairs: list[tuple[dict, dict]] = []
        walls: list[float] = []
        while self.time_left(walls, MIN_PAIRS):
            i = len(pairs)
            order = (False, True) if i % 2 == 0 else (True, False)
            first, second = (self.spawn(i, self.wl.epochs, traced=t,
                                        replay=self.wl.via_cli and not pairs and not t)
                             for t in order)
            plain, traced = (second, first) if order[0] else (first, second)
            if not plain["failure"] and not traced["failure"] \
                    and plain["reports"] != traced["reports"]:
                traced["failure"] = "traced epoch reports differ from untraced ones"
            pairs.append((plain, traced))
            walls.append(plain["wall_s"] + traced["wall_s"])
        good = [(p, t) for p, t in pairs if not p["failure"] and not t["failure"]]
        layers: dict[str, list[float]] = {}
        for plain, traced in good:
            row = dict(traced["layers"])
            row["artifacts.bytes_written"] = traced.get("bytes_written", 0)
            row["training.epochs"] = traced["reports"][-1][0]
            row["training.epochs_to_acc95"] = next(
                r[0] for r in traced["reports"] if r[5] >= workloads.ACC_TARGET)
            row["training.time_to_acc95_s"] = first_crossing(plain)
            for name, value in row.items():
                layers.setdefault(name, []).append(value)
        overhead = [100.0 * (statistics.median(t["t_end"] for _, t in good)
                             / statistics.median(p["t_end"] for p, _ in good) - 1.0)
                    ] if good else []
        layers["trace.overhead_pct"] = overhead
        return layers

    def environment(self) -> dict:
        first = next((s for s in self.sessions if "numpy" in s), {})
        return {
            "blas_threads": self.blas_threads,
            "os_threads_after_run": first.get("os_threads"),
            "numpy": first.get("numpy"),
            "blas": first.get("blas"),
            "git_sha": git_sha(),
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
        }


def first_crossing(session: dict) -> float | None:
    for t, report in zip(session["t_epochs"], session["reports"]):
        if report[5] >= workloads.ACC_TARGET:
            return t
    return None


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny workload sizes, for the benchmark's smoke test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "dcidc" / "__init__.py").is_file():
        print(f"error: no dcidc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills the running
    # session and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        samples = run.run_traced() if args.trace else run.run_untraced()
    except SessionCrash as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())  # names and units of the metrics
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(samples) - set(units):
        print(f"error: metrics missing from BENCHMARK.json: {sorted(set(samples) - set(units))}",
              file=sys.stderr)
        return 1
    attempted = sum(1 for s in run.sessions if s["epochs"] > 0)
    failed = sum(1 for s in run.sessions if s["epochs"] > 0 and s["failure"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": run.environment(),
        "samples": {name: len(samples.get(name, [])) for name in units},
        "sessions": run.sessions,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": median(samples.get(name, [])), "unit": unit}
                    for name, unit in units.items()},
    }
    record["result"] = result
    (run.dir / f"{run.tag}.json").write_text(json.dumps(record, indent=1))
    for s in run.sessions:
        if s["failure"]:
            print(f"session seed={s['seed']} failed: {s['failure']}", file=sys.stderr)
    print(json.dumps({"samples": record["samples"], "environment": record["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
