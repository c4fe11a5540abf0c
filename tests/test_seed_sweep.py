"""scripts/seed_sweep.py: the output format of a three-seed sweep, with no
bound on the accuracies it reports."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_three_seeds_print_one_line_each_and_the_failing_list(tmp_path):
    out = tmp_path / "seeds.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "seed_sweep.py"), "--count", "3",
         "--lambda1", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, check=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    environment, *seeds, failing = proc.stdout.splitlines()
    assert environment.startswith("numpy ") and "OPENBLAS_NUM_THREADS=1" in environment
    runs = [re.fullmatch(r"lambda1=0 seed=(\d+) final=(\d\.\d{4}) best=(\d\.\d{4}) "
                         r"stop=(\d+) reached=(yes|no)", line) for line in seeds]
    assert all(runs) and [int(run[1]) for run in runs] == [0, 1, 2]
    assert all(float(run[2]) <= float(run[3]) for run in runs)
    assert re.fullmatch(r"lambda1=0 failing \d/3:( [0-2])*", failing)
    (sweep,) = json.loads(out.read_text())["sweeps"]
    assert sweep["lambda1"] == 0 and [run["seed"] for run in sweep["runs"]] == [0, 1, 2]
    assert sweep["failing"] == [int(s) for s in failing.split(":")[1].split()]
