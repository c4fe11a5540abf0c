"""scripts/train_digest.py: one digest per run, a new one at another seed."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("train_digest",
                                              ROOT / "scripts" / "train_digest.py")
train_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(train_digest)


def test_tiny_desk_digest_repeats_and_tells_seeds_apart():
    workloads = train_digest.load_workloads(ROOT)
    first = train_digest.digest(workloads, "desk", True, 41)
    assert len(first) == 64
    assert train_digest.digest(workloads, "desk", True, 41) == first
    assert train_digest.digest(workloads, "desk", True, 3) != first
