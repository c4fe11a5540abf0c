"""The A/B script's summary and verdicts against the committed BENCH_25.json."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

BENCH = json.loads((ROOT / "BENCH_25.json").read_text())
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_summary_reproduces_every_recorded_verdict():
    summary = bench_ab.summarize(BENCH["pairs"], END_TO_END)
    assert list(summary) == list(BENCH["summary"])
    verdicts = 0
    for workload, recorded in BENCH["summary"].items():
        got = summary[workload]
        for key, want in recorded.items():
            if not isinstance(want, dict):
                assert got[key] == want, (workload, key)
                continue
            assert got[key]["verdict"] == want["verdict"], (workload, key)
            verdicts += 1
            for field, value in want.items():
                assert got[key][field] == pytest.approx(value, rel=1e-12, abs=1e-12), \
                    (workload, key, field)
    assert verdicts == 24
    assert bench_ab.claim(summary, "pixel-200", "peak_rss_mb", "lower") == BENCH["claim"]
    assert BENCH["note"].endswith(bench_ab.VERDICT_RULE)


@pytest.mark.parametrize("parent, change, better, want", [
    ([10, 10, 10, 10], [13, 13, 13, 13], "lower", "worse beyond bound"),
    ([10, 10, 10, 10], [7, 7, 7, 7], "higher", "worse beyond bound"),
    ([10, 10, 10, 10], [12, 12, 12, 12], "lower", "within bound"),
    ([4, 10, 12, 18], [9, 10, 11, 12], "lower", "unresolved"),
    # spread beyond the bound, but every change run beats every parent run
    ([14, 20, 22, 30], [5, 6, 9, 13], "lower", "within bound"),
    ([0, 0, 0, 0], [0, 0, 0, 0], "lower", "within bound"),
])
def test_verdict_rule(parent, change, better, want):
    assert bench_ab.verdict(parent, change, better, 0.25) == want


def test_relative_on_a_zero_base():
    assert bench_ab.relative(0.0, 0.0) == 0.0
    assert bench_ab.relative(1.0, 0.0) == math.inf
    assert bench_ab.relative(-2.0, 4.0) == -0.5


@pytest.mark.parametrize("better, met", [("higher", True), ("lower", False)])
def test_claim_follows_the_metric_direction(better, met):
    parent = [1.0, 1.1, 1.0, 1.2, 1.1, 1.0, 1.1, 1.0, 1.2, 1.1]
    change = [v + 1.0 for v in parent]
    summary = {"w": {"pairs": 10, "m": bench_ab.compare(parent, change, better, 0.25)}}
    assert bench_ab.claim(summary, "w", "m", better)["met"] is met
