"""Spans around the public functions of each dcidc module, from outside it.

The tracer replaces module attributes with wrappers that record one span
per call: name, start, end and the index of the enclosing span.  Spans
stay in memory and are written once, when the session ends.  A few
wrappers also count work where it happens (GEMM flops, trace bytes, ridge
retries, re-seeded clusters, bytes read).

Names are looked up where the caller finds them: ``autoencoder`` imports
``apply``/``derivative`` and ``clusters`` imports ``solve_spd`` by name, so
those are wrapped in the importing module; ``training`` and ``cli`` reach
everything else through module attributes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str, fn, after=None):
        """fn wrapped to record a span; after(result, args) runs inside it."""

        def traced(*args, **kwargs):
            record = [name, 0, 0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                record[2] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr), after))

    def count_calls(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def install(self) -> None:
        """Wrap every traced function of the dcidc package."""
        from dcidc import artifacts, autoencoder, cli, clusters, data, linalg, metrics, training

        def after_forward(trace, args):
            params, batch = args[0], args[1]
            allocated = trace.pre_activations + trace.activations[1:]
            self.counts["trace_bytes"] = max(
                self.counts["trace_bytes"], sum(a.nbytes for a in allocated)
            )
            self.counts["gemm_flop"] += forward_flop(params.dims, batch.shape[0])

        def after_backward(_, args):
            params, trace, _assignments, centers, lambda1 = args[:5]
            k = 0 if centers is None else centers.shape[1]
            self.counts["gemm_flop"] += backward_flop(
                params.dims, trace.activations[0].shape[0], k, lambda1
            )

        def after_update_centers(result, _):
            self.counts["reseeded"] += len(result[1])

        def after_load(_, args):
            path = Path(args[0])
            self.counts["bytes_read"] += path.stat().st_size
            labels = data.companion_label_path(path)
            if labels.exists():
                self.counts["bytes_read"] += labels.stat().st_size

        self.wrap(autoencoder, "forward", "autoencoder.forward", after_forward)
        self.wrap(autoencoder, "backward", "autoencoder.backward", after_backward)
        for attr in ("reconstruction_deltas", "constraint_deltas", "apply_update"):
            self.wrap(autoencoder, attr, f"autoencoder.{attr}")
        self.wrap(autoencoder, "apply", "activations.apply")
        self.wrap(autoencoder, "derivative", "activations.derivative")
        self.wrap(clusters, "update_centers", "clusters.update_centers", after_update_centers)
        self.wrap(clusters, "update_indicator", "clusters.update_indicator")
        self.wrap(clusters, "binarize", "clusters.binarize")
        self.wrap(clusters, "solve_spd", "linalg.solve_spd")
        self.count_calls(linalg, "cho_factor", "cho_factor")
        self.wrap(training, "train", "training.train")
        self.wrap(training, "loss_terms", "training.loss_terms")
        self.wrap(metrics, "accuracy", "metrics.accuracy")
        self.wrap(metrics, "nmi", "metrics.nmi")
        self.wrap(data, "synth_blobs", "data.synth_blobs")
        self.wrap(data, "load", "data.load", after_load)
        self.wrap(data, "normalize", "data.normalize")
        self.wrap(artifacts, "save_checkpoint", "artifacts.save_checkpoint")
        self.wrap(artifacts.RunManifest, "build", "artifacts.manifest")
        self.wrap(artifacts.RunManifest, "save", "artifacts.manifest")
        self.wrap(cli, "train", "training.train")
        self.wrap(cli, "main", "cli")

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals for the session, keyed by benchmark metric name."""
        total, self_time, calls = summarize(self.spans)

        def ms(table, name):
            return table.get(name, 0) / 1e6

        out = {
            "autoencoder.forward.ms": ms(total, "autoencoder.forward"),
            "autoencoder.forward.calls": calls.get("autoencoder.forward", 0),
            "autoencoder.backward.self_ms": ms(self_time, "autoencoder.backward"),
            "autoencoder.reconstruction_deltas.self_ms":
                ms(self_time, "autoencoder.reconstruction_deltas"),
            "autoencoder.constraint_deltas.self_ms":
                ms(self_time, "autoencoder.constraint_deltas"),
            "autoencoder.apply_update.ms": ms(total, "autoencoder.apply_update"),
            "autoencoder.apply_update.calls": calls.get("autoencoder.apply_update", 0),
            "autoencoder.trace_mb": self.counts["trace_bytes"] / 2**20,
            "autoencoder.gemm_gflop": self.counts["gemm_flop"] / 1e9,
            "activations.apply.ms": ms(total, "activations.apply"),
            "activations.apply.calls": calls.get("activations.apply", 0),
            "activations.derivative.ms": ms(total, "activations.derivative"),
            "activations.derivative.calls": calls.get("activations.derivative", 0),
            "clusters.update_centers.ms": ms(total, "clusters.update_centers"),
            "clusters.update_indicator.self_ms": ms(self_time, "clusters.update_indicator"),
            "clusters.binarize.ms": ms(total, "clusters.binarize"),
            "clusters.reseeded": self.counts["reseeded"],
            "linalg.solve_spd.ms": ms(total, "linalg.solve_spd"),
            "linalg.solve_spd.calls": calls.get("linalg.solve_spd", 0),
            "linalg.solve_spd.retries":
                self.counts["cho_factor"] - calls.get("linalg.solve_spd", 0),
            "training.loss_terms.ms": ms(total, "training.loss_terms"),
            "training.loop_self_ms": ms(self_time, "training.train"),
            "metrics.accuracy.ms": ms(total, "metrics.accuracy"),
            "metrics.nmi.ms": ms(total, "metrics.nmi"),
            "artifacts.epoch_log.ms": ms(total, "artifacts.epoch_log"),
            "artifacts.save_checkpoint.ms": ms(total, "artifacts.save_checkpoint"),
            "artifacts.manifest.ms": ms(total, "artifacts.manifest"),
            "cli.self_ms": ms(self_time, "cli"),
            "data.synth_blobs.ms": ms(total, "data.synth_blobs"),
            "data.load.ms": ms(total, "data.load"),
            "data.normalize.ms": ms(total, "data.normalize"),
            "data.bytes_read": self.counts["bytes_read"],
        }
        return {name: float(value) for name, value in out.items()}


def summarize(spans) -> tuple[dict, dict, dict]:
    """(total ns, self ns, calls) per span name.

    Self time is a span's duration minus the time its child spans cover;
    calls nest strictly in one thread, so children never overlap.
    """
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    total, self_time, calls = defaultdict(int), defaultdict(int), defaultdict(int)
    for (name, start, end, _), child in zip(spans, covered):
        total[name] += end - start
        self_time[name] += end - start - child
        calls[name] += 1
    return total, self_time, calls


def _layer_sizes(dims) -> list[int]:
    return [a * b for a, b in zip(dims[:-1], dims[1:])]


def forward_flop(dims, rows: int) -> int:
    """Flops of the per-layer GEMMs Z W^T of one forward call."""
    return 2 * rows * sum(_layer_sizes(dims))


def backward_flop(dims, rows: int, k: int, lambda1: float) -> int:
    """Flops of the GEMMs of one backward call.

    Weight gradients touch every layer; the reconstruction signal goes back
    through layers 2..M; with lambda1 != 0 the constraint signal needs
    H S^T and goes back through encoder layers 2..M/2.
    """
    sizes = _layer_sizes(dims)
    flop = 2 * rows * (sum(sizes) + sum(sizes[1:]))
    if lambda1 != 0.0:
        half = len(sizes) // 2
        flop += 2 * rows * (sum(sizes[1:half]) + k * dims[half])
    return flop
