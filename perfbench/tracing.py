"""Span tracing attached to thermotrack from outside the package.

``Tracer.install`` replaces public functions in the library's module
namespaces (the names their callers look up, such as ``detectors.nms`` or
``deteval.iou``) with wrappers that record a span or bump a counter, and
``Tracer.uninstall`` puts the originals back. Spans stay in memory as
``[name, ident, start, end, parent]`` lists and are written out once, when
the run ends. Functions called hundreds of thousands of times per operation
(IoU, predict, denormalize, max-pixel) are counted, not spanned.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from thermotrack import deteval, detectors, pipeline, thermoreg

PERF = time.perf_counter

KFOLD_KINDS = ("linear", "ridge", "lasso", "elastic_net", "knn", "decision_tree")
PER_LAYER_UNITS = {
    "pipeline.render_overlay.ms": "ms",
    "pipeline.extract_max_pixel.calls": "count",
    "pipeline.process_frame.self_ms": "ms",
    "pipeline.run_stream.self_ms": "ms",
    "detectors.detect.ms": "ms",
    "detectors.blob_detect.ms": "ms",
    "detectors.nms.ms": "ms",
    "detectors.nms.kept_ratio": "ratio",
    "detectors.iou.calls": "count",
    "detectors.adapter.request.ms": "ms",
    "detectors.adapter.frame_write.ms": "ms",
    "detectors.adapter.wait.ms": "ms",
    "detectors.adapter.timeouts": "count",
    "detectors.adapter.scratch_files": "count",
    "detectors.adapter.launch_s": "s",
    "frameio.load_frame.ms": "ms",
    "frameio.load_frame.bytes": "B",
    "frameio.save_frame.ms": "ms",
    "frameio.save_frame.bytes": "B",
    "frameio.gray_to_bgr.ms": "ms",
    "annotations.denormalize.calls": "count",
    **{f"thermoreg.k_fold_cv.{kind}.s": "s" for kind in KFOLD_KINDS},
    "thermoreg.predict.calls": "count",
    "thermoreg.fit.calls": "count",
    "thermoreg.select_model.s": "s",
    "thermoreg.save_model.ms": "ms",
    "deteval.match_greedy.calls": "count",
    "deteval.match_greedy.s": "s",
    "deteval.iou.calls": "count",
    "deteval.average_precision.s": "s",
    "trace_overhead_frac": "frac",
}

# Counter names, so the wrappers and the metric code agree on spelling.
NMS_IN = "detectors.nms.in"
NMS_KEPT = "detectors.nms.kept"
LOAD_BYTES = "frameio.load_frame.bytes"
SAVE_BYTES = "frameio.save_frame.bytes"
TIMEOUTS = "detectors.adapter.timeouts"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, ident=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, ident, PERF(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = PERF()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, _, start, end, _ in self.spans if span_name == name]

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its direct
        children cover (children of one span never overlap: one thread)."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (name, _, start, end, _), child_time in zip(self.spans, covered):
            out[name].append(end - start - child_time)
        return out

    def dump(self, path: Path) -> None:
        """Write spans as gzipped JSON lines: name, ident, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    # -- wrappers ------------------------------------------------------------

    def _replace(self, owner: object, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def span(self, owner: object, attr: str, name: str, ident=None, after=None) -> None:
        """Wrap ``owner.attr`` in a span; ``ident(args)`` labels it and
        ``after(args, result)`` runs outside the span."""

        def make(original):
            def traced(*args, **kwargs):
                index = self.open(name, ident(args) if ident else None)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(index)
                if after is not None:
                    after(args, result)
                return result

            return traced

        self._replace(owner, attr, make)

    def count(self, owner: object, attr: str, name: str) -> None:
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        self._replace(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        counts = self.counts

        def nms_after(args, kept):
            counts[NMS_IN] += len(args[0])
            counts[NMS_KEPT] += len(kept)

        def load_after(args, frame):
            counts[LOAD_BYTES] += os.stat(args[0]).st_size

        def save_after(args, _):
            counts[SAVE_BYTES] += os.stat(args[1]).st_size

        # pipeline: the frame loop, its stages, and the frameio calls it makes.
        self.span(pipeline, "process_frame", "pipeline.process_frame", ident=lambda a: a[0].frame_index)
        self.span(pipeline, "render_overlay", "pipeline.render_overlay")
        self.count(pipeline, "extract_max_pixel", "pipeline.extract_max_pixel.calls")
        self.span(pipeline, "load_frame", "frameio.load_frame", after=load_after)
        self.span(pipeline, "save_frame", "frameio.save_frame", after=save_after)
        self.span(pipeline, "gray_to_bgr", "frameio.gray_to_bgr")
        self.span(pipeline, "run_stream", "pipeline.run_stream")
        # detectors, including the external adapter's request path.
        self.span(detectors.Detector, "detect", "detectors.detect")
        self.span(detectors, "blob_detect", "detectors.blob_detect")
        self.span(detectors, "nms", "detectors.nms", after=nms_after)
        self.count(detectors, "iou", "detectors.iou.calls")
        self.count(detectors, "denormalize", "annotations.denormalize.calls")
        self.span(detectors, "save_frame", "detectors.adapter.frame_write")
        self._replace(detectors.ExternalAdapter, "request", self._adapter_request)
        # thermoreg: CV per grid point, and the selection/persistence steps.
        self.span(thermoreg, "k_fold_cv", "thermoreg.k_fold_cv", ident=lambda a: a[1].kind)
        self.span(thermoreg, "select_model", "thermoreg.select_model")
        self.span(thermoreg, "save_model", "thermoreg.save_model")
        self.count(thermoreg.FittedRegressor, "predict", "thermoreg.predict.calls")
        self.count(thermoreg.ModelSpec, "fit", "thermoreg.fit.calls")
        # deteval: matching passes, the scalar IoU under them, and AP.
        self.span(deteval, "match_greedy", "deteval.match_greedy")
        self.count(deteval, "iou", "deteval.iou.calls")
        self.span(deteval, "average_precision", "deteval.average_precision")

    def _adapter_request(self, original):
        def request(adapter, frame):
            index = self.open("detectors.adapter.request", frame.frame_index)
            try:
                return original(adapter, frame)
            except detectors.AdapterTimeoutError:
                self.counts[TIMEOUTS] += 1
                raise
            finally:
                self.close(index)

        return request

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def per_layer(tracer, tally, overhead: float) -> dict[str, float]:
    """Layer metrics of a traced tally. Counts and ``.s`` totals are per
    operation (frame, calibration or evaluation); ``.ms`` values are the
    mean per call; a layer the workload never calls reads 0."""
    ops = len(tally.op_times)
    counts = tracer.counts
    self_times = tracer.self_times()

    def mean_ms(values) -> float:
        return 1000.0 * statistics.fmean(values) if values else 0.0

    def call_ms(name: str) -> float:
        return mean_ms(tracer.durations(name))

    def per_op(total: float) -> float:
        return total / ops if ops else 0.0

    def per_call(total: float, name: str) -> float:
        calls = len(tracer.durations(name))
        return total / calls if calls else 0.0

    kfold = {kind: 0.0 for kind in KFOLD_KINDS}
    for name, ident, start, end, _ in tracer.spans:
        if name == "thermoreg.k_fold_cv":
            kfold[ident] += end - start
    return {
        "pipeline.render_overlay.ms": call_ms("pipeline.render_overlay"),
        "pipeline.extract_max_pixel.calls": per_op(counts["pipeline.extract_max_pixel.calls"]),
        "pipeline.process_frame.self_ms": mean_ms(self_times.get("pipeline.process_frame")),
        "pipeline.run_stream.self_ms": mean_ms(self_times.get("pipeline.run_stream.frame")),
        "detectors.detect.ms": call_ms("detectors.detect"),
        "detectors.blob_detect.ms": call_ms("detectors.blob_detect"),
        "detectors.nms.ms": call_ms("detectors.nms"),
        "detectors.nms.kept_ratio": counts[NMS_KEPT] / counts[NMS_IN] if counts[NMS_IN] else 0.0,
        "detectors.iou.calls": per_op(counts["detectors.iou.calls"]),
        "detectors.adapter.request.ms": call_ms("detectors.adapter.request"),
        "detectors.adapter.frame_write.ms": call_ms("detectors.adapter.frame_write"),
        "detectors.adapter.wait.ms": mean_ms(self_times.get("detectors.adapter.request")),
        "detectors.adapter.timeouts": per_op(counts[TIMEOUTS]),
        "detectors.adapter.scratch_files": statistics.fmean(tally.scratch_files) if tally.scratch_files else 0.0,
        "detectors.adapter.launch_s": statistics.median(tally.launch_times) if tally.launch_times else 0.0,
        "frameio.load_frame.ms": call_ms("frameio.load_frame"),
        "frameio.load_frame.bytes": per_call(counts[LOAD_BYTES], "frameio.load_frame"),
        "frameio.save_frame.ms": call_ms("frameio.save_frame"),
        "frameio.save_frame.bytes": per_call(counts[SAVE_BYTES], "frameio.save_frame"),
        "frameio.gray_to_bgr.ms": call_ms("frameio.gray_to_bgr"),
        "annotations.denormalize.calls": per_op(counts["annotations.denormalize.calls"]),
        **{f"thermoreg.k_fold_cv.{kind}.s": per_op(total) for kind, total in kfold.items()},
        "thermoreg.predict.calls": per_op(counts["thermoreg.predict.calls"]),
        "thermoreg.fit.calls": per_op(counts["thermoreg.fit.calls"]),
        "thermoreg.select_model.s": per_op(sum(tracer.durations("thermoreg.select_model"))),
        "thermoreg.save_model.ms": call_ms("thermoreg.save_model"),
        "deteval.match_greedy.calls": per_op(len(tracer.durations("deteval.match_greedy"))),
        "deteval.match_greedy.s": per_op(sum(tracer.durations("deteval.match_greedy"))),
        "deteval.iou.calls": per_op(counts["deteval.iou.calls"]),
        "deteval.average_precision.s": per_op(sum(tracer.durations("deteval.average_precision"))),
        "trace_overhead_frac": overhead,
    }


def self_time_ranking(tracer, ops: int) -> list[tuple[str, float]]:
    """Span names by self time per operation, in ms, largest first."""
    totals = {name: 1000.0 * sum(v) / max(ops, 1) for name, v in tracer.self_times().items()}
    return sorted(totals.items(), key=lambda item: -item[1])
