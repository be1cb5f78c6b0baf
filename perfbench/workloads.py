"""The four benchmark workloads.

Each workload builds its inputs from the seed before any timing, then runs
``round()`` back to back until the time budget is spent. Every round
performs the same operations in the same order: a stream round is one
``run_stream`` session over the whole input set (frames are the
operations), an ``eval_dense`` round evaluates each image set once, a
``calibrate`` round is one calibration. Every round checks its own output,
untimed, and adds to a ``Tally``. In the untraced, gated measurement the
reference kernel (``reference.py``) runs after every round, so each
round's operations have a reference time taken beside them.

Library calls go through module attributes (``pipeline.run_stream``,
``thermoreg.grid_search``, ...) so that a traced run sees them wrapped.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from thermotrack import deteval, detectors, frameio, pipeline, synthscene, thermoreg
from thermotrack.annotations import denormalize

import oracles
import reference

PERF = time.perf_counter
ADAPTER = Path(__file__).resolve().parent / "adapter.py"

# The acceptance suite's blob settings and the exact calibration law the
# synthetic scenes are rendered with (intensity = (T - 20) / 0.1).
BLOB_CFG = detectors.DetectorConfig(intensity_threshold=32, min_blob_area=40, confidence_threshold=0.1)
BETA0, BETA1 = 20.0, 0.1
EXACT_LAW = thermoreg.FittedRegressor("ridge", {"intercept": BETA0, "slope": BETA1}, {"lambda": 0.0})

ADAPTER_CONFIDENCE = "0.9"
NEURAL_INPUT = 640  # square input size of the neural detectors the adapter stands in for
FEVER_CEILING_C = thermoreg.DEFAULT_FEVER_CEILING_C
MIN_RECALL = 0.95

# Input sizes: "full" is what the benchmark measures, "smoke" is the
# self-test's tiny version of the same workloads.
SIZES = {
    "full": {
        "dense_frames": 100, "external_scenes": 100, "calibration_n": 200,
        "eval_images": 400, "eval_sets": 8,
    },
    "smoke": {
        "dense_frames": 4, "external_scenes": 3, "calibration_n": 60,
        "eval_images": 12, "eval_sets": 2,
    },
}


@dataclass
class Tally:
    op_times: list[float] = field(default_factory=list)  # seconds per operation
    busy_s: float = 0.0  # wall time inside the timed calls
    rounds: list[list[float]] = field(default_factory=list)  # op times of each round, by position
    setup_times: list[float] = field(default_factory=list)  # construction per round
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    matched: int = 0  # stream faces read correctly
    faces: int = 0
    worst_error_c: float = 0.0
    launch_times: list[float] = field(default_factory=list)
    scratch_files: list[int] = field(default_factory=list)  # per adapter, before close
    paced: bool = False  # run the reference kernel after every round
    ref_times: list[float] = field(default_factory=list)  # kernel time per call, one per operation

    def add_round(self, op_times: list[float], busy_s: float) -> None:
        """Record a round; a paced tally then times the reference kernel
        and pairs its time with each of the round's operations."""
        self.op_times += op_times
        self.busy_s += busy_s
        self.rounds.append(op_times)
        if self.paced:
            self.ref_times += [reference.after(busy_s)] * len(op_times)

    def best_p50(self) -> float:
        """Median over positions of the fastest time each position took
        across the rounds, in seconds. Every round runs the same operations
        in the same order, so position k is the same work in each round."""
        return statistics.median(min(times) for times in zip(*self.rounds))

    def ref_p50(self) -> float:
        """Median over operations of each operation's time divided by the
        reference kernel's time taken right after its round."""
        return statistics.median(op / ref for op, ref in zip(self.op_times, self.ref_times, strict=True))

    def merge_checks(self, other: "Tally") -> None:
        """Count another tally's checked operations (timings are not merged)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.matched += other.matched
        self.faces += other.faces
        self.worst_error_c = max(self.worst_error_c, other.worst_error_c)


def measure(workload, budget_s: float, tracer=None) -> Tally:
    """Run rounds back to back while the next round is expected to fit the
    budget; at least one round. The tally is paced."""
    tally = Tally(paced=True)
    start = PERF()
    while True:
        begin = PERF()
        workload.round(tally, tracer)
        last = PERF() - begin
        if PERF() - start + last > budget_s:
            return tally


def measure_traced(workload, budget_s: float, tracer) -> tuple[Tally, Tally]:
    """Alternate untraced and traced rounds until the budget is spent, so
    both tallies see the same machine conditions; returns (untraced, traced)."""
    base, traced = Tally(), Tally()
    start = PERF()
    while True:
        begin = PERF()
        workload.round(base, None)
        tracer.install()
        try:
            workload.round(traced, tracer)
        finally:
            tracer.uninstall()
        if PERF() - start + (PERF() - begin) > budget_s:
            return base, traced


def _sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _pulls(items, stamps: list[float], tracer):
    """Yield items in order, stamping the time of every pull (and of the
    final, exhausting pull). Traced, each pull-to-pull interval is a
    ``pipeline.run_stream.frame`` span."""
    span = None
    for position, item in enumerate(items):
        stamps.append(PERF())
        if tracer is not None:
            if span is not None:
                tracer.close(span)
            span = tracer.open("pipeline.run_stream.frame", position)
        yield item
    stamps.append(PERF())
    if span is not None:
        tracer.close(span)


def _pixel_box(label, width: int, height: int) -> tuple[int, int, int, int]:
    box = denormalize(label.bbox, width, height)
    return (box.x1, box.y1, box.x2, box.y2)


class StreamWorkload:
    """A closed-loop ``run_stream`` session over pre-generated inputs, with
    reading-log CSV and one annotated PPM per frame written to disk.

    Each round writes into a new session directory, and the previous
    round's directory is removed before the round, untimed. A live session
    writes new files; rewriting the last round's files instead would make
    ext4 flush each replaced file to disk (its auto_da_alloc heuristic), so
    the stream would time the shared disk."""

    op_unit = "frame"

    def __init__(self, seed: int, size: dict, work: Path):
        self.seed = seed
        self.size = size
        self.work = work
        self.sessions = 0
        self.session_dir: Path | None = None
        self.source: list = []
        self.truth: list[list[tuple[tuple[int, int, int, int], float]]] = []

    def _detector(self, tally: Tally):
        """A fresh detector plus the callable that releases it."""
        raise NotImplementedError

    @property
    def log_path(self) -> Path:
        return self.session_dir / "readings.csv"

    @property
    def out_dir(self) -> Path:
        return self.session_dir / "annotated"

    def round(self, tally: Tally, tracer) -> None:
        if self.session_dir is not None:
            shutil.rmtree(self.session_dir)
        self.sessions += 1
        self.session_dir = self.work / f"session_{self.sessions:05d}"
        self.session_dir.mkdir()
        start = PERF()
        detector, release = self._detector(tally)
        try:
            cfg = pipeline.PipelineConfig(log_path=self.log_path, output_dir=self.out_dir)
            tally.setup_times.append(PERF() - start)
            stamps: list[float] = []
            begin = PERF()
            summary = pipeline.run_stream(_pulls(self.source, stamps, tracer), detector, EXACT_LAW, cfg)
            busy_s = PERF() - begin
        finally:
            release()
        tally.add_round(np.diff(stamps).tolist(), busy_s)
        check = oracles.check_stream_log(self.log_path, self.truth)
        skipped = len(self.source) - summary.frames
        tally.attempted += len(self.source)
        tally.failed += skipped + len(check.bad_frames)
        tally.matched += check.matched
        tally.faces += check.faces
        tally.worst_error_c = max(tally.worst_error_c, check.worst_error_c)
        if skipped or check.bad_frames:
            tally.problems.append(
                f"{skipped} frames skipped, frames {sorted(check.bad_frames)[:10]} failed the oracle"
            )

    def correct(self, tally: Tally) -> bool:
        return tally.failed == 0 and tally.faces > 0 and tally.matched / tally.faces >= MIN_RECALL

    def digests(self) -> dict[str, str]:
        frames = sorted(self.out_dir.glob("out_*.ppm"))
        return {
            "reading_log_csv": _sha256_files([self.log_path]),
            "annotated_frames": _sha256_files(frames),
        }


class StreamDense(StreamWorkload):
    name = "stream_dense"

    def params(self) -> dict:
        return {
            "frames_per_session": self.size["dense_frames"], "frame": "160x120", "layout": "dense",
            "faces_per_frame": "12-15", "source": "in-memory ThermalFrame", "detector": "BlobDetector",
            "blob_cfg": dict(vars(BLOB_CFG)), "model": EXACT_LAW.params,
            "overlay": True, "log_csv": True, "annotated_ppm": True,
        }

    def build(self) -> None:
        seq = synthscene.SequenceSpec(frames=self.size["dense_frames"], layout="dense", seed=self.seed)
        for frame, labels, temps in synthscene.generate_sequence(seq):
            self.source.append(frame)
            self.truth.append([(_pixel_box(l, frame.width, frame.height), t) for l, t in zip(labels, temps)])

    def _detector(self, tally):
        return detectors.BlobDetector(BLOB_CFG), lambda: None


class Stream640External(StreamWorkload):
    name = "stream_640_external"

    def params(self) -> dict:
        return {
            "frames_per_session": self.size["external_scenes"], "frame": f"{NEURAL_INPUT}x{NEURAL_INPUT}",
            "resized_from": "160x120", "layout": "sparse", "faces_per_frame": 3, "source": "PGM file paths",
            "detector": "ExternalDetector over the v1 line protocol", "adapter": "perfbench/adapter.py",
            "adapter_confidence": float(ADAPTER_CONFIDENCE), "model": EXACT_LAW.params,
            "overlay": True, "log_csv": True, "annotated_ppm": True,
        }

    def build(self) -> None:
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True)
        seq = synthscene.SequenceSpec(
            frames=self.size["external_scenes"], layout="sparse", sparse_count=3, seed=self.seed
        )
        scenes = []
        for frame, labels, temps in synthscene.generate_sequence(seq):
            big = frameio.resize(frame, NEURAL_INPUT, NEURAL_INPUT)
            path = inputs / f"scene_{frame.frame_index:06d}.pgm"
            frameio.save_frame(big, path)
            self.source.append(path)
            self.truth.append([(_pixel_box(l, NEURAL_INPUT, NEURAL_INPUT), t) for l, t in zip(labels, temps)])
            scenes.append([[l.bbox.class_id, l.bbox.cx, l.bbox.cy, l.bbox.w, l.bbox.h] for l in labels])
        self.labels_path = self.work / "adapter_labels.json"
        self.labels_path.write_text(json.dumps(scenes))

    def _detector(self, tally):
        start = PERF()
        adapter = detectors.ExternalAdapter(
            [sys.executable, str(ADAPTER), str(self.labels_path), ADAPTER_CONFIDENCE]
        )
        tally.launch_times.append(PERF() - start)

        def release() -> None:
            # ExternalAdapter keeps its request files in a directory under
            # tempfile's default location, which run.py points into the work
            # dir; they pile up until close().
            scratch = Path(tempfile.gettempdir()).glob("thermotrack-adapter-*")
            tally.scratch_files.append(sum(1 for d in scratch for _ in d.iterdir()))
            adapter.close()

        return detectors.ExternalDetector(adapter), release


class Calibrate:
    """grid_search over DEFAULT_GRIDS with 5 folds, select_model against an
    afebrile screening set, save_model; one round is one calibration."""

    name = "calibrate"
    op_unit = "calibration"
    folds = 5
    screening_count = 200

    def __init__(self, seed: int, size: dict, work: Path):
        self.seed = seed
        self.n = size["calibration_n"]
        self.model_path = work / "model.json"

    def params(self) -> dict:
        return {
            "n": self.n, "beta0": BETA0, "beta1": BETA1, "grids": "DEFAULT_GRIDS",
            "grid_points": sum(len(v) for v in thermoreg.DEFAULT_GRIDS.values()), "folds": self.folds,
            "screening_pixels": self.screening_count, "screening_temperatures_c": [34.0, 37.5],
            "ceiling_c": FEVER_CEILING_C,
        }

    def build(self) -> None:
        self.samples = synthscene.generate_calibration_set(self.n, BETA0, BETA1, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        temps = rng.uniform(34.0, 37.5, self.screening_count)
        self.screening = [float((t - BETA0) / BETA1) for t in temps]
        self.probe = [p / 2 for p in range(511)] + [s.max_pixel for s in self.samples]

    def round(self, tally: Tally, tracer) -> None:
        start = PERF()
        report = thermoreg.grid_search(self.samples, thermoreg.DEFAULT_GRIDS, self.folds, self.seed)
        model = thermoreg.select_model(self.samples, report, self.screening, FEVER_CEILING_C)
        thermoreg.save_model(model, self.model_path)
        elapsed = PERF() - start
        tally.add_round([elapsed], elapsed)
        tally.attempted += 1
        problems = self._check(report, model)
        if problems:
            tally.failed += 1
            tally.problems.extend(problems)
        self.report_top = (report.entries[0].spec.kind, report.entries[0].mean_mse, report.entries[0].mean_r2)
        self.selected = (model.kind, dict(model.hyperparams))

    def _check(self, report, model) -> list[str]:
        top = report.entries[0]
        problems = []
        if not top.mean_mse <= 0.25:
            problems.append(f"top CV MSE {top.mean_mse} > 0.25")
        if not top.mean_r2 >= 0.93:
            problems.append(f"top CV R2 {top.mean_r2} < 0.93")
        if any(model.predict(p) > FEVER_CEILING_C for p in self.screening):
            problems.append("selected model predicts a fever on the afebrile screening set")
        reloaded = thermoreg.load_model(self.model_path)
        if any(reloaded.predict(p) != model.predict(p) for p in self.probe):
            problems.append("reloaded model does not predict bit-identically")
        return problems

    def correct(self, tally: Tally) -> bool:
        return tally.failed == 0

    def digests(self) -> dict[str, str]:
        return {"model_json": _sha256_files([self.model_path])}


class EvalDense:
    """map_over_thresholds over blob detections on dense frames, split into
    equal image sets; one operation evaluates one set, a round evaluates
    every set once. Detections and the references are made in build()."""

    name = "eval_dense"
    op_unit = "evaluation"

    def __init__(self, seed: int, size: dict, work: Path):
        self.seed = seed
        self.images = size["eval_images"]
        self.sets = size["eval_sets"]

    def params(self) -> dict:
        return {
            "images": self.images, "image_sets": self.sets, "frame": "160x120", "layout": "dense",
            "faces_per_frame": "12-15", "detector": "BlobDetector",
            "thresholds": list(deteval.DEFAULT_IOU_THRESHOLDS),
        }

    def build(self) -> None:
        seq = synthscene.SequenceSpec(frames=self.images, layout="dense", seed=self.seed)
        blob = detectors.BlobDetector(BLOB_CFG)
        dets, gts = [], []
        for frame, labels, _ in synthscene.generate_sequence(seq):
            dets.append(blob.detect(frame))
            gts.append([denormalize(l.bbox, frame.width, frame.height) for l in labels])
        per_set = self.images // self.sets
        self.image_sets = []
        for start in range(0, per_set * self.sets, per_set):
            set_dets, set_gts = dets[start : start + per_set], gts[start : start + per_set]
            reference = oracles.reference_eval(
                [[(d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2) for d in image] for image in set_dets],
                [[d.confidence for d in image] for image in set_dets],
                [[(g.x1, g.y1, g.x2, g.y2) for g in image] for image in set_gts],
                deteval.DEFAULT_IOU_THRESHOLDS,
            )
            self.image_sets.append((set_dets, set_gts, reference))

    def round(self, tally: Tally, tracer) -> None:
        times, texts = [], []
        for dets, gts, reference in self.image_sets:
            start = PERF()
            report = deteval.map_over_thresholds(dets, gts)
            times.append(PERF() - start)
            tally.attempted += 1
            problems = oracles.compare_eval(report, reference)
            if problems:
                tally.failed += 1
                tally.problems.extend(problems)
            texts.append(report.to_text())
        tally.add_round(times, sum(times))
        self.report_text = "".join(texts)

    def correct(self, tally: Tally) -> bool:
        return tally.failed == 0

    def digests(self) -> dict[str, str]:
        return {"eval_report_text": hashlib.sha256(self.report_text.encode()).hexdigest()}


WORKLOADS = {cls.name: cls for cls in (StreamDense, Stream640External, Calibrate, EvalDense)}
