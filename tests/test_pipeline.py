import contextlib
import csv
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _oracles import expected_overlay, label_rect, max_pixel_scan
from conftest import gray_frame, peak_traced_bytes, pinned_models
from thermotrack import pipeline
from thermotrack.annotations import GroundTruthLabel, NormBBox, PixelBBox, serialize_yolo
from thermotrack.detectors import (
    BlobDetector, Detection, Detector, DetectorConfig, ExternalAdapter, ExternalDetector, ReplayDetector, _Boxes
)
from thermotrack.frameio import ThermalFrame, gray_to_bgr, save_frame
from thermotrack.pipeline import (
    LOG_CSV_HEADER,
    PipelineConfig,
    StreamSummary,
    TempReading,
    extract_max_pixel,
    format_temperature,
    process_frame,
    render_overlay,
    run_stream,
    scaled_min_area,
)
from thermotrack.synthscene import FaceSpec, SceneSpec, SequenceSpec, generate, generate_sequence
from thermotrack.thermoreg import FittedRegressor

BLOB_CFG = DetectorConfig(intensity_threshold=32, min_blob_area=40, confidence_threshold=0.1)
LAW = FittedRegressor("ridge", {"intercept": 20.0, "slope": 0.1}, {"lambda": 0.0})
STUB = Path(__file__).parent / "stub_adapter.py"
# 60 faces in each 320x240 frame: later boxes cross earlier labels.
CROWD = SequenceSpec(frames=10, layout="dense", dense_min=60, dense_max=60, width=320, height=240, seed=43)


def _scene_frame(temp=35.0, seed=2):
    spec = SceneSpec(
        background_level=20,
        noise_amplitude=4,
        faces=[FaceSpec(80, 60, 10, 11, temp)],
        beta0=20.0,
        beta1=0.1,
        seed=seed,
    )
    return generate(spec)


class TestExtractMaxPixel:
    def test_constant_frame(self):
        frame = gray_frame(40, 30, value=200)
        assert extract_max_pixel(frame, PixelBBox(3, 4, 20, 21)) == 200

    def test_single_hot_pixel(self):
        frame = gray_frame(40, 30, value=10)
        frame.pixels[12, 17] = 255
        assert extract_max_pixel(frame, PixelBBox(15, 10, 20, 15)) == 255

    def test_matches_exhaustive_scan(self, rng):
        for _ in range(50):
            pixels = rng.integers(0, 256, (20, 20), dtype=np.uint8)
            frame = ThermalFrame(pixels)
            x1 = int(rng.integers(0, 19)); x2 = int(rng.integers(x1 + 1, 21))
            y1 = int(rng.integers(0, 19)); y2 = int(rng.integers(y1 + 1, 21))
            assert extract_max_pixel(frame, PixelBBox(x1, y1, x2, y2)) == max_pixel_scan(
                pixels, x1, y1, x2, y2
            )

    def test_roi_out_of_bounds(self):
        with pytest.raises(ValueError):
            extract_max_pixel(gray_frame(10, 10), PixelBBox(5, 5, 12, 9))

    def test_needs_gray_frame(self):
        with pytest.raises(ValueError):
            extract_max_pixel(gray_to_bgr(gray_frame(8, 8)), PixelBBox(0, 0, 4, 4))


class TestAreaFilter:
    @pytest.mark.parametrize("width, height, side", [(160, 120, 10), (320, 240, 20)])
    def test_frame_reads_boxes_that_reach_the_scaled_area(self, width, height, side):
        """min_bbox_area=100 scales to side * side: a box of that area is read
        and one a pixel short of it is not; readings keep detection order."""
        boxes = [
            PixelBBox(60, 40, 60 + side, 40 + side),
            PixelBBox(100, 5, 100 + side - 1, 5 + side + 1),
            PixelBBox(5, 60, 5 + side, 60 + side),
        ]

        class Fixed(Detector):
            def _detect_raw(self, frame):
                return _Boxes.of(boxes, [0.9] * len(boxes), [0] * len(boxes))

        assert scaled_min_area(100.0, width, height) == side * side
        frame = gray_frame(width, height, value=50)
        _, readings = process_frame(frame, PipelineConfig(min_bbox_area=100), Fixed(DetectorConfig()), LAW)
        assert [r.bbox for r in readings] == [boxes[0], boxes[2]]

    def test_scaling_rule(self):
        assert scaled_min_area(100.0, 160, 120) == 100.0
        assert scaled_min_area(100.0, 640, 640) == pytest.approx(100.0 * 640 * 640 / 19200)

    def test_int_area_near_float_max_scales_to_inf(self):
        # An int area times the frame area, divided as ints, would overflow.
        cfg = PipelineConfig(min_bbox_area=10**308)
        assert scaled_min_area(cfg.min_bbox_area, 640, 640) == math.inf


class TestPipelineConfig:
    @pytest.mark.parametrize("name", ["min_bbox_area", "fever_threshold_c"])
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400, -(10**400)], ids=["nan", "inf", "-inf", "1e400", "-1e400"]
    )
    def test_value_outside_float_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize("decimals", [1.5, True, "1", -1])
    def test_overlay_decimals_must_be_an_int(self, decimals):
        # 1.5 would fail every frame later with "Invalid format specifier".
        with pytest.raises(ValueError, match="overlay_decimals"):
            PipelineConfig(overlay_decimals=decimals)


class TestProcessFrame:
    def test_single_face_reading(self):
        frame, _, _ = _scene_frame(temp=35.0)
        annotated, readings = process_frame(frame, PipelineConfig(), BlobDetector(BLOB_CFG), LAW)
        assert len(readings) == 1
        reading = readings[0]
        assert reading.max_pixel == 150
        assert reading.temperature_c == LAW.predict(150)
        assert reading.temperature_c == pytest.approx(35.0, abs=1e-9)
        assert not reading.flagged
        assert annotated.channels == 3

    def test_empty_frame_passes_through(self):
        frame = gray_frame(160, 120, value=15)
        annotated, readings = process_frame(frame, PipelineConfig(), BlobDetector(BLOB_CFG), LAW)
        assert readings == []
        assert np.array_equal(annotated.pixels, gray_to_bgr(frame).pixels)

    def test_fever_flagging(self):
        frame, _, _ = _scene_frame(temp=38.6)
        _, readings = process_frame(frame, PipelineConfig(), BlobDetector(BLOB_CFG), LAW)
        assert readings[0].flagged

    def test_readings_bounded_by_detections(self):
        frame, _, _ = _scene_frame()
        detector = BlobDetector(BLOB_CFG)
        raw = detector.detect(frame)
        cfg = PipelineConfig(min_bbox_area=150.0)
        _, readings = process_frame(frame, cfg, detector, LAW)
        assert len(readings) <= len(raw)

    def test_bgr_input_converted_before_extraction(self):
        frame, _, _ = _scene_frame(temp=35.0)
        bgr = gray_to_bgr(frame)
        _, readings = process_frame(bgr, PipelineConfig(), BlobDetector(BLOB_CFG), LAW)
        assert readings[0].max_pixel == 150

    def test_bgr_input_left_unchanged(self):
        frame, _, _ = _scene_frame(temp=35.0)
        bgr = gray_to_bgr(frame)
        before = bgr.pixels.copy()
        annotated, readings = process_frame(bgr, PipelineConfig(), BlobDetector(BLOB_CFG), LAW)
        assert readings
        assert np.array_equal(bgr.pixels, before)
        assert not np.shares_memory(annotated.pixels, bgr.pixels)

    @pytest.mark.parametrize("channels", [1, 3], ids=["gray", "bgr"])
    def test_overlay_off_returns_the_plain_frame(self, channels):
        frame, _, _ = _scene_frame(temp=35.0)
        if channels == 3:
            frame = gray_to_bgr(frame)
            frame.pixels[0, 0] = (1, 2, 3)
        plain = gray_to_bgr(frame).pixels if channels == 1 else frame.pixels.copy()
        off = PipelineConfig(overlay_enabled=False)
        annotated, readings = process_frame(frame, off, BlobDetector(BLOB_CFG), LAW)
        _, drawn = process_frame(frame, PipelineConfig(), BlobDetector(BLOB_CFG), LAW)
        assert readings and readings == drawn
        assert np.array_equal(annotated.pixels, plain)
        assert not np.shares_memory(annotated.pixels, frame.pixels)

    def test_one_bgr_frame_allocated_at_640(self, rng):
        """The annotated copy is the only frame-sized array: the peak stays
        under one and a half 640x640 BGR frames."""

        class Fixed(Detector):
            def _detect_raw(self, frame):
                return _Boxes.of([PixelBBox(40 + 150 * i, 60, 140 + 150 * i, 180) for i in range(4)], [0.9] * 4, [0] * 4)

        frame = ThermalFrame(rng.integers(0, 256, (640, 640), dtype=np.uint8))
        detector = Fixed(DetectorConfig())
        annotated, readings = process_frame(frame, PipelineConfig(), detector, LAW)
        assert len(readings) == 4
        peak = peak_traced_bytes(process_frame, frame, PipelineConfig(), detector, LAW)
        assert peak < 1.5 * annotated.pixels.nbytes

    def test_detector_failure_carries_frame_index(self):
        class Exploding(BlobDetector):
            def _detect_raw(self, frame):
                raise RuntimeError("sensor fire")

        frame = gray_frame(32, 32, frame_index=7)
        from thermotrack.pipeline import PipelineFrameError

        with pytest.raises(PipelineFrameError, match="frame 7"):
            process_frame(frame, PipelineConfig(), Exploding(BLOB_CFG), LAW)


class TestRenderOverlay:
    def test_zero_readings_is_identity(self):
        frame = gray_to_bgr(gray_frame(60, 40, value=77))
        out = render_overlay(frame, [])
        assert np.array_equal(out.pixels, frame.pixels)

    def test_deterministic(self, rng):
        frame = gray_to_bgr(ThermalFrame(rng.integers(0, 256, (50, 70), dtype=np.uint8)))
        readings = [TempReading(0, PixelBBox(10, 15, 30, 35), 150, 35.0, False)]
        a = render_overlay(frame, readings)
        b = render_overlay(frame, readings)
        assert np.array_equal(a.pixels, b.pixels)

    def test_matches_independent_rasterization(self, rng):
        frame = gray_to_bgr(ThermalFrame(rng.integers(0, 200, (64, 90), dtype=np.uint8)))
        readings = [
            TempReading(0, PixelBBox(12, 10, 40, 34), 150, 35.0, False),
            TempReading(0, PixelBBox(50, 2, 80, 20), 190, 39.05, True),  # text forced below
        ]
        out = render_overlay(frame, readings, decimals=1)
        expected = expected_overlay(frame.pixels, readings, 1)
        assert np.array_equal(out.pixels, expected)
        assert np.any(out.pixels != frame.pixels)

    def test_gray_frame_drawn_on_its_bgr_replica(self, rng):
        gray = ThermalFrame(rng.integers(0, 256, (40, 60), dtype=np.uint8), frame_index=3, source_id="g")
        before = gray.pixels.copy()
        readings = [TempReading(3, PixelBBox(5, 12, 30, 35), 150, 36.5, False)]
        out = render_overlay(gray, readings)
        expected = expected_overlay(np.repeat(before[..., None], 3, axis=2), readings, 1)
        assert np.array_equal(out.pixels, expected)
        assert (out.frame_index, out.source_id) == (3, "g")
        assert np.array_equal(gray.pixels, before)

    def test_never_writes_outside_frame(self):
        frame = gray_to_bgr(gray_frame(30, 22, value=0))
        readings = [TempReading(0, PixelBBox(0, 0, 30, 22), 150, -5.125, False)]
        out = render_overlay(frame, readings)  # must not raise; clipping everywhere
        assert out.pixels.shape == frame.pixels.shape

    def test_unknown_glyph_raises(self):
        frame = gray_to_bgr(gray_frame(30, 22))
        readings = [TempReading(0, PixelBBox(0, 0, 10, 10), 150, math.nan, False)]  # "nan°C"
        with pytest.raises(ValueError, match="no glyph for character 'n'"):
            render_overlay(frame, readings)

    def test_format_temperature(self):
        assert format_temperature(36.58, 1) == "36.6°C"
        assert format_temperature(36.55, 2) == "36.55°C"
        assert format_temperature(-0.25, 1) == "-0.2°C"


class TestOutputPins:
    """sha256 of the annotated frames and of the reading log for three seeded
    synthscene streams, recorded from the per-pixel glyph renderer and the
    np.repeat gray-to-BGR path; the array paths must reproduce them byte for
    byte. The crowd stream puts 60 faces in each 320x240 frame, where a later
    reading's box crosses an earlier reading's label, so it pins the draw
    order too."""

    PINS = json.loads((Path(__file__).parent / "data" / "render_pins.json").read_text())

    @pytest.mark.parametrize(
        "layout, decimals, seq, min_bbox_area",
        [
            ("dense", 1, SequenceSpec(frames=40, layout="dense", seed=41), 100.0),
            ("sparse", 3, SequenceSpec(frames=40, layout="sparse", seed=42), 100.0),
            ("crowd", 1, CROWD, 1),
        ],
        ids=["dense-1-41", "sparse-3-42", "crowd"],
    )
    def test_annotated_frames_and_log_unchanged(self, tmp_path, layout, decimals, seq, min_bbox_area):
        cfg = PipelineConfig(
            min_bbox_area=min_bbox_area,
            overlay_decimals=decimals,
            log_path=tmp_path / "log.csv",
            output_dir=tmp_path / "out",
        )
        frames = [frame for frame, _, _ in generate_sequence(seq)]
        summary = run_stream(frames, BlobDetector(BLOB_CFG), LAW, cfg)
        annotated = hashlib.sha256()
        for path in sorted((tmp_path / "out").glob("out_*.ppm")):
            annotated.update(path.read_bytes())
        assert {
            "readings": summary.readings,
            "annotated_frames": annotated.hexdigest(),
            "reading_log_csv": hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest(),
        } == self.PINS[layout]
        if layout == "crowd":
            assert _label_crossings(tmp_path / "log.csv", decimals, seq.width, seq.height) > 0


@pytest.mark.parametrize("name", ["n200", "integer_dups"])
def test_crowd_readings_follow_each_pinned_model(tmp_path, name):
    """Every kind of model: each logged temperature is the model's own
    ``predict`` of the logged max pixel, and ``process_frame`` reads each
    frame as the stream logs it."""
    frames = [frame for frame, _, _ in generate_sequence(CROWD)]
    detector = BlobDetector(BLOB_CFG)
    for model in pinned_models(tmp_path, name):
        cfg = PipelineConfig(min_bbox_area=1, log_path=tmp_path / "log.csv")
        assert run_stream(frames, detector, model, cfg).readings == 600
        rows = (tmp_path / "log.csv").read_text().splitlines()[1:]
        assert [row.split(",")[6] for row in rows] == [repr(model.predict(int(row.split(",")[5]))) for row in rows]
        read = [
            f"{r.frame_index},{r.bbox.x1},{r.bbox.y1},{r.bbox.x2},{r.bbox.y2},"
            f"{r.max_pixel},{r.temperature_c!r},{int(r.flagged)}"
            for index, frame in enumerate(frames)
            for r in process_frame(replace(frame, frame_index=index), cfg, detector, model)[1]
        ]
        assert read == rows


@pytest.mark.parametrize("kind", ["blob", "replay", "external"])
def test_stream_reads_the_model_once_and_builds_no_objects(monkeypatch, tmp_path, kind):
    """The stream path asks the model for one 256-pixel table per session and
    carries detections as arrays, from the detector to the log and overlay.
    Whatever the detector, it builds no ``Detection`` or ``TempReading``; the
    only ``PixelBBox``es are those ``denormalize`` gives replay and external."""
    scenes = list(generate_sequence(SequenceSpec(frames=3, layout="dense", seed=41)))
    frames = [frame for frame, _, _ in scenes]
    adapter = contextlib.nullcontext()
    if kind == "blob":
        detector = BlobDetector(BLOB_CFG)
    elif kind == "replay":
        detector = ReplayDetector({frame.source_id: labels for frame, labels, _ in scenes})
    else:
        labels_dir = tmp_path / "labels"
        labels_dir.mkdir()
        for frame, labels, _ in scenes:
            (labels_dir / f"{frame.source_id}.txt").write_text(serialize_yolo([label.bbox for label in labels]))
        adapter = ExternalAdapter([sys.executable, str(STUB), "labels", str(labels_dir), "0.9"])
        detector = ExternalDetector(adapter)
    batches = []
    predict_batch = FittedRegressor.predict_batch

    def counted(model, pixels):
        batches.append(len(pixels))
        return predict_batch(model, pixels)

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the stream path")

    monkeypatch.setattr(FittedRegressor, "predict_batch", counted)
    monkeypatch.setattr(FittedRegressor, "predict", forbidden)
    for cls in (Detection, TempReading) + ((PixelBBox,) if kind == "blob" else ()):
        monkeypatch.setattr(cls, "__init__", forbidden)
    cfg = PipelineConfig(log_path=tmp_path / "log.csv", output_dir=tmp_path / "out")
    with adapter:
        summary = run_stream(frames, detector, LAW, cfg)
    assert (summary.frames, summary.errors) == (3, 0) and summary.readings > 0
    assert batches == [256]


def test_unusable_model_fails_before_the_first_frame(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("kept\n")
    bogus = FittedRegressor("bogus", {})
    # Finite params, so load_model accepts it, but 1e308 + 1e308 * 1 overflows.
    overflowing = FittedRegressor("ridge", {"intercept": 1e308, "slope": 1e308}, {"lambda": 0.0})
    for model, message in [(bogus, "unknown model kind"), (overflowing, "pixel value 1 is not finite")]:
        with pytest.raises(ValueError, match=message):
            run_stream([gray_frame(32, 32)], BlobDetector(BLOB_CFG), model, PipelineConfig(log_path=log))
        assert log.read_text() == "kept\n"
        with pytest.raises(ValueError, match=message):
            process_frame(gray_frame(32, 32), PipelineConfig(), BlobDetector(BLOB_CFG), model)


def _label_crossings(log_path, decimals, width, height):
    """How many (earlier, later) reading pairs of one frame in a reading log
    have the later box overlapping the earlier reading's label cells."""
    with open(log_path) as handle:
        rows = list(csv.reader(handle))[1:]
    frames = {}
    for row in rows:
        box = PixelBBox(*map(int, row[1:5]))
        label = label_rect(box, format_temperature(float(row[6]), decimals), width, height)
        frames.setdefault(row[0], []).append((box, label))
    crossings = 0
    for readings in frames.values():
        for later, (box, _) in enumerate(readings):
            for _, (x1, y1, x2, y2) in readings[:later]:
                crossings += box.x1 < x2 and x1 < box.x2 and box.y1 < y2 and y1 < box.y2
    return crossings


class TestRunStream:
    def _sequence_paths(self, tmp_path, frames=20):
        seq = SequenceSpec(frames=frames, layout="sparse", sparse_count=2, seed=3)
        paths = []
        for frame, _, _ in generate_sequence(seq):
            path = tmp_path / f"frame_{frame.frame_index:06d}.pgm"
            save_frame(frame, path)
            paths.append(path)
        return paths

    def test_twenty_frames_in_order(self, tmp_path):
        paths = self._sequence_paths(tmp_path)
        cfg = PipelineConfig(log_path=tmp_path / "log.csv", output_dir=tmp_path / "out")
        summary = run_stream(paths, BlobDetector(BLOB_CFG), LAW, cfg)
        assert summary.frames == 20
        assert summary.readings == 40
        assert sorted(p.name for p in (tmp_path / "out").glob("*.ppm")) == [
            f"out_{i:06d}.ppm" for i in range(20)
        ]
        with open(tmp_path / "log.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["frame_index", "x1", "y1", "x2", "y2", "max_pixel", "temperature_c", "flagged"]
        indices = [int(r[0]) for r in rows[1:]]
        assert indices == sorted(indices)
        assert len(rows) - 1 == summary.readings

    def test_frame_that_cannot_be_drawn_is_skipped_unlogged(self, tmp_path, monkeypatch):
        def no_glyph(text, shape):
            raise ValueError(f"no glyph for {text!r}")

        monkeypatch.setattr(pipeline, "_label", no_glyph)
        paths = self._sequence_paths(tmp_path, frames=3)
        saving = PipelineConfig(log_path=tmp_path / "saving.csv", output_dir=tmp_path / "out")
        summary = run_stream(paths, BlobDetector(BLOB_CFG), LAW, saving)
        assert (summary.frames, summary.errors, summary.readings) == (0, 3, 0)
        assert (tmp_path / "saving.csv").read_text() == LOG_CSV_HEADER + "\n"
        assert not list((tmp_path / "out").iterdir())
        # A session that saves no frames draws none, so it reads every frame.
        summary = run_stream(paths, BlobDetector(BLOB_CFG), LAW, PipelineConfig(log_path=tmp_path / "log.csv"))
        assert (summary.frames, summary.errors, summary.readings) == (3, 0, 6)

    def test_corrupt_frame_skipped(self, tmp_path):
        paths = self._sequence_paths(tmp_path)
        paths[7].write_bytes(b"this is not a frame")
        cfg = PipelineConfig(log_path=tmp_path / "log.csv")
        summary = run_stream(paths, BlobDetector(BLOB_CFG), LAW, cfg)
        assert summary.frames == 19
        assert summary.errors == 1

    def test_skip_warning_names_the_frame_once(self, tmp_path, caplog):
        class Failing(BlobDetector):
            def _detect_raw(self, frame):
                raise RuntimeError("boom")

        missing = tmp_path / "missing.pgm"
        with caplog.at_level("WARNING", logger=pipeline.logger.name):
            summary = run_stream([gray_frame(32, 32), missing], Failing(BLOB_CFG), LAW, PipelineConfig())
        assert summary.errors == 2
        first, second = (record.getMessage() for record in caplog.records)
        assert first == "skipping frame 0: detector failed: boom"
        assert second.startswith("skipping frame 1: ") and second.count("frame 1") == 1

    def test_frames_accepted_directly(self):
        seq = SequenceSpec(frames=5, layout="sparse", sparse_count=1, seed=5)
        frames = [frame for frame, _, _ in generate_sequence(seq)]
        summary = run_stream(frames, BlobDetector(BLOB_CFG), LAW, PipelineConfig())
        assert summary.frames == 5
        assert summary.readings == 5
        assert summary.latency_count == 5

    def test_frames_after_adapter_timeout_skipped(self):
        # The first reply comes 0.5 s late; no later frame may take it as its own.
        frames = [gray_frame(160, 120, value=100) for _ in range(3)]
        command = [sys.executable, str(STUB), "slow-once", "1.0"]
        with ExternalAdapter(command, response_timeout_s=0.5) as adapter:
            summary = run_stream(frames, ExternalDetector(adapter), LAW, PipelineConfig())
        assert (summary.frames, summary.readings, summary.errors) == (0, 0, 3)

    def test_flagged_counted(self, tmp_path):
        spec = SceneSpec(
            background_level=20, noise_amplitude=4,
            faces=[FaceSpec(40, 40, 10, 10, 38.7), FaceSpec(110, 70, 10, 10, 36.0)],
            beta0=20.0, beta1=0.1, seed=8,
        )
        frame, _, _ = generate(spec)
        summary = run_stream([frame], BlobDetector(BLOB_CFG), LAW, PipelineConfig())
        assert summary.readings == 2
        assert summary.flagged == 1

    def test_holds_one_frame_at_a_time(self, tmp_path):
        """The previous frame and its annotated copy are freed before the
        next frame loads: five 640x640 paths peak as high as one."""
        paths = []
        for index in range(5):
            paths.append(tmp_path / f"f{index}.pgm")
            save_frame(gray_frame(640, 640, value=20 + index), paths[-1])
        labels = {path.stem: [GroundTruthLabel(NormBBox(0, 0.5, 0.5, 0.25, 0.25))] for path in paths}
        detector = ReplayDetector(labels)
        one = peak_traced_bytes(run_stream, paths[:1], detector, LAW, PipelineConfig())
        five = peak_traced_bytes(run_stream, paths, detector, LAW, PipelineConfig())
        assert five <= 1.1 * one

    def test_summary_text_keys(self):
        summary = StreamSummary(frames=3, readings=4, flagged=1)
        for ms in (2.0, 6.0, 4.0):
            summary.record_latency(ms)
        text = summary.to_text()
        assert text.splitlines() == [
            "frames=3",
            "readings=4",
            "flagged=1",
            "errors=0",
            "mean_latency_ms=4.000",
            "max_latency_ms=6.000",
        ]
