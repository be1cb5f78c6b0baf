import gc
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from _oracles import bfs_components, iou_corners, nms_keep, scipy_components
from conftest import gray_frame
from thermotrack import detectors, deteval, synthscene
from thermotrack.annotations import GroundTruthLabel, NormBBox, PixelBBox, denormalize
from thermotrack.detectors import (
    REPLAY_NMS_IOU,
    AdapterError,
    AdapterExitedError,
    AdapterProtocolError,
    AdapterTimeoutError,
    BlobDetector,
    Detection,
    DetectorConfig,
    ExternalAdapter,
    ExternalDetector,
    ReplayDetector,
    blob_detect,
    nms,
)
from thermotrack.deteval import iou, map_over_thresholds
from thermotrack.frameio import ThermalFrame

STUB = Path(__file__).parent / "stub_adapter.py"
# The reply of the stub's slow, slow-once, partial, die-mid and crlf modes.
STUB_DET = (0, 0.9, NormBBox(0, 0.5, 0.5, 0.25, 0.25))


def stub_command(*args: str) -> list[str]:
    return [sys.executable, str(STUB), *args]


def _frame_with_square(w, h, x, y, side, value, background=0):
    pixels = np.full((h, w), background, dtype=np.uint8)
    pixels[y : y + side, x : x + side] = value
    return ThermalFrame(pixels)


class TestDetectionTypes:
    def test_confidence_range_enforced(self):
        with pytest.raises(ValueError):
            Detection(PixelBBox(0, 0, 5, 5), 1.5)

    def test_config_ranges(self):
        with pytest.raises(ValueError):
            DetectorConfig(confidence_threshold=-0.1)
        with pytest.raises(ValueError):
            DetectorConfig(nms_iou_threshold=1.0)
        with pytest.raises(ValueError):
            DetectorConfig(intensity_threshold=300)


class TestNms:
    def test_identical_boxes_keep_highest(self):
        box = PixelBBox(0, 0, 10, 10)
        kept = nms([Detection(box, 0.8), Detection(box, 0.9)], 0.5)
        assert [d.confidence for d in kept] == [0.9]

    def test_disjoint_boxes_all_kept(self):
        dets = [
            Detection(PixelBBox(0, 0, 5, 5), 0.9),
            Detection(PixelBBox(20, 20, 30, 30), 0.7),
            Detection(PixelBBox(50, 0, 60, 5), 0.8),
        ]
        kept = nms(dets, 0.5)
        assert [d.confidence for d in kept] == [0.9, 0.8, 0.7]

    def test_matches_brute_force_reference(self, rng):
        for _ in range(200):
            dets = []
            for _ in range(5):
                x1 = int(rng.integers(0, 30))
                y1 = int(rng.integers(0, 30))
                box = PixelBBox(x1, y1, x1 + int(rng.integers(1, 20)), y1 + int(rng.integers(1, 20)))
                dets.append(Detection(box, float(rng.integers(1, 1000)) / 1000.0))
            thr = float(rng.uniform(0.1, 0.9))
            kept = nms(dets, thr)
            expected = nms_keep(
                [((d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2), d.confidence) for d in dets], thr
            )
            assert [(d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2) for d in kept] == [c for c, _ in expected]

    @pytest.mark.parametrize("thr", [float("nan"), 0.0, -1.0, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, thr):
        box = PixelBBox(0, 0, 10, 10)
        with pytest.raises(ValueError, match="outside"):
            nms([Detection(box, 0.9), Detection(box, 0.8)], thr)

    @pytest.mark.parametrize("thr", [1.0, REPLAY_NMS_IOU])
    def test_threshold_one_suppresses_exact_duplicates_only(self, thr):
        dets = [
            Detection(PixelBBox(0, 0, 10, 10), 0.9),
            Detection(PixelBBox(0, 0, 10, 10), 0.8),
            Detection(PixelBBox(0, 0, 10, 9), 0.7),
        ]
        assert nms(dets, thr) == [dets[0], dets[2]]


def _corners(det):
    return det.bbox.x1, det.bbox.y1, det.bbox.x2, det.bbox.y2


def _assert_nms_is_oracle(dets, thr):
    kept = nms(dets, thr)
    assert [(_corners(d), d.confidence) for d in kept] == nms_keep([(_corners(d), d.confidence) for d in dets], thr)
    return kept


@st.composite
def nms_cases(draw):
    """Up to 60 boxes on a 12x12 grid with sides of 1-6 px and three
    confidences, so identical boxes, tied confidences and suppression chains
    are common. Half the time the threshold is exactly the IoU of a pair of
    the boxes, so "below the threshold" is decided on an exact tie."""
    dets = draw(st.lists(
        st.builds(
            lambda x1, y1, w, h, conf: Detection(PixelBBox(x1, y1, x1 + w, y1 + h), conf),
            x1=st.integers(0, 11), y1=st.integers(0, 11), w=st.integers(1, 6), h=st.integers(1, 6),
            conf=st.sampled_from([0.3, 0.6, 0.9]),
        ),
        max_size=60,
    ))
    corners = [_corners(d) for d in dets]
    pair_ious = sorted({iou_corners(a, b) for i, a in enumerate(corners) for b in corners[i + 1 :]} - {0.0})
    if pair_ious and draw(st.booleans()):
        return dets, draw(st.sampled_from(pair_ious))
    return dets, draw(st.floats(0.01, 1.0))


@settings(max_examples=200, deadline=None)
@given(nms_cases())
# Three identical boxes of equal confidence; a pair at IoU exactly 0.5,
# which the threshold 0.5 suppresses; one box; no boxes.
@example(([Detection(PixelBBox(0, 0, 2, 2), 0.6)] * 3, 0.45))
@example(([Detection(PixelBBox(0, 0, 2, 1), 0.9), Detection(PixelBBox(0, 0, 1, 1), 0.9)], 0.5))
@example(([Detection(PixelBBox(3, 3, 4, 4), 0.3)], 0.45))
@example(([], 0.45))
def test_nms_is_greedy_oracle(case):
    dets, thr = case
    kept = _assert_nms_is_oracle(dets, thr)
    event("some suppressed" if len(kept) < len(dets) else "none suppressed")


# Blob settings that find the faces of synthetic scenes at the default radiometry.
SCENE_BLOB_CFG = DetectorConfig(intensity_threshold=32, min_blob_area=40, confidence_threshold=0.1)


def _crowd():
    """The blob detections and truth boxes of one 400-face 1024x768 dense frame."""
    seq = synthscene.SequenceSpec(
        width=1024, height=768, frames=1, layout="dense", dense_min=400, dense_max=400, seed=3
    )
    frame, labels, _ = next(synthscene.generate_sequence(seq))
    return blob_detect(frame, SCENE_BLOB_CFG), [denormalize(label.bbox, frame.width, frame.height) for label in labels]


def test_nms_on_a_400_face_crowd_is_greedy_oracle():
    dets, _ = _crowd()
    assert len(dets) == 400
    assert len(_assert_nms_is_oracle(dets, 0.45)) == 400  # separable faces: nothing overlaps
    # A box grown by 2 px beside every second face, at the face's confidence:
    # the stable sort keeps the face first, and the grown box conflicts with it.
    grown = [
        Detection(PixelBBox(d.bbox.x1, d.bbox.y1, d.bbox.x2 + 2, d.bbox.y2 + 2), d.confidence) for d in dets[::2]
    ]
    assert len(_assert_nms_is_oracle(dets + grown, 0.45)) == 400


def test_greedy_loops_run_without_scalar_iou(monkeypatch):
    def no_scalar_iou(a, b):
        raise AssertionError("scalar iou called")

    monkeypatch.setattr(deteval, "iou", no_scalar_iou)
    monkeypatch.setattr(detectors, "iou", no_scalar_iou)
    dets, gts = _crowd()
    kept = nms(dets, 0.45)
    assert len(kept) == 400
    seq = synthscene.SequenceSpec(frames=50, layout="dense", seed=13)
    blob = BlobDetector(SCENE_BLOB_CFG)
    frames = list(synthscene.generate_sequence(seq))
    report = map_over_thresholds(
        [blob.detect(frame) for frame, _, _ in frames],
        [[denormalize(l.bbox, frame.width, frame.height) for l in labels] for frame, labels, _ in frames],
    )
    assert report.num_images == 50 and report.num_detections > 0
    assert map_over_thresholds([kept], [gts]).num_gt == 400


class TestBlobDetect:
    CFG = DetectorConfig(intensity_threshold=128, min_blob_area=50)

    def test_quiet_frame_yields_nothing(self):
        assert blob_detect(gray_frame(40, 30, value=100), self.CFG) == []

    def test_single_square(self):
        frame = _frame_with_square(60, 40, 10, 5, 20, 255)
        dets = blob_detect(frame, self.CFG)
        assert len(dets) == 1
        assert dets[0].bbox == PixelBBox(10, 5, 30, 25)
        assert dets[0].confidence == 1.0

    def test_two_separated_squares_match_bfs_oracle(self, rng):
        frame = _frame_with_square(80, 60, 5, 5, 12, 220)
        frame.pixels[40:52, 50:62] = 240
        dets = blob_detect(frame, self.CFG)
        components = [
            c for c in bfs_components(frame.pixels >= 128) if c["area"] >= 50
        ]
        assert len(dets) == len(components) == 2
        got = sorted((d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2) for d in dets)
        expected = sorted((c["x1"], c["y1"], c["x2"], c["y2"]) for c in components)
        assert got == expected

    def test_random_masks_match_bfs_oracle(self, rng):
        cfg = DetectorConfig(intensity_threshold=128, min_blob_area=1, max_aspect_ratio=100.0)
        for _ in range(25):
            pixels = (rng.random((20, 26)) < 0.35).astype(np.uint8) * 200
            frame = ThermalFrame(pixels)
            dets = blob_detect(frame, cfg)
            components = bfs_components(pixels >= 128)
            got = sorted((d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2) for d in dets)
            expected = sorted((c["x1"], c["y1"], c["x2"], c["y2"]) for c in components)
            assert got == expected

    def test_confidence_is_mean_intensity(self):
        frame = _frame_with_square(40, 40, 10, 10, 10, 200)
        frame.pixels[10:15, 10:20] = 240  # top half brighter
        dets = blob_detect(frame, self.CFG)
        assert dets[0].confidence == pytest.approx(((200 + 240) / 2) / 255.0, abs=1e-9)

    def test_small_blob_dropped(self):
        frame = _frame_with_square(40, 40, 10, 10, 5, 255)  # 25 px < 50
        assert blob_detect(frame, self.CFG) == []

    def test_elongated_blob_dropped(self):
        cfg = DetectorConfig(intensity_threshold=128, min_blob_area=10, max_aspect_ratio=2.5)
        pixels = np.zeros((40, 80), dtype=np.uint8)
        pixels[10:14, 10:50] = 255  # 4x40: aspect 10
        assert blob_detect(ThermalFrame(pixels), cfg) == []

    def test_three_channel_input_rejected(self):
        pixels = np.zeros((10, 10, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            blob_detect(ThermalFrame(pixels), self.CFG)

    def test_translation_equivariance(self):
        cfg = DetectorConfig(intensity_threshold=100, min_blob_area=20)
        base = blob_detect(_frame_with_square(80, 60, 20, 15, 10, 230), cfg)
        for dx, dy in ((3, 0), (0, 4), (7, 9), (-5, -2)):
            moved = blob_detect(_frame_with_square(80, 60, 20 + dx, 15 + dy, 10, 230), cfg)
            assert moved[0].bbox == PixelBBox(
                base[0].bbox.x1 + dx, base[0].bbox.y1 + dy, base[0].bbox.x2 + dx, base[0].bbox.y2 + dy
            )


# Every component is a detection: no area or aspect filter.
ALL_BLOBS = DetectorConfig(intensity_threshold=128, min_blob_area=0, max_aspect_ratio=1e9)


def assert_blobs_match(pixels, components):
    """blob_detect under ALL_BLOBS gives the oracle's components in its order,
    with its boxes, areas and exact mean-intensity confidences."""
    frame = ThermalFrame(pixels)
    expected = [
        (
            PixelBBox(c["x1"], c["y1"], c["x2"], c["y2"]),
            sum(int(pixels[y, x]) for y, x in c["member"]) / c["area"] / 255.0,
        )
        for c in components
    ]
    assert [(d.bbox, d.confidence) for d in blob_detect(frame, ALL_BLOBS)] == expected
    # Areas are not on a Detection: min_blob_area = a keeps those of area >= a.
    for area in sorted({c["area"] for c in components}):
        cfg = DetectorConfig(intensity_threshold=128, min_blob_area=area, max_aspect_ratio=1e9)
        kept = [box for (box, _), c in zip(expected, components) if c["area"] >= area]
        assert [d.bbox for d in blob_detect(frame, cfg)] == kept


def _hot(mask):
    """A frame whose foreground under ALL_BLOBS is ``mask``, with varied
    intensities on both sides of the threshold."""
    ys, xs = np.indices(mask.shape)
    return np.where(mask, 128 + (ys * 7 + xs * 13) % 128, (ys * 5 + xs * 3) % 128).astype(np.uint8)


def _serpentine(height, width):
    """Full rows every 4th row, joined by a 3-pixel post at alternating ends."""
    mask = np.zeros((height, width), dtype=bool)
    mask[0::4] = True
    for i, row in enumerate(range(1, height - 3, 4)):
        mask[row : row + 3, width - 1 if i % 2 == 0 else 0] = True
    return mask


def _comb(height, width):
    """Teeth in every other column, joined only by the bottom row."""
    mask = np.zeros((height, width), dtype=bool)
    mask[:, 0::2] = True
    mask[-1] = True
    return mask


def _nested_us(size):
    """Concentric U shapes 2 pixels apart: each pair of arms meets only at
    its own bottom row, after every inner U's runs have been seen."""
    mask = np.zeros((size, size), dtype=bool)
    for k in range(0, size // 2, 2):
        mask[: size - k, k] = True
        mask[: size - k, size - 1 - k] = True
        mask[size - 1 - k, k : size - k] = True
    return mask


def _diagonal_chains(size):
    """A diagonal, an anti-diagonal zigzag, and two single pixels touching
    only at a corner: components joined through corners alone."""
    mask = np.zeros((size, size), dtype=bool)
    idx = np.arange(size // 2)
    mask[idx, idx] = True
    zig = np.arange(size)
    mask[size - 1 - np.abs((zig % 8) - 4), zig] = True
    mask[size // 2, size // 2 + 3] = mask[size // 2 + 1, size // 2 + 4] = True
    return mask


class TestBlobLabelling:
    """The run-based labeller against the breadth-first oracle, on shapes
    whose runs join only late, only diagonally, or across the frame."""

    @pytest.mark.parametrize(
        "mask, n_components",
        [
            (_serpentine(120, 160), 1),
            (_serpentine(160, 120).T, 1),
            (_comb(120, 160), 1),
            (_comb(160, 120).T, 1),
            (_nested_us(40), 10),
            (_nested_us(40)[::-1], 10),
            (np.eye(30, dtype=bool), 1),
            (np.eye(30, dtype=bool)[::-1], 1),
            (np.indices((31, 40)).sum(axis=0) % 2 == 0, 1),
            (_diagonal_chains(24), None),
        ],
        ids=[
            "serpentine", "serpentine-columns", "comb", "comb-sideways", "nested-u",
            "nested-n", "diagonal", "anti-diagonal", "checkerboard", "diagonal-chains",
        ],
    )
    def test_shape_matches_bfs_oracle(self, mask, n_components):
        mask = np.ascontiguousarray(mask)
        components = bfs_components(mask)
        if n_components is not None:
            assert len(components) == n_components
        assert_blobs_match(_hot(mask), components)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1), (23, 31)])
    @pytest.mark.parametrize("fill", [False, True])
    def test_uniform_frame(self, shape, fill):
        mask = np.full(shape, fill)
        assert_blobs_match(_hot(mask), bfs_components(mask))

    def test_matches_scipy_label(self, rng):
        masks = [rng.random((int(h), int(w))) < p for h, w, p in zip(
            rng.integers(1, 48, 60), rng.integers(1, 48, 60), rng.random(60)
        )]
        masks += [_serpentine(120, 160), _comb(120, 160), _nested_us(40), _diagonal_chains(24)]
        for mask in masks:
            assert_blobs_match(_hot(mask), scipy_components(mask))


class TestDetectorContract:
    def test_blob_detector_empty_frame(self):
        assert BlobDetector().detect(gray_frame(32, 24)) == []

    def test_output_sorted_and_nms_clean(self, rng):
        cfg = DetectorConfig(intensity_threshold=100, min_blob_area=4, confidence_threshold=0.0)
        detector = BlobDetector(cfg)
        pixels = np.zeros((60, 80), dtype=np.uint8)
        pixels[5:15, 5:15] = 250
        pixels[5:15, 30:40] = 180
        pixels[30:42, 10:22] = 140
        dets = detector.detect(ThermalFrame(pixels))
        confs = [d.confidence for d in dets]
        assert confs == sorted(confs, reverse=True)
        for i, a in enumerate(dets):
            for b in dets[i + 1 :]:
                assert iou(a.bbox, b.bbox) < cfg.nms_iou_threshold

    def test_confidence_threshold_applied(self):
        pixels = np.zeros((40, 40), dtype=np.uint8)
        pixels[5:15, 5:15] = 120  # mean 120/255 = 0.47
        cfg = DetectorConfig(intensity_threshold=100, min_blob_area=4, confidence_threshold=0.5)
        assert BlobDetector(cfg).detect(ThermalFrame(pixels)) == []
        cfg_low = DetectorConfig(intensity_threshold=100, min_blob_area=4, confidence_threshold=0.25)
        assert len(BlobDetector(cfg_low).detect(ThermalFrame(pixels))) == 1


def test_blob_finds_synthetic_face_centroid():
    from thermotrack.synthscene import FaceSpec, SceneSpec, generate

    spec = SceneSpec(
        background_level=20, noise_amplitude=4,
        faces=[FaceSpec(80, 60, 10, 11, 36.6)], beta0=20.0, beta1=0.1, seed=6,
    )
    frame, _, _ = generate(spec)
    cfg = DetectorConfig(intensity_threshold=32, min_blob_area=40, confidence_threshold=0.1)
    dets = BlobDetector(cfg).detect(frame)
    assert len(dets) == 1
    box = dets[0].bbox
    assert box.x1 <= 80 < box.x2 and box.y1 <= 60 < box.y2


def test_replay_matches_itself_at_any_threshold():
    from thermotrack.deteval import match_greedy

    labels = [GroundTruthLabel(NormBBox(0, 0.3, 0.3, 0.2, 0.2)),
              GroundTruthLabel(NormBBox(0, 0.7, 0.7, 0.2, 0.2))]
    frame = gray_frame(160, 120, source_id="s")
    detector = ReplayDetector({"s": labels})
    dets = detector.detect(frame)
    gts = [d.bbox for d in dets]
    for threshold in (0.5, 0.95, 1.0):
        result = match_greedy(dets, gts, threshold)
        assert result.tp_flags == [True, True]


class TestReplayDetector:
    def test_replays_labels_with_full_confidence(self):
        frame = gray_frame(160, 120, source_id="shot")
        labels = [
            GroundTruthLabel(NormBBox(0, 0.25, 0.25, 0.2, 0.2)),
            GroundTruthLabel(NormBBox(0, 0.7, 0.6, 0.2, 0.2)),
        ]
        detector = ReplayDetector({"shot": labels})
        dets = detector.detect(frame)
        assert len(dets) == 2
        assert all(d.confidence == 1.0 for d in dets)

    def test_unknown_source_is_empty(self):
        detector = ReplayDetector({})
        assert detector.detect(gray_frame(20, 20, source_id="other")) == []

    def test_overlapping_labels_survive_replay(self):
        # Fidelity matters more than suppression for a replay source.
        labels = [
            GroundTruthLabel(NormBBox(0, 0.5, 0.5, 0.5, 0.5)),
            GroundTruthLabel(NormBBox(0, 0.55, 0.55, 0.5, 0.5)),  # heavy overlap
        ]
        detector = ReplayDetector({"f": labels})
        assert len(detector.detect(gray_frame(100, 100, source_id="f"))) == 2


@pytest.fixture
def launched(monkeypatch, tmp_path):
    """Every process an ExternalAdapter starts, with tempfile pointed at
    tmp_path so its scratch directory can be looked for."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    processes = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            processes.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return processes


def _assert_cleaned_up(launched, tmp_path, processes):
    """A failed start left no scratch directory and no live process."""
    assert not list(tmp_path.glob("thermotrack-adapter-*"))
    assert len(launched) == processes
    assert all(proc.poll() is not None for proc in launched)


class TestExternalAdapter:
    def test_empty_response(self):
        with ExternalAdapter(stub_command("empty")) as adapter:
            detector = ExternalDetector(adapter)
            assert detector.detect(gray_frame(64, 48)) == []

    def test_canned_detection_denormalized(self, tmp_path):
        canned = tmp_path / "dets.txt"
        canned.write_text("0 0.90 0.5 0.5 0.25 0.25\n")
        with ExternalAdapter(stub_command("canned", str(canned))) as adapter:
            detector = ExternalDetector(adapter)
            dets = detector.detect(gray_frame(640, 640))
        assert dets == [Detection(PixelBBox(240, 240, 400, 400), 0.9)]

    def test_garbage_response_is_protocol_violation(self):
        with ExternalAdapter(stub_command("garbage")) as adapter:
            with pytest.raises(AdapterProtocolError):
                ExternalDetector(adapter).detect(gray_frame(32, 32))

    def test_non_utf8_response_fails_at_once(self):
        # The bad byte must fail the header check at once, not leave every
        # request to wait out the timeout.
        with ExternalAdapter(stub_command("non-utf8"), response_timeout_s=10.0) as adapter:
            for _ in range(2):
                start = time.perf_counter()
                with pytest.raises(AdapterProtocolError, match="bad response header"):
                    ExternalDetector(adapter).detect(gray_frame(32, 32))
                assert time.perf_counter() - start < 2.0

    def test_err_response_is_reported(self):
        with ExternalAdapter(stub_command("err")) as adapter:
            with pytest.raises(AdapterError, match="exploded"):
                ExternalDetector(adapter).detect(gray_frame(32, 32))

    def test_timeout(self):
        with ExternalAdapter(stub_command("slow", "5"), response_timeout_s=0.3) as adapter:
            with pytest.raises(AdapterTimeoutError):
                ExternalDetector(adapter).detect(gray_frame(32, 32))

    def test_timed_out_adapter_answers_no_later_request(self):
        # The first reply comes 0.5 s late; it must not answer request 2.
        with ExternalAdapter(stub_command("slow-once", "1.0"), response_timeout_s=0.5) as adapter:
            with pytest.raises(AdapterTimeoutError):
                adapter.request(gray_frame(32, 32))
            for _ in range(2):
                with pytest.raises(AdapterExitedError):
                    adapter.request(gray_frame(32, 32))

    @pytest.mark.parametrize(
        "mode, error",
        [("partial", AdapterTimeoutError), ("die-mid", AdapterExitedError), ("crlf", None)],
    )
    def test_reply_framing(self, mode, error):
        timeout = 0.5
        with ExternalAdapter(stub_command(mode), response_timeout_s=timeout) as adapter:
            start = time.perf_counter()
            if error is None:
                assert adapter.request(gray_frame(32, 32)) == [STUB_DET]
            else:
                with pytest.raises(error):
                    adapter.request(gray_frame(32, 32))
            assert time.perf_counter() - start < timeout + 1.0

    def test_oversized_count_times_out_and_stops_adapter(self):
        timeout = 0.5
        with ExternalAdapter(stub_command("oversized"), response_timeout_s=timeout) as adapter:
            start = time.perf_counter()
            with pytest.raises(AdapterTimeoutError):
                adapter.request(gray_frame(32, 32))
            assert time.perf_counter() - start < timeout + 1.0
            with pytest.raises(AdapterExitedError):
                adapter.request(gray_frame(32, 32))

    def test_trickled_reply_times_out_and_stops_adapter(self):
        # Every line comes well within the timeout; the whole reply never does.
        timeout = 0.5
        with ExternalAdapter(stub_command("trickle"), response_timeout_s=timeout) as adapter:
            start = time.perf_counter()
            with pytest.raises(AdapterTimeoutError):
                adapter.request(gray_frame(32, 32))
            assert time.perf_counter() - start < timeout + 1.0
            with pytest.raises(AdapterExitedError):
                adapter.request(gray_frame(32, 32))

    def test_bad_line_does_not_leak_into_next_reply(self, tmp_path):
        # Reply 1 holds a bad confidence, then a good line; reply 2 must
        # still be read as its own, not from reply 1's unread rest.
        canned = tmp_path / "dets.txt"
        canned.write_text("0 1.5 0.5 0.5 0.25 0.25\n0 0.90 0.5 0.5 0.25 0.25\n")
        with ExternalAdapter(stub_command("canned", str(canned))) as adapter:
            with pytest.raises(AdapterProtocolError, match="confidence"):
                adapter.request(gray_frame(32, 32))
            canned.write_text("0 0.40 0.25 0.25 0.125 0.125\n")
            assert adapter.request(gray_frame(32, 32)) == [(0, 0.4, NormBBox(0, 0.25, 0.25, 0.125, 0.125))]

    def test_lifecycles_leak_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        fd_dir = Path("/proc/self/fd")

        def descriptors():
            return len(list(fd_dir.iterdir())) if fd_dir.is_dir() else None

        threads, fds = threading.active_count(), descriptors()
        modes = [(("empty",), None), (("die",), AdapterExitedError), (("slow", "5"), AdapterTimeoutError)]
        for mode, error in modes * 10:
            # The timeout bounds the handshake too; interpreter start-up can take 0.15 s.
            with ExternalAdapter(stub_command(*mode), response_timeout_s=0.5) as adapter:
                if error is None:
                    assert adapter.request(gray_frame(32, 24)) == []
                else:
                    with pytest.raises(error):
                        adapter.request(gray_frame(32, 24))
                assert threading.active_count() == threads
        assert threading.active_count() == threads
        assert descriptors() == fds
        assert not list(tmp_path.glob("thermotrack-adapter-*"))

    def test_adapter_exit_detected(self):
        with ExternalAdapter(stub_command("die")) as adapter:
            with pytest.raises(AdapterExitedError):
                ExternalDetector(adapter).detect(gray_frame(32, 32))

    def test_close_after_exit_closes_both_pipes(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            adapter = ExternalAdapter(stub_command("die"))
            with pytest.raises(AdapterExitedError):
                ExternalDetector(adapter).detect(gray_frame(32, 32))
            adapter.close()
            assert adapter._proc.stdin.closed and adapter._proc.stdout.closed
            del adapter
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_bad_handshake_rejected(self, launched, tmp_path):
        with pytest.raises(AdapterProtocolError):
            ExternalAdapter(stub_command("bad-handshake"), response_timeout_s=1.0)
        _assert_cleaned_up(launched, tmp_path, processes=1)

    def test_handshake_timeout(self, launched, tmp_path):
        with pytest.raises(AdapterTimeoutError):
            ExternalAdapter(stub_command("silent"), response_timeout_s=0.3)
        _assert_cleaned_up(launched, tmp_path, processes=1)

    @pytest.mark.parametrize("timeout", [0.0, float("nan"), float("inf")], ids=["zero", "nan", "inf"])
    def test_bad_timeout_rejected_before_launch(self, tmp_path, monkeypatch, timeout):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(ValueError, match="response_timeout_s"):
            ExternalAdapter(stub_command(), response_timeout_s=timeout)
        assert not list(tmp_path.glob("thermotrack-adapter-*"))

    def test_missing_command_fails_cleanly(self, launched, tmp_path):
        with pytest.raises(AdapterExitedError):
            ExternalAdapter(["/nonexistent/detector-binary"])
        _assert_cleaned_up(launched, tmp_path, processes=0)

    def test_exit_during_launch_removes_scratch_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def interrupted_launch(*args, **kwargs):
            raise SystemExit(143)

        monkeypatch.setattr(subprocess, "Popen", interrupted_launch)
        with pytest.raises(SystemExit):
            ExternalAdapter(stub_command())
        assert not list(tmp_path.glob("thermotrack-adapter-*"))

    def test_answered_requests_leave_no_scratch_files(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with ExternalAdapter(stub_command("empty")) as adapter:
            detector = ExternalDetector(adapter)
            for _ in range(50):
                assert detector.detect(gray_frame(32, 24)) == []
            (scratch,) = tmp_path.glob("thermotrack-adapter-*")
            assert not list(scratch.iterdir())
        assert not list(tmp_path.glob("thermotrack-adapter-*"))

    @pytest.mark.parametrize(
        "mode, error",
        [
            (("err",), AdapterError),
            (("garbage",), AdapterProtocolError),
            (("slow", "5"), AdapterTimeoutError),
        ],
        ids=["err", "protocol", "timeout"],
    )
    def test_failed_request_leaves_no_scratch_file(self, monkeypatch, tmp_path, mode, error):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with ExternalAdapter(stub_command(*mode), response_timeout_s=0.3) as adapter:
            with pytest.raises(error):
                adapter.request(gray_frame(32, 24))
            (scratch,) = tmp_path.glob("thermotrack-adapter-*")
            assert not list(scratch.iterdir())

    def test_external_detections_thresholded_and_sorted(self, tmp_path):
        canned = tmp_path / "dets.txt"
        canned.write_text(
            "0 0.30 0.25 0.25 0.2 0.2\n"
            "0 0.90 0.75 0.75 0.2 0.2\n"
            "0 0.10 0.5 0.5 0.2 0.2\n"  # below the 0.25 default threshold
        )
        with ExternalAdapter(stub_command("canned", str(canned))) as adapter:
            detector = ExternalDetector(adapter)
            dets = detector.detect(gray_frame(200, 200))
        assert [d.confidence for d in dets] == [0.9, 0.3]
