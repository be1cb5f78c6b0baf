import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from _oracles import ap_enumeration, ap_rows_full_rank, full_width_report, greedy_match_flags, iou_corners
from conftest import peak_traced_bytes
from thermotrack.annotations import PixelBBox
from thermotrack import deteval, synthscene
from thermotrack.annotations import denormalize
from thermotrack.detectors import BlobDetector, Detection, DetectorConfig
from thermotrack.deteval import (
    DEFAULT_IOU_THRESHOLDS,
    MatchResult,
    average_precision,
    iou,
    map_over_thresholds,
    match_greedy,
)

pixel_boxes = st.builds(
    lambda x1, y1, w, h: PixelBBox(x1, y1, x1 + w, y1 + h),
    x1=st.integers(0, 50),
    y1=st.integers(0, 50),
    w=st.integers(1, 40),
    h=st.integers(1, 40),
)


def _random_boxes(rng, count, span=60, max_side=25):
    boxes = []
    for _ in range(count):
        x1 = int(rng.integers(0, span))
        y1 = int(rng.integers(0, span))
        boxes.append(
            PixelBBox(x1, y1, x1 + int(rng.integers(1, max_side)), y1 + int(rng.integers(1, max_side)))
        )
    return boxes


def _ranked_detections(rng, boxes):
    # Distinct confidences so ordering is unambiguous for the oracle comparison.
    confs = sorted(rng.choice(np.arange(1, 1000), size=len(boxes), replace=False) / 1000.0, reverse=True)
    return [Detection(box, float(conf)) for box, conf in zip(boxes, confs)]


class TestIoU:
    def test_identical_boxes(self):
        box = PixelBBox(3, 4, 10, 12)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(PixelBBox(0, 0, 5, 5), PixelBBox(10, 10, 12, 12)) == 0.0

    def test_half_overlap_thirds(self):
        value = iou(PixelBBox(0, 0, 10, 10), PixelBBox(5, 0, 15, 10))
        assert value == pytest.approx(50 / 150, abs=1e-12)

    @given(pixel_boxes, pixel_boxes)
    def test_symmetric_and_bounded(self, a, b):
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0

    def test_edge_touching_boxes_do_not_overlap(self):
        assert iou(PixelBBox(0, 0, 5, 5), PixelBBox(5, 0, 10, 5)) == 0.0


class TestMatchGreedy:
    def test_single_match_above_threshold(self):
        dets = [Detection(PixelBBox(0, 0, 10, 10), 0.9)]
        gts = [PixelBBox(0, 0, 10, 8)]  # IoU 0.8
        assert match_greedy(dets, gts, 0.5).tp_flags == [True]

    def test_single_claim_rule(self):
        gt = [PixelBBox(0, 0, 10, 10)]
        dets = [
            Detection(PixelBBox(0, 0, 10, 9), 0.9),  # IoU 0.9
            Detection(PixelBBox(0, 0, 10, 8), 0.8),  # IoU 0.8, GT already claimed
        ]
        assert match_greedy(dets, gt, 0.5).tp_flags == [True, False]

    def test_unsorted_input_rejected(self):
        dets = [Detection(PixelBBox(0, 0, 5, 5), 0.5), Detection(PixelBBox(0, 0, 5, 5), 0.9)]
        with pytest.raises(ValueError, match="sorted"):
            match_greedy(dets, [PixelBBox(0, 0, 5, 5)], 0.5)

    @pytest.mark.parametrize("thr", [float("nan"), 0.0, -0.25, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, thr):
        # NaN would mark every detection a miss and 0.0 would let any overlap claim.
        dets = [Detection(PixelBBox(0, 0, 5, 5), 0.9)]
        with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
            match_greedy(dets, [PixelBBox(0, 0, 5, 5)], thr)
        with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
            map_over_thresholds([dets], [[PixelBBox(0, 0, 5, 5)]], [thr])

    def test_threshold_one_needs_an_exact_box(self):
        dets = [Detection(PixelBBox(0, 0, 5, 5), 0.9), Detection(PixelBBox(0, 0, 5, 4), 0.8)]
        gts = [PixelBBox(0, 0, 5, 4), PixelBBox(0, 0, 5, 5)]
        assert match_greedy(dets, gts, 1.0).tp_flags == [True, True]
        assert match_greedy(dets[1:], gts[1:], 1.0).tp_flags == [False]

    def test_matches_reference_on_random_instances(self, rng):
        for _ in range(100):
            dets = _ranked_detections(rng, _random_boxes(rng, 10))
            gts = _random_boxes(rng, 5)
            got = match_greedy(dets, gts, 0.5).tp_flags
            expected = greedy_match_flags(
                [(d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2) for d in dets],
                [(g.x1, g.y1, g.x2, g.y2) for g in gts],
                0.5,
            )
            assert got == expected


class TestAveragePrecision:
    def test_single_true_positive(self):
        assert average_precision(MatchResult([True], 1), [0.9]) == 1.0

    def test_tp_then_fp_holds_full_precision(self):
        assert average_precision(MatchResult([True, False], 1), [0.9, 0.8]) == 1.0

    def test_fp_then_tp_is_half(self):
        assert average_precision(MatchResult([False, True], 1), [0.9, 0.8]) == 0.5

    def test_no_gt_with_detections_is_zero(self):
        assert average_precision(MatchResult([False], 0), [0.9]) == 0.0

    def test_no_gt_no_detections_is_neutral_one(self):
        assert average_precision(MatchResult([], 0), []) == 1.0

    def test_more_true_positives_than_truths_rejected(self):
        with pytest.raises(ValueError, match="more true positives"):
            deteval._ap_rows(np.array([[True, False], [True, True]]), 1)

    def test_matches_enumeration_oracle_on_random_flag_patterns(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 12))
            num_gt = int(rng.integers(1, 7))
            flags = []
            tp_left = num_gt
            for _ in range(n):
                is_tp = bool(rng.random() < 0.5) and tp_left > 0
                flags.append(is_tp)
                tp_left -= is_tp
            confs = sorted((rng.random(n) * 0.98 + 0.01).tolist(), reverse=True)
            got = average_precision(MatchResult(flags, num_gt), confs)
            assert got == pytest.approx(ap_enumeration(flags, num_gt), abs=1e-12)

    def test_invariant_under_monotone_confidence_transform(self, rng):
        flags = [True, False, True, False, False, True]
        confs = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        squashed = [c**3 / 2 for c in confs]  # strictly monotone, order preserved
        base = average_precision(MatchResult(flags, 4), confs)
        assert average_precision(MatchResult(flags, 4), squashed) == base

    def test_trailing_zero_iou_fp_never_increases_ap(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            num_gt = int(rng.integers(1, 5))
            flags = [bool(rng.random() < 0.5) for _ in range(n)]
            flags = [f and i < num_gt for i, f in enumerate(flags)]
            confs = sorted((rng.random(n)).tolist(), reverse=True)
            base = average_precision(MatchResult(flags, num_gt), confs)
            worse = average_precision(
                MatchResult(flags + [False], num_gt), confs + [confs[-1] / 2]
            )
            assert worse <= base + 1e-12


@st.composite
def ap_blocks(draw):
    """A (rows, ranks) block of ranked hit flags and a truth count of at
    least every row's hits."""
    ranks = draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=ranks, max_size=ranks), min_size=1, max_size=4))
    flags = np.array(rows, dtype=bool).reshape(len(rows), ranks)
    return flags, int(flags.sum(axis=1).max()) + draw(st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(ap_blocks())
@example((np.zeros((2, 5), dtype=bool), 3))
@example((np.zeros((3, 0), dtype=bool), 0))
@example((np.zeros((3, 0), dtype=bool), 2))
@example((np.array([[True, False, True, True], [False, False, False, False], [False, True, True, True]]), 3))
def test_ap_rows_is_full_rank_sum(block):
    # The hit-only sum equals the sum over every rank to the last bit: all-miss
    # rows, zero-rank blocks and rows with as many hits as truths included.
    flags, num_gt = block
    hits = flags.sum(axis=1)
    event(f"zero ranks: {flags.shape[1] == 0}")
    event(f"all-miss row: {bool(np.any(hits == 0))}")
    event(f"a row hits every truth: {bool(np.any(hits == num_gt))}")
    got = [ap.hex() for ap in deteval._ap_rows(flags, num_gt)]
    assert got == [ap.hex() for ap in ap_rows_full_rank(flags, num_gt)]


class TestMapOverThresholds:
    def test_perfect_detector_scores_one_everywhere(self):
        gts = [[PixelBBox(2, 2, 12, 12)], [PixelBBox(5, 5, 9, 9), PixelBBox(20, 20, 30, 28)]]
        dets = [[Detection(b, 1.0) for b in image] for image in gts]
        report = map_over_thresholds(dets, gts)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.map_50 == 1.0
        assert report.map_50_95 == 1.0

    def test_empty_detections_score_zero(self):
        gts = [[PixelBBox(2, 2, 12, 12)]]
        report = map_over_thresholds([[]], gts)
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.map_50 == 0.0
        assert report.map_50_95 == 0.0

    def test_single_threshold_equals_pooled_ap(self, rng):
        dets_per_image = []
        gts_per_image = []
        for _ in range(6):
            gts = _random_boxes(rng, int(rng.integers(0, 5)))
            dets = _ranked_detections(rng, _random_boxes(rng, int(rng.integers(0, 7))))
            gts_per_image.append(gts)
            dets_per_image.append(dets)
        report = map_over_thresholds(dets_per_image, gts_per_image, thresholds=[0.5])
        flags = []
        confs = []
        for dets, gts in zip(dets_per_image, gts_per_image):
            flags.extend(match_greedy(dets, gts, 0.5).tp_flags)
            confs.extend(d.confidence for d in dets)
        order = np.argsort(-np.asarray(confs), kind="stable")
        pooled = MatchResult([flags[i] for i in order], sum(len(g) for g in gts_per_image))
        expected = average_precision(pooled, [confs[i] for i in order])
        assert report.map_50 == pytest.approx(expected, abs=1e-15)
        assert report.map_50_95 == pytest.approx(expected, abs=1e-15)

    SWEEP_TEXT = (
        "images=8\nground_truths=21\ndetections=31\nprecision=0.483871\nrecall=0.714286\n"
        "map50=0.613647\nmap5095=0.251158\nap_0.50=0.613647\nap_0.55=0.457784\n"
        "ap_0.60=0.457784\nap_0.65=0.269661\nap_0.70=0.153634\nap_0.75=0.153634\n"
        "ap_0.80=0.153634\nap_0.85=0.109106\nap_0.90=0.109106\nap_0.95=0.033584\n"
    )
    NO_HALF_TEXT = (
        "images=8\nground_truths=21\ndetections=31\nprecision=0.483871\nrecall=0.714286\n"
        "map50=nan\nmap5095=0.427341\nap_0.30=0.670604\nap_0.55=0.457784\nap_0.75=0.153634\n"
    )

    @staticmethod
    def _shifted_detections():
        # Truth boxes shifted by 0-3 px plus strays: IoUs spread across the
        # sweep, so precision/recall at 0.5 differ from any other threshold's.
        rng = np.random.default_rng(31)
        gts = [_random_boxes(rng, int(rng.integers(1, 6))) for _ in range(8)]
        dets = []
        for image in gts:
            dx = rng.integers(0, 4, len(image))
            dy = rng.integers(0, 4, len(image))
            shifted = [
                PixelBBox(b.x1 + int(x), b.y1 + int(y), b.x2 + int(x), b.y2 + int(y))
                for b, x, y in zip(image, dx, dy)
            ]
            strays = _random_boxes(rng, int(rng.integers(0, 3)))
            dets.append(_ranked_detections(rng, shifted + strays))
        return dets, gts

    @pytest.mark.parametrize(
        "thresholds, expected",
        [(DEFAULT_IOU_THRESHOLDS, SWEEP_TEXT), ((0.3, 0.55, 0.75), NO_HALF_TEXT)],
        ids=["sweep-with-0.5", "sweep-without-0.5"],
    )
    def test_report_text_pinned(self, thresholds, expected):
        dets, gts = self._shifted_detections()
        assert map_over_thresholds(dets, gts, thresholds).to_text() == expected

    def test_array_sweep_is_the_tuple_sweep(self):
        dets, gts = self._shifted_detections()
        for thresholds in (DEFAULT_IOU_THRESHOLDS, (0.5, 0.75), (0.75,)):
            # repr: every field, a NaN map_50 and the float keys included.
            swept = map_over_thresholds(dets, gts, np.array(thresholds))
            assert repr(swept) == repr(map_over_thresholds(dets, gts, thresholds))
        with pytest.raises(ValueError, match="at least one IoU threshold"):
            map_over_thresholds(dets, gts, np.array([]))

    def test_one_claim_pass_scores_every_threshold(self, monkeypatch):
        # One batched claim pass per evaluation, with no scalar IoU or
        # per-image matching under it; its flags are match_greedy's.
        dets, gts = self._shifted_detections()
        scalar_match, batched = deteval.match_greedy, deteval._match_flags
        scalar_calls = []
        passes = []
        monkeypatch.setattr(deteval, "iou", lambda *args: scalar_calls.append("iou"))
        monkeypatch.setattr(deteval, "match_greedy", lambda *args: scalar_calls.append("match_greedy"))

        def spy(*args):
            result = batched(*args)
            passes.append((args[2], result))
            return result

        monkeypatch.setattr(deteval, "_match_flags", spy)

        for thresholds, swept in [
            (DEFAULT_IOU_THRESHOLDS, list(DEFAULT_IOU_THRESHOLDS)),
            ((0.3, 0.75), [0.3, 0.75, 0.5]),
        ]:
            passes.clear()
            map_over_thresholds(dets, gts, thresholds)
            assert scalar_calls == []
            assert [thr for thr, _ in passes] == [swept]
            flags, _ = passes[0][1]
            for t, thr in enumerate(swept):
                per_image = [scalar_match(d, g, thr).tp_flags for d, g in zip(dets, gts)]
                assert flags[t].tolist() == [flag for image in per_image for flag in image]

    @pytest.mark.parametrize("unsorted_image", [0, 3, 7])
    def test_unsorted_image_rejected(self, unsorted_image):
        dets, gts = self._shifted_detections()
        dets[unsorted_image] = [Detection(PixelBBox(0, 0, 5, 5), 0.5), Detection(PixelBBox(0, 0, 5, 5), 0.9)]
        with pytest.raises(ValueError, match="sorted"):
            map_over_thresholds(dets, gts)

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            map_over_thresholds([[]], [[]], thresholds=[0.0])
        with pytest.raises(ValueError):
            map_over_thresholds([[]], [[]], thresholds=[1.2])

    def test_standard_sweep_is_ten_thresholds(self):
        assert DEFAULT_IOU_THRESHOLDS[0] == 0.5
        assert DEFAULT_IOU_THRESHOLDS[-1] == 0.95
        assert len(DEFAULT_IOU_THRESHOLDS) == 10

    def test_report_serialization_shapes(self):
        gts = [[PixelBBox(2, 2, 12, 12)]]
        dets = [[Detection(PixelBBox(2, 2, 12, 12), 0.9)]]
        report = map_over_thresholds(dets, gts)
        assert report.to_csv_row("demo") == "demo,1.000000,1.000000,1.000000,1.000000"
        text = report.to_text()
        assert "precision=1.000000" in text
        assert "ap_0.95=1.000000" in text


BLOB_CFG = DetectorConfig(intensity_threshold=32, min_blob_area=40, confidence_threshold=0.1)


def _blob_set(spec):
    """Blob detections and truth boxes of every frame of ``spec``."""
    blob = BlobDetector(BLOB_CFG)
    dets, gts = [], []
    for frame, labels, _ in synthscene.generate_sequence(spec):
        dets.append(blob.detect(frame))
        gts.append([denormalize(label.bbox, frame.width, frame.height) for label in labels])
    return dets, gts


def _dense_blob_set():
    """Blob detections and truths of 50 dense 160x120 frames (12-15 faces each)."""
    return _blob_set(synthscene.SequenceSpec(frames=50, layout="dense", seed=5))


def _exact_report(report):
    """Every float of a report as its ``repr``, so a pin holds to the last bit."""
    return {
        "precision": repr(report.precision),
        "recall": repr(report.recall),
        "map_50": repr(report.map_50),
        "map_50_95": repr(report.map_50_95),
        "ap_by_threshold": {repr(thr): repr(ap) for thr, ap in report.ap_by_threshold.items()},
    }


EVAL_REPORT_PINS = json.loads((Path(__file__).parent / "data" / "eval_report_pins.json").read_text())
PINNED_EVALUATIONS = {
    "shifted-sweep": (TestMapOverThresholds._shifted_detections, DEFAULT_IOU_THRESHOLDS),
    "shifted-without-0.5": (TestMapOverThresholds._shifted_detections, (0.3, 0.55, 0.75)),
    "dense-blob-50": (_dense_blob_set, DEFAULT_IOU_THRESHOLDS),
}


@pytest.mark.parametrize("name", sorted(PINNED_EVALUATIONS))
def test_report_floats_pinned_exactly(name):
    make_set, thresholds = PINNED_EVALUATIONS[name]
    dets, gts = make_set()
    assert _exact_report(map_over_thresholds(dets, gts, thresholds)) == EVAL_REPORT_PINS[name]


def test_one_crowded_image_costs_only_its_own_pairs():
    # 100 sparse 160x120 frames (3 faces) and one 150-face 640x480 frame. Padded
    # to the crowded frame, every sparse image would cost 150 x 150 pairs.
    sparse = _blob_set(synthscene.SequenceSpec(frames=100, layout="sparse", seed=1))
    crowd = _blob_set(
        synthscene.SequenceSpec(width=640, height=480, frames=1, layout="dense", dense_min=150, dense_max=150, seed=2)
    )
    assert len(crowd[0][0]) == len(crowd[1][0]) == 150
    mixed = (sparse[0] + crowd[0], sparse[1] + crowd[1])
    alone = max(peak_traced_bytes(map_over_thresholds, *part) for part in (sparse, crowd))
    assert peak_traced_bytes(map_over_thresholds, *mixed) <= 2 * alone


def test_iou_oracle_agreement(rng):
    for _ in range(200):
        a, b = _random_boxes(rng, 2)
        assert iou(a, b) == pytest.approx(
            iou_corners((a.x1, a.y1, a.x2, a.y2), (b.x1, b.y1, b.x2, b.y2)), abs=1e-12
        )


# A 6x6 grid with sides of 1-3 px: duplicate boxes, equal IoUs with two
# truths and IoUs of exactly 0.5 all come up often.
grid_boxes = st.builds(
    lambda x1, y1, w, h: PixelBBox(x1, y1, x1 + w, y1 + h),
    x1=st.integers(0, 5),
    y1=st.integers(0, 5),
    w=st.integers(1, 3),
    h=st.integers(1, 3),
)
grid_images = st.lists(
    st.tuples(
        st.lists(st.tuples(grid_boxes, st.sampled_from([0.25, 0.5, 0.75, 1.0])), max_size=6),
        st.lists(grid_boxes, max_size=4),
    ),
    max_size=5,
)


def _corners(box):
    return (box.x1, box.y1, box.x2, box.y2)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_images)
# IoU exactly 0.5, an IoU tie across two truths, a duplicate detection, an
# image with detections but no truths, and an empty image.
@example(
    [
        (
            [(PixelBBox(0, 0, 2, 1), 0.5), (PixelBBox(1, 0, 2, 1), 0.5), (PixelBBox(1, 0, 2, 1), 0.25)],
            [PixelBBox(0, 0, 1, 1), PixelBBox(1, 0, 2, 1)],
        ),
        ([(PixelBBox(3, 3, 5, 5), 1.0)], []),
        ([], []),
    ]
)
def test_sweep_matches_oracle(images):
    dets = [
        [Detection(box, conf) for box, conf in sorted(image_dets, key=lambda d: -d[1])]
        for image_dets, _ in images
    ]
    gts = [image_gts for _, image_gts in images]
    report = map_over_thresholds(dets, gts)

    confs = [d.confidence for image in dets for d in image]
    order = sorted(range(len(confs)), key=lambda k: -confs[k])  # stable
    num_gt = sum(len(image) for image in gts)
    for thr in DEFAULT_IOU_THRESHOLDS:
        flags = [
            flag
            for image_dets, image_gts in zip(dets, gts)
            for flag in greedy_match_flags(
                [_corners(d.bbox) for d in image_dets], [_corners(g) for g in image_gts], thr
            )
        ]
        pooled = [flags[k] for k in order]
        assert report.ap_by_threshold[thr] == pytest.approx(ap_enumeration(pooled, num_gt), abs=1e-9)
        if thr == 0.5:
            assert report.precision == (sum(flags) / len(flags) if flags else 0.0)
            assert report.recall == (sum(flags) / num_gt if num_gt else 0.0)


# A 4x4 grid with sides of 1-4 px and 2-7 truths an image: most detections
# overlap two or more truths, so the candidate walk keeps K >= 2 columns and
# claims contend for shared truths. The explicit examples add the empty cases.
crowded_images = st.lists(
    st.tuples(
        st.lists(
            st.tuples(
                st.builds(
                    lambda x1, y1, w, h: PixelBBox(x1, y1, x1 + w, y1 + h),
                    x1=st.integers(0, 3), y1=st.integers(0, 3), w=st.integers(1, 4), h=st.integers(1, 4),
                ),
                st.sampled_from([0.5, 0.75, 1.0]),
            ),
            min_size=1,
            max_size=8,
        ),
        st.lists(
            st.builds(
                lambda x1, y1, w, h: PixelBBox(x1, y1, x1 + w, y1 + h),
                x1=st.integers(0, 3), y1=st.integers(0, 3), w=st.integers(1, 4), h=st.integers(1, 4),
            ),
            min_size=2,
            max_size=7,
        ),
    ),
    min_size=1,
    max_size=4,
)


def _positive_truths(images):
    """The most truths of positive IoU that any one detection has (K, at least 1)."""
    counts = [
        sum(iou_corners(_corners(box), _corners(gt)) > 0 for gt in gts) for dets, gts in images for box, _ in dets
    ]
    return max(counts + [1])


def _walked_ranks(images, lowest):
    """How many ranks the claim walk visits: those that hold, in some image,
    a detection reaching (IoU >= ``lowest``, which is positive) a truth that
    another detection of that image also reaches."""
    walked = set()
    for dets, gts in images:
        ranked = [_corners(box) for box, _ in sorted(dets, key=lambda d: -d[1])]
        reach = [[iou_corners(d, _corners(gt)) >= lowest for gt in gts] for d in ranked]
        shared = [sum(row[j] for row in reach) >= 2 for j in range(len(gts))]
        walked |= {rank for rank, row in enumerate(reach) if any(r and s for r, s in zip(row, shared))}
    return len(walked)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(crowded_images)
# A truth shared at the lowest threshold only: the first detection reaches
# it at IoU 1/3, the second at 1. The (0.6, 0.5, 0.3) sweep walks both
# ranks: at 0.3 the first takes the truth and the second misses, at 0.5 and
# 0.6 the second hits. The default sweep walks none.
@example([([(PixelBBox(0, 0, 1, 1), 1.0), (PixelBBox(0, 0, 3, 1), 0.75)], [PixelBBox(0, 0, 3, 1)])])
# A shared and an unshared image at the same ranks: ranks 1 and 2 of the
# first image contend for one truth, and the walk also carries the second
# image's detections there. The first image's rank 0 is settled; the truth
# it takes lies at IoU 1/4 from the walked detections, so leaving its claim
# out of the walk changes nothing.
@example(
    [
        (
            [(PixelBBox(0, 0, 2, 1), 1.0), (PixelBBox(1, 0, 4, 1), 0.75), (PixelBBox(1, 0, 4, 1), 0.5)],
            [PixelBBox(0, 0, 2, 1), PixelBBox(1, 0, 4, 1)],
        ),
        (
            [(PixelBBox(0, 0, 2, 2), 1.0), (PixelBBox(3, 3, 5, 5), 0.75), (PixelBBox(6, 6, 8, 8), 0.5)],
            [PixelBBox(0, 0, 2, 2), PixelBBox(3, 3, 5, 5)],
        ),
    ]
)
# A duplicate detection (K = 4): the first copy takes the truth at IoU 2/3,
# the second meets a three-way tie at IoU exactly 0.5 and takes the lowest
# index. IoU exactly 0.6; confidences 0.75 and 0.5 tied across images; an
# image with detections and no truths; an empty image; no images at all.
@example(
    [
        (
            [(PixelBBox(0, 0, 2, 1), 1.0), (PixelBBox(0, 0, 2, 1), 0.75), (PixelBBox(0, 0, 4, 1), 0.5)],
            [PixelBBox(0, 0, 1, 1), PixelBBox(1, 0, 2, 1), PixelBBox(0, 0, 3, 1), PixelBBox(0, 0, 4, 1)],
        ),
        ([(PixelBBox(0, 0, 5, 1), 0.75), (PixelBBox(2, 2, 4, 4), 0.5)], [PixelBBox(0, 0, 3, 1)]),
        ([(PixelBBox(3, 3, 5, 5), 1.0)], []),
        ([], []),
    ]
)
# Four size buckets: 1, 5 and 9 detections and an image with truths but no
# detections. Confidences 1.0, 0.75 and 0.5 tie across the buckets, so the
# flags must go back to image order before the stable confidence sort.
@example(
    [
        ([(PixelBBox(0, 0, 2, 1), 0.75)], [PixelBBox(0, 0, 2, 1), PixelBBox(1, 0, 3, 1)]),
        (
            [
                (PixelBBox(0, 0, 2, 2), 1.0),
                (PixelBBox(0, 0, 2, 2), 0.75),
                (PixelBBox(1, 1, 3, 3), 0.75),
                (PixelBBox(2, 0, 4, 2), 0.5),
                (PixelBBox(0, 2, 2, 4), 0.5),
            ],
            [PixelBBox(0, 0, 2, 2), PixelBBox(1, 1, 3, 3), PixelBBox(2, 0, 4, 2)],
        ),
        (
            [
                (PixelBBox(0, 0, 1, 1), 1.0),
                (PixelBBox(1, 0, 2, 1), 1.0),
                (PixelBBox(2, 0, 3, 1), 0.75),
                (PixelBBox(3, 0, 4, 1), 0.75),
                (PixelBBox(0, 1, 1, 2), 0.75),
                (PixelBBox(0, 0, 4, 1), 0.5),
                (PixelBBox(0, 0, 3, 3), 0.5),
                (PixelBBox(1, 1, 4, 4), 0.5),
                (PixelBBox(0, 0, 4, 4), 0.5),
            ],
            [PixelBBox(0, 0, 4, 1), PixelBBox(0, 0, 3, 3)],
        ),
        ([], [PixelBBox(0, 0, 1, 1), PixelBBox(3, 3, 4, 4)]),
    ]
)
@example([([], [])])
@example([])
def test_candidate_walk_report_is_full_width_report(images):
    event(f"K={_positive_truths(images)}")
    event(f"size buckets: {len({(len(dets).bit_length(), len(gts).bit_length()) for dets, gts in images})}")
    dets = [
        [Detection(box, conf) for box, conf in sorted(image_dets, key=lambda d: -d[1])]
        for image_dets, _ in images
    ]
    gts = [image_gts for _, image_gts in images]
    for thresholds in (DEFAULT_IOU_THRESHOLDS, (0.6, 0.5, 0.3, 0.6)):
        event(f"walked ranks at lowest threshold {min(thresholds)}: {_walked_ranks(images, min(thresholds))}")
        assert map_over_thresholds(dets, gts, thresholds) == full_width_report(dets, gts, thresholds)


near_million_boxes = st.builds(
    lambda x1, y1, w, h: PixelBBox(x1, y1, x1 + w, y1 + h),
    x1=st.one_of(st.integers(0, 8), st.integers(999_990, 1_000_000)),
    y1=st.one_of(st.integers(0, 8), st.integers(999_990, 1_000_000)),
    w=st.one_of(st.integers(1, 8), st.integers(999_990, 1_000_000)),
    h=st.one_of(st.integers(1, 8), st.integers(999_990, 1_000_000)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.lists(near_million_boxes, max_size=4), st.lists(near_million_boxes, max_size=4)), max_size=4)
)
def test_iou_tensor_is_scalar_iou_bit_for_bit(images):
    dets = [image_dets for image_dets, _ in images]
    gts = [image_gts for _, image_gts in images]
    tensor = deteval._iou_tensor(
        deteval._pad_boxes(dets, deteval._counts(dets))[0], deteval._pad_boxes(gts, deteval._counts(gts))[0]
    )
    expected = np.zeros_like(tensor)  # padded pairs read 0.0
    for i, (image_dets, image_gts) in enumerate(images):
        for a, det in enumerate(image_dets):
            for b, gt in enumerate(image_gts):
                expected[i, a, b] = iou(det, gt)
    assert np.array_equal(tensor.view(np.int64), expected.view(np.int64))
