"""Acceptance gate: one test per release criterion, each at its stated
tolerance, each printing a PASS line (run with -v or -s for the listing).

Criteria:
 1. calibration quality on a seeded synthetic set (CV MSE <= 0.25 C^2,
    CV R2 >= 0.93, under 5 s through the CLI)
 2. linear-family prediction is bit-exact through persistence
 3. AP/mAP equals a brute-force PR enumeration within 1e-9 on 200 instances
 4. replay self-evaluation scores exactly 1.0 across the board
 5. end-to-end temperature oracle on 50 mixed sparse/dense frames
    (>= 95% detection at IoU >= 0.5, every reading within 0.3 C, under 30 s)
 6. real-time contract: mean per-frame latency under 111 ms at 160x120
 7. the plausibility guard promotes the runner-up over a hot top candidate
 8. external detectors plug in over the line protocol with no code changes
 9. the 1000-case property suites hold
"""

import sys
import time
from pathlib import Path

import numpy as np

import test_properties
from _oracles import ap_enumeration, greedy_match_flags
from thermotrack.annotations import denormalize
from thermotrack.cli import main
from thermotrack.detectors import BlobDetector, Detection, DetectorConfig, ReplayDetector
from thermotrack.deteval import MatchResult, average_precision, iou, map_over_thresholds, match_greedy
from thermotrack.annotations import PixelBBox
from thermotrack.pipeline import PipelineConfig, process_frame, run_stream
from thermotrack.synthscene import SequenceSpec, generate_calibration_set, generate_sequence, write_dataset
from thermotrack.thermoreg import (
    CalibrationSample,
    CrossValReport,
    FittedRegressor,
    ModelSpec,
    k_fold_cv,
    load_model,
    save_calibration_csv,
    save_model,
    select_model,
)

STUB = Path(__file__).parent / "stub_adapter.py"

EXACT_LAW = FittedRegressor("ridge", {"intercept": 20.0, "slope": 0.1}, {"lambda": 0.0})
BLOB_CFG = DetectorConfig(intensity_threshold=32, min_blob_area=40, confidence_threshold=0.1)


def _passed(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {detail}")


def test_criterion_1_calibration_quality(tmp_path, capsys):
    samples = generate_calibration_set(100, beta0=20.0, beta1=0.1, seed=2024)
    csv_path = tmp_path / "calibration.csv"
    save_calibration_csv(samples, csv_path)
    model_path = tmp_path / "model.json"

    start = time.perf_counter()
    code = main(["calibrate", str(csv_path), "--out", str(model_path), "--folds", "5"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    assert code == 0
    model = load_model(model_path)
    assert model.provenance is not None
    cv_mse = model.provenance["cv_mean_mse"]
    cv_r2 = model.provenance["cv_mean_r2"]
    assert cv_mse <= 0.25, f"CV MSE {cv_mse} exceeds 0.25"
    assert cv_r2 >= 0.93, f"CV R2 {cv_r2} below 0.93"
    assert elapsed < 5.0, f"calibration took {elapsed:.2f}s"
    _passed(1, f"{model.kind} selected, CV MSE {cv_mse:.4f}, CV R2 {cv_r2:.4f}, {elapsed:.2f}s")


def test_criterion_2_linear_prediction_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    pixels = rng.uniform(20, 240, 50)
    temps = 21.0 + 0.07 * pixels + rng.normal(0, 0.2, 50)
    samples = [CalibrationSample(float(p), float(t)) for p, t in zip(pixels, temps)]
    specs = [ModelSpec("linear", {}), ModelSpec("ridge", {"lambda": 3.0}), ModelSpec("lasso", {"lambda": 0.5}),
             ModelSpec("elastic_net", {"lambda": 1.0, "mix": 0.5})]
    fits = [spec.fit(samples) for spec in specs]
    probe = rng.uniform(0.0, 255.0, 1000)
    for model in fits:
        path = tmp_path / f"{model.kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        intercept = loaded.params["intercept"]
        slope = loaded.params["slope"]
        for p in probe:
            p = float(p)
            assert loaded.predict(p) == intercept + slope * p
            assert loaded.predict(p) == model.predict(p)
    _passed(2, "4 linear-family models, 1000 pixels each, bit-exact after reload")


def _random_instance(rng, max_dets=10, max_gts=6):
    def boxes(count):
        out = []
        for _ in range(count):
            x1 = int(rng.integers(0, 40))
            y1 = int(rng.integers(0, 40))
            out.append(PixelBBox(x1, y1, x1 + int(rng.integers(1, 25)), y1 + int(rng.integers(1, 25))))
        return out

    n_det = int(rng.integers(0, max_dets + 1))
    confs = rng.choice(np.arange(1, 10_000), size=n_det, replace=False) / 10_000.0
    dets = [Detection(b, float(c)) for b, c in zip(boxes(n_det), sorted(confs, reverse=True))]
    return dets, boxes(int(rng.integers(0, max_gts + 1)))


def test_criterion_3_metric_oracle_equivalence():
    assert average_precision(MatchResult([True], 1), [0.9]) == 1.0
    assert average_precision(MatchResult([True, False], 1), [0.9, 0.8]) == 1.0
    assert average_precision(MatchResult([False, True], 1), [0.9, 0.8]) == 0.5

    rng = np.random.default_rng(303)
    for _ in range(200):
        dets, gts = _random_instance(rng)
        threshold = float(rng.choice([0.3, 0.5, 0.75]))
        match = match_greedy(dets, gts, threshold)
        got = average_precision(match, [d.confidence for d in dets])
        expected_flags = greedy_match_flags(
            [(d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2) for d in dets],
            [(g.x1, g.y1, g.x2, g.y2) for g in gts],
            threshold,
        )
        assert match.tp_flags == expected_flags
        assert abs(got - ap_enumeration(expected_flags, len(gts))) <= 1e-9

    # pooled mAP against the same oracle applied per image then merged
    for _ in range(40):
        images = [_random_instance(rng, max_dets=6, max_gts=4) for _ in range(3)]
        dets_per_image = [dets for dets, _ in images]
        gts_per_image = [gts for _, gts in images]
        report = map_over_thresholds(dets_per_image, gts_per_image, thresholds=[0.5])
        flags, confs = [], []
        for dets, gts in images:
            flags.extend(
                greedy_match_flags(
                    [(d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2) for d in dets],
                    [(g.x1, g.y1, g.x2, g.y2) for g in gts],
                    0.5,
                )
            )
            confs.extend(d.confidence for d in dets)
        order = np.argsort(-np.asarray(confs), kind="stable")
        expected = ap_enumeration([flags[i] for i in order], sum(len(g) for g in gts_per_image))
        assert abs(report.map_50 - expected) <= 1e-9
    _passed(3, "200 random instances + pooled mAP match the enumeration oracle within 1e-9")


def test_criterion_4_replay_self_consistency():
    for layout, seed in (("sparse", 71), ("dense", 72), ("mix", 73)):
        seq = SequenceSpec(frames=8, layout=layout, seed=seed)
        items = list(generate_sequence(seq))
        detector = ReplayDetector(
            {frame.source_id: labels for frame, labels, _ in items}
        )
        dets_per_image = [detector.detect(frame) for frame, _, _ in items]
        gts_per_image = [
            [denormalize(l.bbox, frame.width, frame.height) for l in labels]
            for frame, labels, _ in items
        ]
        report = map_over_thresholds(dets_per_image, gts_per_image)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.map_50 == 1.0
        assert report.map_50_95 == 1.0
    _passed(4, "replay scores exactly 1.0 on sparse, dense, and mixed datasets")


def test_criterion_5_end_to_end_temperature_oracle():
    seq = SequenceSpec(frames=50, layout="mix", seed=2025)
    detector = BlobDetector(BLOB_CFG)
    cfg = PipelineConfig()

    start = time.perf_counter()
    total_faces = 0
    detected_faces = 0
    worst_error = 0.0
    for frame, labels, temps in generate_sequence(seq):
        gts = [denormalize(l.bbox, frame.width, frame.height) for l in labels]
        _, readings = process_frame(frame, cfg, detector, EXACT_LAW)
        total_faces += len(gts)
        claimed = [False] * len(gts)
        for reading in readings:
            best, best_j = 0.0, -1
            for j, gt in enumerate(gts):
                if claimed[j]:
                    continue
                value = iou(reading.bbox, gt)
                if value > best:
                    best, best_j = value, j
            assert best_j >= 0 and best >= 0.5, "reading does not correspond to any face"
            claimed[best_j] = True
            detected_faces += 1
            error = abs(reading.temperature_c - temps[best_j])
            worst_error = max(worst_error, error)
            assert error <= 0.3, f"temperature off by {error:.3f} C"
    elapsed = time.perf_counter() - start

    rate = detected_faces / total_faces
    assert rate >= 0.95, f"only {rate:.1%} of faces detected"
    assert elapsed < 30.0, f"oracle run took {elapsed:.1f}s"
    _passed(
        5,
        f"{detected_faces}/{total_faces} faces at IoU>=0.5, worst error "
        f"{worst_error:.3f} C, {elapsed:.2f}s",
    )


def test_criterion_6_real_time_contract(tmp_path):
    seq = SequenceSpec(frames=100, layout="mix", seed=77)
    frames = [frame for frame, _, _ in generate_sequence(seq)]
    assert all(f.width == 160 and f.height == 120 for f in frames)
    cfg = PipelineConfig(log_path=tmp_path / "bench.csv", output_dir=tmp_path / "out")
    summary = run_stream(frames, BlobDetector(BLOB_CFG), EXACT_LAW, cfg)
    assert summary.frames == 100
    assert summary.mean_latency_ms < 111.0, f"mean latency {summary.mean_latency_ms:.1f} ms"
    _passed(
        6,
        f"100 frames, mean {summary.mean_latency_ms:.2f} ms/frame "
        f"(max {summary.max_latency_ms:.2f} ms)",
    )


def test_criterion_7_guard_promotes_runner_up():
    samples = [
        CalibrationSample(40.0, 34.0),
        CalibrationSample(80.0, 35.0),
        CalibrationSample(120.0, 36.0),
        CalibrationSample(160.0, 36.5),
        CalibrationSample(200.0, 37.0),
        CalibrationSample(250.0, 39.5),
    ]
    best_by_cv = k_fold_cv(samples, ModelSpec("knn", {"k": 1}), 4, seed=0)
    best_by_cv.grid_index = 0
    runner_up = k_fold_cv(samples, ModelSpec("ridge", {"lambda": 20000.0}), 4, seed=0)
    runner_up.grid_index = 1
    report = CrossValReport(
        entries=[best_by_cv, runner_up],
        n_samples=len(samples),
        mean_temperature_c=float(np.mean([s.temperature_c for s in samples])),
        n_folds=4,
        seed=0,
    )
    screening = [250.0]  # a hot-but-healthy region the memorizer maps above 38 C
    selected = select_model(samples, report, screening, ceiling_c=38.0)
    assert selected.kind == "ridge"
    assert selected.provenance["rank"] == 1
    assert selected.provenance["rejected_before"][0]["kind"] == "knn"
    assert selected.predict(250.0) <= 38.0
    _passed(7, "hot top candidate rejected by the guard; ridge runner-up selected")


def test_criterion_8_external_adapter_contract(tmp_path, capsys):
    seq = SequenceSpec(frames=6, layout="sparse", sparse_count=3, seed=88)
    dataset = tmp_path / "ds"
    write_dataset(seq, dataset)
    (dataset / "truth.csv").unlink()
    command = f"external:{sys.executable} {STUB} labels {dataset} 0.9"
    prefix = tmp_path / "external_eval"
    code = main(
        ["eval-detector", str(dataset), "--detector", command, "--out-prefix", str(prefix)]
    )
    capsys.readouterr()
    assert code == 0
    row = (tmp_path / "external_eval.csv").read_text().splitlines()[1]
    assert row == "ds,1.000000,1.000000,1.000000,1.000000"
    _passed(8, "canned detections over the line protocol score 1.0 with stock code")


def test_criterion_9_property_suites():
    test_properties.test_iou_symmetry_and_bounds()
    test_properties.test_flip_involution()
    test_properties.test_label_round_trip()
    test_properties.test_ridge_slope_magnitude_monotone_in_lambda()
    test_properties.test_linear_fit_minimizes_elastic_net_objective()
    test_properties.test_fold_partition_is_disjoint_cover()
    _passed(9, "six 1000-case property suites hold")
