import hashlib
import inspect
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from thermotrack import cli, frameio, pipeline
from thermotrack.annotations import GroundTruthLabel, NormBBox
from thermotrack.cli import main
from thermotrack.detectors import REPLAY_NMS_IOU, DetectorConfig, ExternalAdapter, ReplayDetector
from thermotrack.frameio import (
    DatasetItem, gray_to_bgr, load_frame, pair_frames_with_labels, save_frame, save_item
)
from thermotrack.pipeline import LOG_CSV_HEADER, PipelineConfig, StreamSummary
from thermotrack.synthscene import SequenceSpec, generate_calibration_set, write_dataset
from thermotrack.thermoreg import (
    ModelSpec,
    grid_search,
    load_model,
    save_calibration_csv,
    save_model,
)
from conftest import gray_frame, traced_call
from test_detectors import STUB

SCENE_SPEC = """
[scene]
width = 160
height = 120
frames = {frames}
background_level = 20
noise_amplitude = 4
beta0 = 20.0
beta1 = 0.1
seed = {seed}

[faces]
layout = {layout}
sparse_count = 3
dense_min = 12
dense_max = 15
temp_min_c = 34.0
temp_max_c = 38.0
"""

BLOB_FLAGS = ["--blob-threshold", "32", "--blob-min-area", "40", "--conf-threshold", "0.1"]


def run_cli(*argv: str) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        return int(exc.code)


def _count_loads(monkeypatch):
    """Record every frame decode, through either module that calls load_frame."""
    loads = []
    for module in (frameio, pipeline):
        real = module.load_frame

        def counting(path, *args, _real=real, **kwargs):
            loads.append(path)
            return _real(path, *args, **kwargs)

        monkeypatch.setattr(module, "load_frame", counting)
    return loads


def _capture_run(monkeypatch):
    """Stand in for run_stream and keep the detector and config it was given."""
    seen = {}

    def fake_run_stream(source, detector, model, cfg):
        seen.update(detector=detector, cfg=cfg)
        return StreamSummary()

    monkeypatch.setattr(cli, "run_stream", fake_run_stream)
    return seen


def _capture_blob_configs(monkeypatch):
    built = []
    real = cli.BlobDetector
    monkeypatch.setattr(cli, "BlobDetector", lambda cfg: built.append(cfg) or real(cfg))
    return built


def _write_scene_spec(tmp_path, frames=4, layout="sparse", seed=29):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_SPEC.format(frames=frames, layout=layout, seed=seed))
    return path


# Three 640x640 BGR frames' bytes: the memory bound of a command that holds
# a bounded number of frames. 40 decoded 640x640 gray frames hold 16 MB.
THREE_BGR_640 = 3 * 640 * 640 * 3


def _dataset_640(tmp_path, frames=40):
    """Gray 640x640 frames, each labeled with one box around a hot square."""
    ds = tmp_path / "big"
    ds.mkdir()
    for index in range(frames):
        frame = gray_frame(640, 640, value=20 + index, source_id=f"f{index:02d}")
        frame.pixels[240:400, 240:400] = 230
        save_item(DatasetItem(frame, [GroundTruthLabel(NormBBox(0, 0.5, 0.5, 0.25, 0.25))]), ds)
    return ds


def _png_dataset(tmp_path):
    """A dataset exported as PNG: a directory with no .pgm/.ppm frame file."""
    ds = tmp_path / "png"
    ds.mkdir()
    (ds / "frame_000000.png").write_bytes(b"\x89PNG")
    return ds


def _assert_names_frameless(err, ds):
    assert err.startswith("error: ") and f"{ds} holds no .pgm/.ppm frame files" in err


def _record_adapter_launches(monkeypatch):
    launched = []
    monkeypatch.setattr(cli, "ExternalAdapter", lambda *a, **kw: launched.append(a))
    return launched


def _ridge_law_model(tmp_path):
    samples = generate_calibration_set(60, beta0=20.0, beta1=0.1, seed=77)
    model = ModelSpec("ridge", {"lambda": 0.0}).fit(samples)
    path = tmp_path / "law.json"
    save_model(model, path)
    return path


class TestSynth:
    def test_sparse_dataset(self, tmp_path, capsys):
        spec = _write_scene_spec(tmp_path, frames=3, layout="sparse")
        out = tmp_path / "ds"
        assert run_cli("synth", str(spec), "--out", str(out)) == 0
        assert "frames=3" in capsys.readouterr().out
        items = list(pair_frames_with_labels(out))
        assert [len(item.labels) for item in items] == [3, 3, 3]

    def test_dense_dataset_face_counts(self, tmp_path):
        spec = _write_scene_spec(tmp_path, frames=4, layout="dense")
        out = tmp_path / "dense"
        assert run_cli("synth", str(spec), "--out", str(out)) == 0
        items = list(pair_frames_with_labels(out))
        assert all(12 <= len(item.labels) <= 15 for item in items)

    def test_same_spec_and_seed_identical(self, tmp_path):
        spec = _write_scene_spec(tmp_path, frames=2)
        assert run_cli("synth", str(spec), "--out", str(tmp_path / "a")) == 0
        assert run_cli("synth", str(spec), "--out", str(tmp_path / "b")) == 0
        for name in ("frame_000000.pgm", "frame_000001.txt", "truth.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec = _write_scene_spec(tmp_path, frames=1)
        run_cli("synth", str(spec), "--out", str(tmp_path / "a"))
        run_cli("--seed", "99", "synth", str(spec), "--out", str(tmp_path / "c"))
        assert (tmp_path / "a" / "frame_000000.pgm").read_bytes() != (
            tmp_path / "c" / "frame_000000.pgm"
        ).read_bytes()

    def test_bad_spec_is_data_error(self, tmp_path):
        spec = tmp_path / "bad.cfg"
        spec.write_text("[scene]\nnonsense = 1\n")
        assert run_cli("synth", str(spec), "--out", str(tmp_path / "x")) == 3


class TestPrepare:
    def _dataset(self, tmp_path, n=3, seed=41, name="src"):
        seq = SequenceSpec(frames=n, layout="sparse", sparse_count=2, seed=seed)
        out = tmp_path / name
        write_dataset(seq, out)
        (out / "truth.csv").unlink()  # prepare consumes plain frame/label dirs
        return out

    def test_resize_keeps_item_count(self, tmp_path):
        src = self._dataset(tmp_path)
        out = tmp_path / "resized"
        assert run_cli("prepare", str(src), str(out), "--resize", "640x640") == 0
        items = list(pair_frames_with_labels(out))
        assert len(items) == 3
        assert items[0].frame.width == 640 and items[0].frame.height == 640
        assert len(items[0].labels) == 2  # labels ride along unchanged

    def test_augment_doubles_with_hf_stems(self, tmp_path):
        src = self._dataset(tmp_path)
        out = tmp_path / "aug"
        assert run_cli("prepare", str(src), str(out), "--resize", "640x640", "--augment-hflip") == 0
        items = list(pair_frames_with_labels(out))
        assert len(items) == 6
        stems = {item.frame.source_id for item in items}
        assert "frame_000000" in stems and "frame_000000_hf" in stems

    def test_combine_is_additive(self, tmp_path):
        a = self._dataset(tmp_path, n=2, seed=1, name="a")
        b = self._dataset(tmp_path, n=3, seed=2, name="b")
        # distinct stems across sets
        for i, path in enumerate(sorted(b.glob("frame_*"))):
            path.rename(b / f"lab_{path.name[6:]}")
        out = tmp_path / "combined"
        assert run_cli("prepare", str(a), str(out), "--combine", str(b)) == 0
        assert len(list(pair_frames_with_labels(out))) == 5

    def test_combine_collision_is_data_error(self, tmp_path):
        a = self._dataset(tmp_path, n=2, seed=1, name="a")
        b = self._dataset(tmp_path, n=2, seed=2, name="b")
        assert run_cli("prepare", str(a), str(tmp_path / "x"), "--combine", str(b)) == 3
        assert not (tmp_path / "x").exists()

    PINS = json.loads((Path(__file__).parent / "data" / "prepare_pins.json").read_text())

    @staticmethod
    def _tree_sha(root):
        digest = hashlib.sha256()
        for path in sorted(root.iterdir()):
            digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
        return digest.hexdigest()

    @pytest.mark.parametrize("case", ["resize-hflip-combine", "hflip"])
    def test_output_files_pinned(self, tmp_path, case):
        """sha256 over the names and bytes of every written file, recorded
        when prepare still derived every item before writing any."""
        a = self._dataset(tmp_path, n=3, seed=41, name="a")
        b = tmp_path / "b"
        write_dataset(SequenceSpec(frames=2, layout="dense", dense_min=3, dense_max=4, seed=42), b)
        (b / "truth.csv").unlink()
        for path in sorted(b.glob("frame_*.pgm")):  # BGR frames under distinct stems
            save_frame(gray_to_bgr(load_frame(path)), b / f"bgr_{path.stem[6:]}.ppm")
            (b / f"{path.stem}.txt").rename(b / f"bgr_{path.stem[6:]}.txt")
            path.unlink()
        flags = ["--augment-hflip"]
        if case == "resize-hflip-combine":
            flags += ["--resize", "64x48", "--combine", str(b)]
        out = tmp_path / case
        assert run_cli("prepare", str(a), str(out), *flags) == 0
        assert self._tree_sha(out) == self.PINS[case]

    def test_hflip_collision_writes_nothing(self, tmp_path):
        src = self._dataset(tmp_path, n=3)
        for path in src.glob("frame_000002.*"):
            path.rename(src / f"frame_000000_hf{path.suffix}")
        out = tmp_path / "aug"
        assert run_cli("prepare", str(src), str(out), "--resize", "64x48", "--augment-hflip") == 3
        assert not out.exists()

    def test_corrupt_source_frame_is_data_error(self, tmp_path, capsys):
        src = self._dataset(tmp_path, n=3)
        corrupt = src / "frame_000001.pgm"
        corrupt.write_bytes(b"P5\n160 120\n255\n\x00")
        out = tmp_path / "out"
        assert run_cli("prepare", str(src), str(out), "--augment-hflip") == 3
        assert str(corrupt) in capsys.readouterr().err
        # Items are written as they are read: the one before the corrupt frame is out.
        assert sorted(p.name for p in out.iterdir()) == [
            "frame_000000.pgm", "frame_000000.txt", "frame_000000_hf.pgm", "frame_000000_hf.txt"
        ]

    def test_memory_does_not_grow_with_frames(self, tmp_path, capsys):
        src = _dataset_640(tmp_path)
        out = tmp_path / "out"
        flags = ["--resize", "640x640", "--augment-hflip"]
        code, peak = traced_call(run_cli, "prepare", str(src), str(out), *flags)
        assert code == 0
        assert "items=80" in capsys.readouterr().out
        assert len(list(out.glob("*.pgm"))) == 80
        assert peak < THREE_BGR_640

    def test_bad_resize_flag_is_usage_error(self, tmp_path):
        src = self._dataset(tmp_path)
        assert run_cli("prepare", str(src), str(tmp_path / "y"), "--resize", "640") == 2

    @pytest.mark.parametrize("combined", [False, True], ids=["src", "combine"])
    def test_frameless_directory_is_data_error(self, tmp_path, capsys, combined):
        png = _png_dataset(tmp_path)
        sources = [str(self._dataset(tmp_path)), "--combine", str(png)] if combined else [str(png)]
        out = tmp_path / "out"
        assert run_cli("prepare", sources[0], str(out), *sources[1:]) == 3
        captured = capsys.readouterr()
        _assert_names_frameless(captured.err, png)
        assert "items=" not in captured.out
        assert not out.exists()


class TestCalibrate:
    def _csv(self, tmp_path, seed=101):
        samples = generate_calibration_set(100, beta0=20.0, beta1=0.1, seed=seed)
        path = tmp_path / "cal.csv"
        save_calibration_csv(samples, path)
        return path

    def test_selects_model_recovering_the_law(self, tmp_path, capsys):
        csv_path = self._csv(tmp_path)
        model_path = tmp_path / "model.json"
        assert run_cli("calibrate", str(csv_path), "--out", str(model_path)) == 0
        out = capsys.readouterr().out
        assert "selected=" in out and "cv_mse=" in out
        model = load_model(model_path)
        assert model.kind in ("linear", "ridge", "lasso", "elastic_net")
        assert model.params["slope"] == pytest.approx(0.1, abs=0.01)
        assert model.params["intercept"] == pytest.approx(20.0, abs=1.5)
        assert (tmp_path / "model.json.report.txt").exists()

    def test_folds_one_is_usage_error(self, tmp_path):
        csv_path = self._csv(tmp_path)
        assert run_cli("calibrate", str(csv_path), "--out", str(tmp_path / "m.json"), "--folds", "1") == 2

    @pytest.mark.parametrize(
        "grid",
        [
            {"ridge": [{}]},
            {"ridge": [{"lamda": 1}]},
            {"linear": [{"lambda": 5}]},
            {"ridge": [{"lambda": "1"}]},
            {"elastic_net": [{"lambda": 1.0, "mix": None}]},
            {"knn": [{"k": 3, "weights": "distance"}]},
            {"ridge": [{"lambda": -1}]},
            {"elastic_net": [{"lambda": 1.0, "mix": 2}]},
            {"knn": [{"k": 0}]},
            {"decision_tree": [{"max_depth": -1, "min_samples_leaf": 1}]},
            {"ridge": [{"lambda": 10**400}]},
        ],
        ids=[
            "missing-name", "misspelt-name", "name-not-taken", "string-lambda", "null-mix", "extra-name",
            "negative-lambda", "mix-above-one", "zero-k", "negative-depth", "401-digit-lambda",
        ],
    )
    def test_bad_hyperparameters_are_data_errors(self, tmp_path, capsys, grid):
        csv_path = self._csv(tmp_path)
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps(grid))
        model_path = tmp_path / "m.json"
        code = run_cli("calibrate", str(csv_path), "--out", str(model_path), "--grids", str(grids))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "fold underflow" not in err
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "source, value", [("flag", "nan"), ("flag", "-inf"), ("config", "inf"), ("config", "nan")]
    )
    def test_non_finite_ceiling_is_data_error(self, tmp_path, capsys, monkeypatch, source, value):
        # A NaN ceiling would pass every candidate (nothing is > NaN) and
        # write NaN into the model JSON; it is refused before the grid search.
        monkeypatch.setattr(cli, "grid_search", lambda *a, **k: pytest.fail("grid search ran"))
        csv_path = self._csv(tmp_path)
        model_path = tmp_path / "m.json"
        argv = ["calibrate", str(csv_path), "--out", str(model_path)]
        if source == "flag":
            argv.append(f"--ceiling={value}")
        else:
            cfg = tmp_path / "thermotrack.cfg"
            cfg.write_text(f"[calibrate]\nceiling = {value}\n")
            argv = ["--config", str(cfg)] + argv
        assert run_cli(*argv) == 3
        assert capsys.readouterr().err.startswith("error: ceiling must be finite")
        assert not model_path.exists()

    def test_k_above_fold_size_is_fold_underflow(self, tmp_path, capsys):
        # 100 samples in 5 folds leave 80 to train on: k = 90 fits no fold.
        csv_path = self._csv(tmp_path)
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"knn": [{"k": 90}]}))
        code = run_cli("calibrate", str(csv_path), "--out", str(tmp_path / "m.json"), "--grids", str(grids))
        assert code == 3
        assert "fold underflow for knn" in capsys.readouterr().err

    def test_guard_set_rejects_steep_candidate(self, tmp_path, capsys):
        # A steep exact line: its nearest-neighbor memorization CV-wins, but
        # predicts 38.75 at the 255-intensity screening region; the heavily
        # shrunk ridge stays under the ceiling and is selected instead.
        pixels = np.arange(40.0, 251.0, 10.0)
        from thermotrack.thermoreg import CalibrationSample

        samples = [CalibrationSample(float(p), 25.0 + 0.055 * float(p)) for p in pixels]
        csv_path = tmp_path / "steep.csv"
        save_calibration_csv(samples, csv_path)

        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"knn": [{"k": 1}], "ridge": [{"lambda": 50000.0}]}))

        guard_dir = tmp_path / "guard"
        guard_dir.mkdir()
        hot = gray_frame(20, 20, value=30, source_id="hot")
        hot.pixels[10, 10] = 255
        save_frame(hot, guard_dir / "hot.pgm")
        (guard_dir / "hot.txt").write_text("0 0.5 0.5 0.9 0.9\n")

        model_path = tmp_path / "guarded.json"
        code = run_cli(
            "calibrate", str(csv_path), "--out", str(model_path),
            "--grids", str(grids), "--folds", "4", "--guard-set", str(guard_dir),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "selected=ridge" in out
        model = load_model(model_path)
        assert model.kind == "ridge"
        assert model.provenance["rejected_before"][0]["kind"] == "knn"

    def test_guard_set_memory_does_not_grow_with_frames(self, tmp_path):
        ds = _dataset_640(tmp_path)
        pixels, peak = traced_call(cli._guard_pixels, str(ds))
        assert pixels == [230] * 40
        assert peak < THREE_BGR_640

    def test_frameless_guard_set_is_data_error(self, tmp_path, capsys):
        png = _png_dataset(tmp_path)
        model_path = tmp_path / "m.json"
        code = run_cli("calibrate", str(self._csv(tmp_path)), "--out", str(model_path), "--guard-set", str(png))
        assert code == 3
        _assert_names_frameless(capsys.readouterr().err, png)
        assert not model_path.exists()

    def test_no_viable_model_is_data_error(self, tmp_path):
        from thermotrack.thermoreg import CalibrationSample

        samples = [CalibrationSample(float(p), 25.0 + 0.1 * float(p)) for p in (50, 100, 150, 200)]
        csv_path = tmp_path / "steep.csv"
        save_calibration_csv(samples, csv_path)
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"linear": [{}]}))
        guard_dir = tmp_path / "guard"
        guard_dir.mkdir()
        hot = gray_frame(20, 20, value=30)
        hot.pixels[10, 10] = 255
        save_frame(hot, guard_dir / "hot.pgm")
        (guard_dir / "hot.txt").write_text("0 0.5 0.5 0.9 0.9\n")
        code = run_cli(
            "calibrate", str(csv_path), "--out", str(tmp_path / "m.json"),
            "--grids", str(grids), "--folds", "2", "--guard-set", str(guard_dir),
        )
        assert code == 3


class TestEvalDetector:
    def _dataset(self, tmp_path, frames=6, layout="sparse", seed=55):
        seq = SequenceSpec(frames=frames, layout=layout, seed=seed)
        out = tmp_path / "ds"
        write_dataset(seq, out)
        (out / "truth.csv").unlink()
        return out

    def test_replay_detector_scores_one(self, tmp_path, capsys):
        ds = self._dataset(tmp_path)
        prefix = tmp_path / "replay_eval"
        code = run_cli("eval-detector", str(ds), "--detector", "replay", "--out-prefix", str(prefix))
        assert code == 0
        csv_text = (tmp_path / "replay_eval.csv").read_text().splitlines()
        assert csv_text[0] == "dataset,precision,recall,map50,map5095"
        assert csv_text[1] == "ds,1.000000,1.000000,1.000000,1.000000"

    def test_blob_detector_on_clean_scenes(self, tmp_path):
        ds = self._dataset(tmp_path, frames=10, layout="mix", seed=60)
        prefix = tmp_path / "blob_eval"
        code = run_cli(
            "eval-detector", str(ds), "--detector", "blob", *BLOB_FLAGS,
            "--out-prefix", str(prefix),
        )
        assert code == 0
        row = (tmp_path / "blob_eval.csv").read_text().splitlines()[1].split(",")
        assert float(row[3]) >= 0.9  # map50 on blob-separable scenes

    def test_detector_from_config_file(self, tmp_path, capsys):
        ds = self._dataset(tmp_path)
        cfg = tmp_path / "tt.cfg"
        cfg.write_text("[eval-detector]\ndetector = replay\n")
        prefix = tmp_path / "cfg_eval"
        code = run_cli("--config", str(cfg), "eval-detector", str(ds), "--out-prefix", str(prefix))
        assert code == 0
        assert "map50=1.000000" in (tmp_path / "cfg_eval.txt").read_text()

    @pytest.mark.parametrize("detector", [["--detector", "replay"], BLOB_FLAGS], ids=["replay", "blob"])
    def test_decodes_each_frame_once(self, tmp_path, monkeypatch, detector):
        ds = self._dataset(tmp_path)
        loads = _count_loads(monkeypatch)
        code = run_cli("eval-detector", str(ds), *detector, "--out-prefix", str(tmp_path / "e"))
        assert code == 0
        assert len(loads) == 6

    def test_unknown_detector_is_data_error(self, tmp_path):
        ds = self._dataset(tmp_path)
        assert run_cli("eval-detector", str(ds), "--detector", "magic") == 3

    def test_no_frame_files_is_data_error(self, tmp_path, capsys):
        # A dataset exported as PNG: no frame file is read, so nothing is scored.
        ds = tmp_path / "png"
        ds.mkdir()
        (ds / "frame_000000.png").write_bytes(b"\x89PNG")
        prefix = tmp_path / "empty_eval"
        assert run_cli("eval-detector", str(ds), "--detector", "replay", "--out-prefix", str(prefix)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ds) in err and ".pgm" in err and ".ppm" in err
        assert not list(tmp_path.glob("empty_eval*"))

    @pytest.mark.parametrize("detector", [["--detector", "replay"], []], ids=["replay", "blob"])
    def test_memory_does_not_grow_with_frames(self, tmp_path, capsys, detector):
        ds = _dataset_640(tmp_path)
        prefix = tmp_path / "e"
        code, peak = traced_call(run_cli, "eval-detector", str(ds), *detector, "--out-prefix", str(prefix))
        assert code == 0
        assert "map50=1.000000" in capsys.readouterr().out
        assert peak < THREE_BGR_640

    def test_adapter_dying_mid_response_is_closed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        ds = self._dataset(tmp_path, frames=2)
        prefix = tmp_path / "e"
        detector = f"external:{shlex.join([sys.executable, str(STUB), 'die-mid'])}"
        assert run_cli("eval-detector", str(ds), "--detector", detector, "--out-prefix", str(prefix)) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("thermotrack-adapter-*"))
        assert not list(tmp_path.glob("e.*"))

    def test_frameless_directory_launches_no_adapter(self, tmp_path, capsys, monkeypatch):
        launched = _record_adapter_launches(monkeypatch)
        png = _png_dataset(tmp_path)
        detector = f"external:{shlex.join([sys.executable, str(STUB)])}"
        assert run_cli("eval-detector", str(png), "--detector", detector) == 3
        _assert_names_frameless(capsys.readouterr().err, png)
        assert launched == []


class TestRun:
    def _dataset(self, tmp_path, frames=20, seed=71):
        seq = SequenceSpec(frames=frames, layout="sparse", sparse_count=2, seed=seed)
        out = tmp_path / "stream"
        write_dataset(seq, out)
        (out / "truth.csv").unlink()
        return out

    def test_end_to_end_run(self, tmp_path, capsys):
        ds = self._dataset(tmp_path)
        model = _ridge_law_model(tmp_path)
        out_dir = tmp_path / "annotated"
        log = tmp_path / "readings.csv"
        code = run_cli(
            "run", str(ds), "--model", str(model), "--detector", "blob", *BLOB_FLAGS,
            "--out", str(out_dir), "--log", str(log),
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "frames=20" in stdout
        assert len(list(out_dir.glob("out_*.ppm"))) == 20
        assert len(log.read_text().splitlines()) == 1 + 40
        annotated = load_frame(out_dir / "out_000000.ppm")
        assert annotated.channels == 3

    def test_no_overlay_writes_plain_frames(self, tmp_path):
        ds = self._dataset(tmp_path, frames=3)
        model = _ridge_law_model(tmp_path)
        out_dir, log = tmp_path / "plain", tmp_path / "readings.csv"
        code = run_cli(
            "run", str(ds), "--model", str(model), *BLOB_FLAGS, "--no-overlay",
            "--out", str(out_dir), "--log", str(log),
        )
        assert code == 0
        assert len(log.read_text().splitlines()) == 1 + 6
        for position, path in enumerate(frameio.list_frame_paths(ds)):
            written = load_frame(out_dir / f"out_{position:06d}.ppm")
            assert np.array_equal(written.pixels, gray_to_bgr(load_frame(path)).pixels)

    def test_missing_model_fails_before_frames(self, tmp_path, capsys):
        ds = self._dataset(tmp_path, frames=2)
        code = run_cli("run", str(ds), "--model", str(tmp_path / "absent.json"))
        assert code == 3
        assert "model file not found" in capsys.readouterr().err

    def test_non_object_model_is_data_error(self, tmp_path, capsys):
        ds = self._dataset(tmp_path, frames=2)
        model = tmp_path / "list.json"
        model.write_text("[1, 2]\n")
        code = run_cli("run", str(ds), "--model", str(model))
        assert code == 3
        assert "list.json: not a thermotrack-model document" in capsys.readouterr().err

    def test_stdin_path_source(self, tmp_path, capsys, monkeypatch):
        ds = self._dataset(tmp_path, frames=3)
        model = _ridge_law_model(tmp_path)
        paths = sorted(str(p) for p in ds.glob("*.pgm"))
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(paths) + "\n"))
        code = run_cli("run", "-", "--model", str(model), "--detector", "blob", *BLOB_FLAGS)
        assert code == 0
        assert "frames=3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--min-bbox-area", "nan"],
            ["--blob-max-aspect", "nan"],
            ["--fever-threshold", "nan"],
        ],
        ids=["min-bbox-area", "blob-max-aspect", "fever-threshold"],
    )
    def test_nan_flag_is_data_error(self, tmp_path, capsys, flags):
        ds = self._dataset(tmp_path, frames=2)
        model = _ridge_law_model(tmp_path)
        log = tmp_path / "readings.csv"
        code = run_cli("run", str(ds), "--model", str(model), *BLOB_FLAGS, *flags, "--log", str(log))
        assert code == 3
        assert "nan" in capsys.readouterr().err
        assert not log.exists()

    def test_zero_adapter_timeout_is_data_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        ds = self._dataset(tmp_path, frames=2)
        model = _ridge_law_model(tmp_path)
        command = shlex.join([sys.executable, str(STUB)])
        code = run_cli(
            "run", str(ds), "--model", str(model), "--detector", f"external:{command}",
            "--adapter-timeout", "0",
        )
        assert code == 3
        assert "response_timeout_s" in capsys.readouterr().err
        assert not list(tmp_path.glob("thermotrack-adapter-*"))

    def test_stdin_frames_processed_as_they_arrive(self, tmp_path, capsys, monkeypatch):
        ds = self._dataset(tmp_path, frames=2)
        model = _ridge_law_model(tmp_path)
        out_dir = tmp_path / "annotated"
        first, second = sorted(str(p) for p in ds.glob("*.pgm"))

        def live_producer():
            yield "\n"
            yield first + "\n"
            # The pipe stays open: the first frame must be out before the next line.
            assert (out_dir / "out_000000.ppm").exists()
            yield second + "\n"

        monkeypatch.setattr("sys.stdin", live_producer())
        code = run_cli("run", "-", "--model", str(model), *BLOB_FLAGS, "--out", str(out_dir))
        assert code == 0
        assert "frames=2" in capsys.readouterr().out

    def test_blob_run_decodes_each_frame_once(self, tmp_path, monkeypatch):
        ds = self._dataset(tmp_path, frames=12)
        model = _ridge_law_model(tmp_path)
        loads = _count_loads(monkeypatch)
        assert run_cli("run", str(ds), "--model", str(model), *BLOB_FLAGS) == 0
        assert len(loads) == 12

    def test_replay_run_decodes_each_frame_once(self, tmp_path, monkeypatch):
        ds = self._dataset(tmp_path, frames=12)
        model = _ridge_law_model(tmp_path)
        # Reference: the replay run re-reading every frame from its path.
        reference = PipelineConfig(log_path=tmp_path / "ref.csv", output_dir=tmp_path / "ref")
        replay = ReplayDetector({item.frame.source_id: item.labels for item in pair_frames_with_labels(ds)})
        pipeline.run_stream(frameio.list_frame_paths(ds), replay, load_model(model), reference)
        loads = _count_loads(monkeypatch)
        out_dir, log = tmp_path / "out", tmp_path / "readings.csv"
        code = run_cli(
            "run", str(ds), "--model", str(model), "--detector", "replay",
            "--out", str(out_dir), "--log", str(log),
        )
        assert code == 0
        assert len(loads) == 12
        assert log.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        frames = sorted(p.name for p in out_dir.iterdir())
        assert frames == sorted(p.name for p in (tmp_path / "ref").iterdir())
        assert len(frames) == 12
        for name in frames:
            assert (out_dir / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_replay_run_memory_does_not_grow_with_frames(self, tmp_path):
        ds = _dataset_640(tmp_path)
        model = _ridge_law_model(tmp_path)
        log = tmp_path / "readings.csv"
        code, peak = traced_call(
            run_cli, "run", str(ds), "--model", str(model), "--detector", "replay", "--log", str(log)
        )
        assert code == 0
        assert len(log.read_text().splitlines()) == 1 + 40
        assert peak < THREE_BGR_640

    def test_summary_counts_skipped_frame(self, tmp_path, capsys):
        ds = self._dataset(tmp_path, frames=3)
        (ds / "frame_000001.pgm").write_bytes(b"P5\n160 120\n255\n\x00")
        model = _ridge_law_model(tmp_path)
        assert run_cli("run", str(ds), "--model", str(model), *BLOB_FLAGS) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "frames=2" in lines and "errors=1" in lines

    @pytest.mark.parametrize("detector", [["--detector", "replay"], BLOB_FLAGS], ids=["replay", "blob"])
    def test_corrupt_frame_skipped(self, tmp_path, capsys, detector):
        ds = self._dataset(tmp_path, frames=6)
        (ds / "frame_000002.pgm").write_bytes(b"P5\n160 120\n255\n\x00")
        model = _ridge_law_model(tmp_path)
        log = tmp_path / "readings.csv"
        code = run_cli("run", str(ds), "--model", str(model), *detector, "--log", str(log))
        assert code == 0
        assert "frames=5" in capsys.readouterr().out
        rows = log.read_text().splitlines()[1:]
        assert sorted(int(row.split(",")[0]) for row in rows) == [0, 0, 1, 1, 3, 3, 4, 4, 5, 5]

    def test_model_number_beyond_float_is_data_error(self, tmp_path, capsys):
        ds = self._dataset(tmp_path, frames=2)
        model = tmp_path / "huge.json"
        params = {"intercept": 10**400, "slope": 0.1}
        model.write_text(json.dumps({"format": "thermotrack-model", "version": 1, "kind": "ridge", "params": params}))
        code = run_cli("run", str(ds), "--model", str(model), *BLOB_FLAGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "intercept" in err
        assert "Traceback" not in err

    def test_frameless_directory_replay_is_data_error(self, tmp_path, capsys):
        png = _png_dataset(tmp_path)
        model = _ridge_law_model(tmp_path)
        log = tmp_path / "readings.csv"
        code = run_cli("run", str(png), "--model", str(model), "--detector", "replay", "--log", str(log))
        assert code == 3
        _assert_names_frameless(capsys.readouterr().err, png)
        assert not log.exists()

    def test_frameless_directory_blob_reads_no_labels(self, tmp_path, capsys):
        png = _png_dataset(tmp_path)
        model = _ridge_law_model(tmp_path)
        assert run_cli("run", str(png), "--model", str(model), *BLOB_FLAGS) == 0
        assert "frames=0" in capsys.readouterr().out.splitlines()

    def test_bad_threshold_launches_no_adapter(self, tmp_path, capsys, monkeypatch):
        launched = _record_adapter_launches(monkeypatch)
        ds = self._dataset(tmp_path, frames=2)
        model = _ridge_law_model(tmp_path)
        detector = f"external:{shlex.join([sys.executable, str(STUB)])}"
        code = run_cli("run", str(ds), "--model", str(model), "--detector", detector, "--conf-threshold", "2")
        assert code == 3
        assert "confidence_threshold" in capsys.readouterr().err
        assert launched == []

    def test_replay_detector_needs_directory(self, tmp_path, capsys, monkeypatch):
        model = _ridge_law_model(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = run_cli("run", "-", "--model", str(model), "--detector", "replay")
        assert code == 3

    def test_sigterm_handler_restored_after_main(self, tmp_path):
        ds = self._dataset(tmp_path, frames=2)
        model = _ridge_law_model(tmp_path)
        before = signal.getsignal(signal.SIGTERM)
        assert run_cli("run", str(ds), "--model", str(model), *BLOB_FLAGS) == 0
        assert signal.getsignal(signal.SIGTERM) is before

    @pytest.mark.parametrize("command", ["run", "eval-detector"])
    def test_sigterm_closes_log_and_adapter(self, tmp_path, command):
        """SIGTERM mid-stream exits 143 after the finally blocks ran: the
        adapter's scratch directory is gone and every logged row is whole."""
        ds = self._dataset(tmp_path)
        scratch = tmp_path / "tmpdir"
        scratch.mkdir()
        log = tmp_path / "readings.csv"
        detector = f"external:{shlex.join([sys.executable, str(STUB), 'slow', '0.2'])}"
        argv = [command, str(ds), "--detector", detector]
        if command == "run":
            argv += ["--model", str(_ridge_law_model(tmp_path)), "--log", str(log)]
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "TMPDIR": str(scratch)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "thermotrack.cli", *argv],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # run: the first reading row; eval-detector has no log, so a pending request file.
            def started():
                if command == "eval-detector":
                    return any(scratch.glob("thermotrack-adapter-*/frame-*"))
                return log.exists() and log.read_text().count("\n") >= 2

            deadline = time.monotonic() + 30
            while not started() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert proc.poll() is None, "the run ended before it was signalled"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 143
        finally:
            proc.kill()
            proc.wait()
        assert not list(scratch.iterdir())
        if command == "run":
            text = log.read_text()
            assert text.endswith("\n")
            rows = text.splitlines()
            assert rows[0] == LOG_CSV_HEADER and len(rows) >= 2
            assert all(len(row.split(",")) == len(LOG_CSV_HEADER.split(",")) for row in rows)


class TestConfigLayering:
    """A --config value fills in an unset flag, a flag beats it, and a key
    that neither sets leaves the library default in place."""

    RUN_CONFIG = """[run]
conf_threshold = 0.3
nms_threshold = 0.5
blob_threshold = 31
blob_min_area = 41
blob_max_aspect = 3.0
min_bbox_area = 50
decimals = 2
fever_threshold = 37.5
"""

    def _dataset(self, tmp_path, frames=2):
        seq = SequenceSpec(frames=frames, layout="sparse", sparse_count=2, seed=73)
        out = tmp_path / "ds"
        write_dataset(seq, out)
        (out / "truth.csv").unlink()
        return out

    def _config(self, tmp_path, text):
        path = tmp_path / "tt.cfg"
        path.write_text(text)
        return path

    def test_run_section_reaches_built_configs(self, tmp_path, monkeypatch):
        seen = _capture_run(monkeypatch)
        cfg = self._config(tmp_path, self.RUN_CONFIG)
        model = _ridge_law_model(tmp_path)
        assert run_cli("--config", str(cfg), "run", str(self._dataset(tmp_path)), "--model", str(model)) == 0
        assert seen["detector"].config == DetectorConfig(0.3, 0.5, 31, 41, 3.0)
        assert seen["cfg"] == PipelineConfig(min_bbox_area=50.0, overlay_decimals=2, fever_threshold_c=37.5)

    def test_eval_detector_section_reaches_detector(self, tmp_path, monkeypatch):
        built = _capture_blob_configs(monkeypatch)
        cfg = self._config(tmp_path, "[eval-detector]\nconf_threshold = 0.3\nblob_min_area = 41\n")
        ds = self._dataset(tmp_path)
        code = run_cli("--config", str(cfg), "eval-detector", str(ds), "--out-prefix", str(tmp_path / "e"))
        assert code == 0
        assert built == [DetectorConfig(confidence_threshold=0.3, min_blob_area=41)]

    def test_run_flags_beat_config(self, tmp_path, monkeypatch):
        seen = _capture_run(monkeypatch)
        cfg = self._config(tmp_path, self.RUN_CONFIG)
        model = _ridge_law_model(tmp_path)
        code = run_cli(
            "--config", str(cfg), "run", str(self._dataset(tmp_path)), "--model", str(model),
            "--conf-threshold", "0.4", "--blob-min-area", "9", "--decimals", "3",
        )
        assert code == 0
        assert seen["detector"].config == DetectorConfig(0.4, 0.5, 31, 9, 3.0)
        assert seen["cfg"] == PipelineConfig(min_bbox_area=50.0, overlay_decimals=3, fever_threshold_c=37.5)

    def test_eval_detector_flag_beats_config(self, tmp_path, monkeypatch):
        built = _capture_blob_configs(monkeypatch)
        cfg = self._config(tmp_path, "[eval-detector]\nconf_threshold = 0.3\n")
        code = run_cli(
            "--config", str(cfg), "eval-detector", str(self._dataset(tmp_path)),
            "--conf-threshold", "0.4", "--out-prefix", str(tmp_path / "e"),
        )
        assert code == 0
        assert built == [DetectorConfig(confidence_threshold=0.4)]

    @pytest.mark.parametrize(
        "config_text",
        [None, "[run]\n", "[eval-detector]\nconf_threshold = 0.3\n[calibrate]\nfolds = 4\n"],
        ids=["no-config", "empty-section", "other-sections"],
    )
    def test_nothing_set_takes_library_defaults(self, tmp_path, monkeypatch, config_text):
        seen = _capture_run(monkeypatch)
        model = _ridge_law_model(tmp_path)
        argv = ["run", str(self._dataset(tmp_path)), "--model", str(model)]
        if config_text is not None:
            argv = ["--config", str(self._config(tmp_path, config_text)), *argv]
        assert run_cli(*argv) == 0
        assert seen["detector"].config == DetectorConfig()
        assert seen["cfg"] == PipelineConfig()

    def test_replay_keeps_its_own_nms_default(self, tmp_path, monkeypatch):
        seen = _capture_run(monkeypatch)
        model = _ridge_law_model(tmp_path)
        code = run_cli("run", str(self._dataset(tmp_path)), "--model", str(model), "--detector", "replay")
        assert code == 0
        assert seen["detector"].config == DetectorConfig(nms_iou_threshold=REPLAY_NMS_IOU)

    @pytest.mark.parametrize("config_text", ["", "adapter_timeout = 1.5\n"], ids=["unset", "set"])
    def test_adapter_timeout_from_config(self, tmp_path, monkeypatch, config_text):
        seen = _capture_run(monkeypatch)
        command = shlex.join([sys.executable, str(STUB)])
        cfg = self._config(tmp_path, f"[run]\ndetector = external:{command}\n{config_text}")
        model = _ridge_law_model(tmp_path)
        assert run_cli("--config", str(cfg), "run", str(self._dataset(tmp_path)), "--model", str(model)) == 0
        expected = 1.5 if config_text else inspect.signature(ExternalAdapter).parameters["response_timeout_s"].default
        assert seen["detector"].adapter.response_timeout_s == expected

    @pytest.mark.parametrize(
        "config_text, global_flags, flags, header",
        [
            (None, [], [], "folds={k_folds} seed={seed}"),
            ("[calibrate]\nfolds = 4\n", ["--seed", "3"], [], "folds=4 seed=3"),
            ("[calibrate]\nfolds = 4\n", [], ["--folds", "3"], "folds=3 seed={seed}"),
        ],
        ids=["unset", "config-and-seed", "flag-beats-config"],
    )
    def test_calibrate_folds_and_seed(self, tmp_path, config_text, global_flags, flags, header):
        defaults = {name: p.default for name, p in inspect.signature(grid_search).parameters.items()}
        csv_path = tmp_path / "cal.csv"
        save_calibration_csv(generate_calibration_set(60, beta0=20.0, beta1=0.1, seed=5), csv_path)
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"linear": [{}]}))
        if config_text is not None:
            global_flags = ["--config", str(self._config(tmp_path, config_text)), *global_flags]
        code = run_cli(
            *global_flags, "calibrate", str(csv_path), "--out", str(tmp_path / "m.json"),
            "--grids", str(grids), *flags,
        )
        assert code == 0
        first_line = (tmp_path / "m.json.report.txt").read_text().splitlines()[0]
        assert first_line.endswith(header.format(**defaults))

    def test_bad_config_value_names_the_key(self, tmp_path, capsys):
        cfg = self._config(tmp_path, "[run]\ndecimals = x\n")
        model = _ridge_law_model(tmp_path)
        code = run_cli("--config", str(cfg), "run", str(self._dataset(tmp_path)), "--model", str(model))
        assert code == 3
        assert "config [run] decimals" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "eval-detector"])
    @pytest.mark.parametrize(
        "detector, flags, ignored",
        [
            ("replay", ["--blob-threshold", "32"], "--blob-threshold"),
            ("replay", ["--adapter-timeout", "1.5"], "--adapter-timeout"),
            ("blob", ["--blob-min-area", "40", "--adapter-timeout", "1.5"], "--adapter-timeout"),
            ("external", ["--adapter-timeout", "1.5", "--blob-max-aspect", "3.0"], "--blob-max-aspect"),
        ],
    )
    def test_flag_the_detector_ignores_is_data_error(
        self, tmp_path, capsys, monkeypatch, command, detector, flags, ignored
    ):
        launched = []
        monkeypatch.setattr(cli, "ExternalAdapter", lambda *a, **kw: launched.append(a))
        spec = f"external:{shlex.join([sys.executable, str(STUB)])}" if detector == "external" else detector
        argv = [command, str(self._dataset(tmp_path)), "--detector", spec, *flags]
        if command == "run":
            argv += ["--model", str(_ridge_law_model(tmp_path))]
        assert run_cli(*argv) == 3
        assert f"{ignored} does not apply to the {detector} detector" in capsys.readouterr().err
        assert launched == []

    @pytest.mark.parametrize("command", ["run", "eval-detector"])
    def test_empty_detector_is_data_error(self, tmp_path, capsys, command):
        cfg = self._config(tmp_path, f"[{command}]\ndetector =\n")
        argv = ["--config", str(cfg), command, str(self._dataset(tmp_path))]
        if command == "run":
            argv += ["--model", str(_ridge_law_model(tmp_path))]
        assert run_cli(*argv) == 3
        assert "unknown detector ''" in capsys.readouterr().err
