import numpy as np
import pytest

from _oracles import max_pixel_scan, strict_local_maxima
from thermotrack.annotations import denormalize, parse_yolo_text, serialize_yolo
from thermotrack.frameio import pair_frames_with_labels
from thermotrack.pipeline import extract_max_pixel
from thermotrack.synthscene import (
    FaceSpec,
    SceneSpec,
    SequenceSpec,
    generate,
    generate_calibration_set,
    generate_sequence,
    load_sequence_spec,
    peak_intensity,
    write_dataset,
)


def _dense_spec(n_faces=12, seed=5):
    seq = SequenceSpec(frames=1, layout="dense", dense_min=n_faces, dense_max=n_faces, seed=seed)
    frame, labels, temps = next(generate_sequence(seq))
    return seq, frame, labels, temps


class TestGenerate:
    def test_single_face_peak_is_inverse_of_the_line(self):
        spec = SceneSpec(
            background_level=40,
            noise_amplitude=5,
            faces=[FaceSpec(80, 60, 10, 12, 36.6)],
            beta0=20.0,
            beta1=0.1,
            seed=3,
        )
        frame, labels, temps = generate(spec)
        assert peak_intensity(36.6, 20.0, 0.1) == 166
        roi = denormalize(labels[0].bbox, frame.width, frame.height)
        assert extract_max_pixel(frame, roi) == 166
        assert frame.pixels[60, 80] == 166  # the peak pixel sits at the face center
        assert temps == [36.6]

    def test_no_faces_is_pure_noise(self):
        spec = SceneSpec(faces=[], seed=11)
        frame, labels, temps = generate(spec)
        assert labels == [] and temps == []
        assert frame.pixels.max() <= spec.background_level + spec.noise_amplitude
        assert frame.pixels.min() >= spec.background_level - spec.noise_amplitude

    def test_deterministic_per_seed(self):
        spec = SceneSpec(faces=[FaceSpec(50, 50, 8, 8, 35.0)], seed=9)
        a, _, _ = generate(spec)
        b, _, _ = generate(spec)
        assert np.array_equal(a.pixels, b.pixels)

    def test_out_of_range_inversion_rejected(self):
        # 26 C inverts to intensity 60 under (20, 0.1)... fine; but a cold
        # target under a high background must be refused.
        spec = SceneSpec(
            background_level=100,
            noise_amplitude=5,
            faces=[FaceSpec(50, 50, 8, 8, 26.0)],
            beta0=20.0,
            beta1=0.1,
        )
        with pytest.raises(ValueError, match="outside"):
            generate(spec)

    @pytest.mark.parametrize(
        "cx, cy", [(2, 60), (80, 2), (158, 60), (80, 118)], ids=["left", "top", "right", "bottom"]
    )
    def test_face_overflowing_frame_rejected(self, cx, cy):
        with pytest.raises(ValueError, match=rf"face at \({cx}, {cy}\) overflows the frame"):
            generate(SceneSpec(faces=[FaceSpec(cx, cy, 8, 8, 36.0)]))

    def test_face_touching_every_edge_accepted(self):
        _, labels, _ = generate(SceneSpec(faces=[FaceSpec(8, 8, 8, 8, 36.0), FaceSpec(151, 111, 8, 8, 36.0)]))
        assert len(labels) == 2

    def test_labels_round_trip_through_label_files(self):
        _, _, labels, _ = (None, *_dense_spec(seed=21)[1:])
        boxes = [lab.bbox for lab in labels]
        parsed = parse_yolo_text(serialize_yolo(boxes))
        for original, back in zip(boxes, parsed):
            assert back.cx == pytest.approx(original.cx, abs=1e-6)
            assert back.cy == pytest.approx(original.cy, abs=1e-6)
            assert back.w == pytest.approx(original.w, abs=1e-6)
            assert back.h == pytest.approx(original.h, abs=1e-6)


class TestDenseScenes:
    def test_twelve_faces_twelve_labels_twelve_maxima(self):
        seq, frame, labels, temps = _dense_spec(12)
        assert len(labels) == 12 and len(temps) == 12
        floor = seq.background_level + seq.noise_amplitude
        maxima = strict_local_maxima(frame.pixels, floor)
        assert len(maxima) == 12

    def test_every_face_peak_recoverable_from_its_bbox(self):
        seq, frame, labels, temps = _dense_spec(15, seed=8)
        for label, temp in zip(labels, temps):
            roi = denormalize(label.bbox, frame.width, frame.height)
            expected_peak = peak_intensity(temp, seq.beta0, seq.beta1)
            assert extract_max_pixel(frame, roi) == expected_peak
            assert max_pixel_scan(frame.pixels, roi.x1, roi.y1, roi.x2, roi.y2) == expected_peak

    def test_too_many_faces_for_frame_rejected(self):
        seq = SequenceSpec(frames=1, layout="dense", dense_min=200, dense_max=200)
        with pytest.raises(ValueError, match="fit"):
            next(generate_sequence(seq))


class TestSequence:
    def test_mix_alternates_sparse_dense(self):
        seq = SequenceSpec(frames=4, layout="mix", sparse_count=3, dense_min=12, dense_max=12, seed=2)
        counts = [len(labels) for _, labels, _ in generate_sequence(seq)]
        assert counts == [3, 12, 3, 12]

    def test_sequence_deterministic(self):
        seq = SequenceSpec(frames=3, seed=17)
        first = [frame.pixels.copy() for frame, _, _ in generate_sequence(seq)]
        second = [frame.pixels.copy() for frame, _, _ in generate_sequence(seq)]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_frame_indices_are_sequential(self):
        seq = SequenceSpec(frames=5, seed=1)
        indices = [frame.frame_index for frame, _, _ in generate_sequence(seq)]
        assert indices == [0, 1, 2, 3, 4]


class TestCalibrationSet:
    def test_statistics_and_range(self):
        samples = generate_calibration_set(100, beta0=20.0, beta1=0.1, seed=4)
        temps = np.array([s.temperature_c for s in samples])
        assert len(samples) == 100
        assert 35.0 <= temps.mean() <= 38.0
        assert temps.min() >= 25.8
        assert temps.max() <= 38.8
        assert all(0.0 <= s.max_pixel <= 255.0 for s in samples)

    def test_same_seed_identical(self):
        a = generate_calibration_set(50, 20.0, 0.1, seed=6)
        b = generate_calibration_set(50, 20.0, 0.1, seed=6)
        assert a == b

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            generate_calibration_set(5, 20.0, 0.1, seed=0)


class TestSpecFileAndDataset:
    SPEC_TEXT = """
[scene]
width = 160
height = 120
frames = 4
background_level = 20
noise_amplitude = 4
beta0 = 20.0
beta1 = 0.1
seed = 13

[faces]
layout = mix
sparse_count = 3
dense_min = 12
dense_max = 13
temp_min_c = 34.0
temp_max_c = 38.0
"""

    def test_load_sequence_spec(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(self.SPEC_TEXT)
        seq = load_sequence_spec(path)
        assert seq.frames == 4
        assert seq.layout == "mix"
        assert seq.dense_max == 13
        assert seq.beta1 == 0.1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("[scene]\nwormholes = 3\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_sequence_spec(path)

    @pytest.mark.parametrize(
        "text, key, section",
        [("[scene]\nlayout = sparse\n", "layout", "scene"), ("[faces]\nwidth = 64\n", "width", "faces")],
    )
    def test_key_of_the_other_section_rejected(self, tmp_path, text, key, section):
        path = tmp_path / "scene.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"unknown key '{key}' in \[{section}\]"):
            load_sequence_spec(path)

    def test_values_take_the_type_of_their_default(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("[faces]\ntemp_min_c = 33\n")
        seq = load_sequence_spec(path)
        assert type(seq.temp_min_c) is float and seq.temp_min_c == 33.0
        path.write_text("[scene]\nframes = 2.5\n")
        with pytest.raises(ValueError, match="bad value '2.5' for frames"):
            load_sequence_spec(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_sequence_spec(tmp_path / "nope.cfg")

    def test_write_dataset_is_pair_loadable(self, tmp_path):
        seq = SequenceSpec(frames=3, layout="sparse", sparse_count=2, seed=23)
        out = tmp_path / "ds"
        assert write_dataset(seq, out) == 3
        items = list(pair_frames_with_labels(out))
        assert len(items) == 3
        assert all(len(item.labels) == 2 for item in items)
        truth_lines = (out / "truth.csv").read_text().splitlines()
        assert truth_lines[0] == "frame_index,face_id,x1,y1,x2,y2,temperature_c"
        assert len(truth_lines) == 1 + 3 * 2

    def test_write_dataset_deterministic(self, tmp_path):
        seq = SequenceSpec(frames=2, seed=31)
        write_dataset(seq, tmp_path / "a")
        write_dataset(seq, tmp_path / "b")
        for name in ("frame_000000.pgm", "frame_000001.txt", "truth.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
