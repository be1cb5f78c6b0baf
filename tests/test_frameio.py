import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import netpbm_header_scan, resize_all_at_once
from conftest import bgr_frame, gray_frame, peak_traced_bytes
from thermotrack import frameio
from thermotrack.annotations import GroundTruthLabel, NormBBox
from thermotrack.frameio import (
    DatasetItem,
    FrameFormatError,
    ThermalFrame,
    bgr_to_grayscale,
    gray_to_bgr,
    horizontal_flip,
    load_frame,
    _parse_netpbm,
    pair_frames_with_labels,
    read_labels,
    resize,
    save_frame,
    save_item,
)


DATA = Path(__file__).parent / "data"
RESIZE_PINS = json.loads((DATA / "resize_pins.json").read_text())
GRAYSCALE_PINS = json.loads((DATA / "grayscale_pins.json").read_text())
MIB = 1 << 20


def _dims(text):
    width, height = text.split("x")
    return int(width), int(height)


def _seeded_pixels(seed, width, height, channels):
    shape = (height, width) if channels == 1 else (height, width, 3)
    return np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)


def _sha256(pixels):
    return hashlib.sha256(np.ascontiguousarray(pixels).tobytes()).hexdigest()


class TestFrameType:
    @pytest.mark.parametrize(
        "shape", [(5,), (4, 6, 1), (4, 6, 4), (0, 6), (4, 0), (2, 3, 3, 1)], ids=lambda s: "x".join(map(str, s))
    )
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            ThermalFrame(np.zeros(shape, dtype=np.uint8))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ValueError, match="uint8"):
            ThermalFrame(np.zeros((10, 10), dtype=np.float32))

    def test_dims_and_channels_follow_shape(self):
        gray = ThermalFrame(np.zeros((4, 6), dtype=np.uint8))
        bgr = ThermalFrame(np.zeros((4, 6, 3), dtype=np.uint8))
        assert (gray.width, gray.height, gray.channels) == (6, 4, 1)
        assert (bgr.width, bgr.height, bgr.channels) == (6, 4, 3)

    def test_negative_frame_index_rejected(self):
        with pytest.raises(ValueError, match="frame_index"):
            ThermalFrame(np.zeros((4, 6), dtype=np.uint8), frame_index=-1)


class TestNetpbm:
    def test_ppm_round_trip_native_resolution(self, tmp_path, rng):
        pixels = rng.integers(0, 256, (120, 160, 3), dtype=np.uint8)
        frame = ThermalFrame(pixels, source_id="native")
        save_frame(frame, tmp_path / "native.ppm")
        back = load_frame(tmp_path / "native.ppm")
        assert (back.width, back.height, back.channels) == (160, 120, 3)
        assert np.array_equal(back.pixels, pixels)

    def test_pgm_round_trip(self, tmp_path, rng):
        pixels = rng.integers(0, 256, (7, 9), dtype=np.uint8)
        save_frame(ThermalFrame(pixels), tmp_path / "img.pgm")
        back = load_frame(tmp_path / "img.pgm")
        assert np.array_equal(back.pixels, pixels)
        assert back.source_id == "img"

    def test_zero_byte_file_is_malformed(self, tmp_path):
        empty = tmp_path / "broken.pgm"
        empty.write_bytes(b"")
        with pytest.raises(FrameFormatError):
            load_frame(empty)

    def test_truncated_raster_is_malformed(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(FrameFormatError):
            load_frame(path)

    def test_comment_in_header_is_fine(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
        frame = load_frame(path)
        assert frame.pixels.tolist() == [[1, 2], [3, 4]]

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(FrameFormatError):
            load_frame(path)

    def test_file_is_header_then_raster(self, tmp_path, rng):
        pixels = rng.integers(0, 256, (5, 4, 3), dtype=np.uint8)
        save_frame(ThermalFrame(pixels), tmp_path / "f.ppm")
        assert (tmp_path / "f.ppm").read_bytes() == b"P6\n4 5\n255\n" + pixels.tobytes()

    def test_non_contiguous_frame_written_in_row_order(self, tmp_path, rng):
        pixels = rng.integers(0, 256, (6, 9), dtype=np.uint8)
        mirrored = ThermalFrame(pixels[:, ::-1])
        assert not mirrored.pixels.flags.c_contiguous
        save_frame(mirrored, tmp_path / "m.pgm")
        back = load_frame(tmp_path / "m.pgm")
        assert np.array_equal(back.pixels, pixels[:, ::-1])

    def test_loaded_pixels_are_writable_and_owned(self, tmp_path, rng):
        pixels = rng.integers(0, 256, (6, 9, 3), dtype=np.uint8)
        save_frame(ThermalFrame(pixels), tmp_path / "w.ppm")
        back = load_frame(tmp_path / "w.ppm")
        assert back.pixels.flags.writeable and back.pixels.flags.c_contiguous
        back.pixels[0, 0] = 0


class TestGrayscale:
    def test_pure_red_pixel(self):
        frame = bgr_frame(1, 1, (0, 0, 255))
        assert bgr_to_grayscale(frame).pixels[0, 0] == 76  # 0.299 * 255 rounded

    def test_gray_input_is_fixed_point(self):
        for value in (0, 1, 77, 128, 254, 255):
            frame = bgr_frame(2, 2, (value, value, value))
            assert int(bgr_to_grayscale(frame).pixels[0, 0]) == value

    def test_white_maps_to_white(self):
        frame = bgr_frame(1, 1, (255, 255, 255))
        assert bgr_to_grayscale(frame).pixels[0, 0] == 255

    def test_double_convert_is_an_error(self):
        with pytest.raises(ValueError):
            bgr_to_grayscale(gray_frame(2, 2))

    def test_replication_matches_repeat_and_copies(self, rng):
        gray = ThermalFrame(rng.integers(0, 256, (13, 17), dtype=np.uint8))
        bgr = gray_to_bgr(gray)
        expected = np.repeat(gray.pixels[..., None], 3, 2)
        assert bgr.pixels.dtype == expected.dtype and bgr.pixels.flags.c_contiguous
        assert np.array_equal(bgr.pixels, expected)
        assert not np.shares_memory(bgr.pixels, gray.pixels)

    def test_replication_round_trip_is_identity(self, rng):
        gray = ThermalFrame(rng.integers(0, 256, (13, 17), dtype=np.uint8))
        back = bgr_to_grayscale(gray_to_bgr(gray))
        assert np.array_equal(back.pixels, gray.pixels)

    @pytest.mark.parametrize("case", sorted(GRAYSCALE_PINS))
    def test_output_pinned(self, case):
        """sha256 of gray frames from seeded BGR frames, recorded when the
        conversion still made a float copy of the whole frame."""
        pin = GRAYSCALE_PINS[case]
        pixels = _seeded_pixels(pin["seed"], *_dims(case.split("-")[1]), channels=3)
        assert _sha256(bgr_to_grayscale(ThermalFrame(pixels)).pixels) == pin["sha256"]

    def test_peak_memory_at_640(self, rng):
        frame = ThermalFrame(rng.integers(0, 256, (640, 640, 3), dtype=np.uint8))
        assert peak_traced_bytes(bgr_to_grayscale, frame) <= 8 * MIB


class TestResize:
    def test_native_to_training_size(self, rng):
        frame = ThermalFrame(rng.integers(0, 256, (120, 160, 3), dtype=np.uint8))
        out = resize(frame, 640, 640)
        assert (out.width, out.height, out.channels) == (640, 640, 3)

    def test_identity_resize_is_bit_identical(self, rng):
        pixels = rng.integers(0, 256, (9, 11), dtype=np.uint8)
        frame = ThermalFrame(pixels)
        out = resize(frame, 11, 9)
        assert np.array_equal(out.pixels, pixels)

    def test_constant_field_stays_constant(self):
        frame = gray_frame(2, 2, value=173)
        for tw, th in ((1, 1), (3, 5), (64, 64), (640, 640)):
            out = resize(frame, tw, th)
            assert np.all(out.pixels == 173)

    def test_values_stay_within_input_range(self, rng):
        pixels = rng.integers(40, 201, (12, 12), dtype=np.uint8)
        out = resize(ThermalFrame(pixels), 50, 30)
        assert out.pixels.min() >= pixels.min()
        assert out.pixels.max() <= pixels.max()

    def test_bad_target_dims(self):
        with pytest.raises(ValueError):
            resize(gray_frame(4, 4), 0, 10)

    @pytest.mark.parametrize("dims", [(6.5, 4), (4, 6.0), (True, 2), (2, False), ("4", 4), (None, 4), (np.float64(4), 4)])
    def test_non_integer_target_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="integers"):
            resize(gray_frame(4, 4), *dims)

    def test_numpy_integer_target_dims_accepted(self):
        out = resize(gray_frame(4, 4, value=9), np.int64(6), np.uint8(3))
        assert out.pixels.shape == (3, 6) and type(out.width) is int
        assert np.all(out.pixels == 9)

    @pytest.mark.parametrize("case", sorted(RESIZE_PINS))
    def test_output_pinned(self, case):
        """sha256 of resized seeded frames, recorded when ``resize`` still
        built the whole output as float arrays at once."""
        kind, source, target = case.split("-")
        pin = RESIZE_PINS[case]
        pixels = _seeded_pixels(pin["seed"], *_dims(source), channels=1 if kind == "gray" else 3)
        assert _sha256(resize(ThermalFrame(pixels), *_dims(target)).pixels) == pin["sha256"]

    def test_peak_memory_native_to_640(self, rng):
        frame = ThermalFrame(rng.integers(0, 256, (120, 160), dtype=np.uint8))
        assert peak_traced_bytes(resize, frame, 640, 640) < 4 * MIB


class TestHorizontalFlip:
    def test_label_mirrors(self):
        item = DatasetItem(gray_frame(10, 10), [GroundTruthLabel(NormBBox(0, 0.3, 0.4, 0.2, 0.2))])
        flipped = horizontal_flip(item)
        assert flipped.labels[0].bbox == NormBBox(0, 0.7, 0.4, 0.2, 0.2)

    def test_flip_twice_is_identity(self, rng):
        pixels = rng.integers(0, 256, (6, 8), dtype=np.uint8)
        item = DatasetItem(
            ThermalFrame(pixels),
            [GroundTruthLabel(NormBBox(0, 0.31, 0.42, 0.25, 0.3))],
        )
        twice = horizontal_flip(horizontal_flip(item))
        assert np.array_equal(twice.frame.pixels, pixels)
        assert twice.labels == item.labels

    def test_centered_label_is_fixed(self):
        item = DatasetItem(gray_frame(4, 4), [GroundTruthLabel(NormBBox(0, 0.5, 0.5, 0.2, 0.2))])
        assert horizontal_flip(item).labels[0].bbox.cx == 0.5

    def test_pixels_mirror(self):
        pixels = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8)
        flipped = horizontal_flip(DatasetItem(ThermalFrame(pixels)))
        assert flipped.frame.pixels.tolist() == [[3, 2, 1], [6, 5, 4]]

    def test_bgr_channels_not_swapped(self):
        frame = bgr_frame(2, 1, (10, 20, 30))
        flipped = horizontal_flip(DatasetItem(frame))
        assert flipped.frame.pixels[0, 0].tolist() == [10, 20, 30]


def _write_dataset(tmp_path, stems_with_labels):
    for stem, label_text in stems_with_labels.items():
        save_frame(gray_frame(8, 6, value=100), tmp_path / f"{stem}.pgm")
        if label_text is not None:
            (tmp_path / f"{stem}.txt").write_text(label_text)


def _count_loads(monkeypatch):
    """Record the stem of every frame decode."""
    loads = []
    real = frameio.load_frame

    def counting(path, *args, **kwargs):
        loads.append(Path(path).stem)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(frameio, "load_frame", counting)
    return loads


class TestPairing:
    def test_frame_with_two_labels(self, tmp_path):
        _write_dataset(tmp_path, {"img_001": "0 0.5 0.5 0.2 0.2\n0 0.2 0.2 0.1 0.1\n"})
        items = list(pair_frames_with_labels(tmp_path))
        assert len(items) == 1
        assert len(items[0].labels) == 2

    def test_missing_label_file_is_null_labels(self, tmp_path):
        _write_dataset(tmp_path, {"img_002": None})
        items = list(pair_frames_with_labels(tmp_path))
        assert len(items) == 1
        assert items[0].labels == []

    def test_empty_label_file_is_null_labels(self, tmp_path):
        _write_dataset(tmp_path, {"img_005": ""})
        items = list(pair_frames_with_labels(tmp_path))
        assert items[0].labels == []

    def test_orphan_label_errors(self, tmp_path):
        (tmp_path / "img_003.txt").write_text("0 0.5 0.5 0.2 0.2\n")
        with pytest.raises(ValueError, match="orphan"):
            pair_frames_with_labels(tmp_path)

    def test_frameless_directory_errors(self, tmp_path):
        (tmp_path / "frame.png").write_bytes(b"\x89PNG")
        with pytest.raises(ValueError, match="holds no .pgm/.ppm frame files"):
            read_labels(tmp_path)

    def test_decodes_one_frame_per_step(self, tmp_path, monkeypatch):
        _write_dataset(tmp_path, {"a": None, "b": "0 0.5 0.5 0.2 0.2\n", "c": None})
        loads = _count_loads(monkeypatch)
        items = pair_frames_with_labels(tmp_path)
        assert loads == []
        assert next(items).frame.source_id == "a"
        assert loads == ["a"]
        item = next(items)
        assert (item.frame.source_id, item.frame.frame_index, len(item.labels)) == ("b", 1, 1)
        assert loads == ["a", "b"]

    def test_orphan_raises_before_any_decode(self, tmp_path, monkeypatch):
        _write_dataset(tmp_path, {"a": None})
        (tmp_path / "img_003.txt").write_text("0 0.5 0.5 0.2 0.2\n")
        loads = _count_loads(monkeypatch)
        with pytest.raises(ValueError, match="orphan"):
            pair_frames_with_labels(tmp_path)
        assert loads == []

    def test_read_labels_keyed_by_stem_without_decoding(self, tmp_path):
        _write_dataset(tmp_path, {"b": None, "a": "0 0.5 0.5 0.2 0.2\n", "c": ""})
        (tmp_path / "b.pgm").write_bytes(b"not a frame")
        labels = read_labels(tmp_path)
        assert list(labels) == ["a", "b", "c"]
        assert labels["a"] == [GroundTruthLabel(NormBBox(0, 0.5, 0.5, 0.2, 0.2))]
        assert labels["b"] == labels["c"] == []

    def test_read_labels_orphan_errors(self, tmp_path):
        _write_dataset(tmp_path, {"a": None})
        (tmp_path / "img_003.txt").write_text("0 0.5 0.5 0.2 0.2\n")
        with pytest.raises(ValueError, match="orphan"):
            read_labels(tmp_path)

    def test_missing_directory_errors(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            pair_frames_with_labels(tmp_path / "absent")

    def test_duplicate_stems_error(self, tmp_path, rng):
        save_frame(gray_frame(4, 4), tmp_path / "dup.pgm")
        save_frame(bgr_frame(4, 4), tmp_path / "dup.ppm")
        with pytest.raises(ValueError, match="duplicate"):
            pair_frames_with_labels(tmp_path)

    def test_items_ordered_by_stem_and_count_matches_frames(self, tmp_path):
        _write_dataset(tmp_path, {"b": None, "a": "0 0.5 0.5 0.2 0.2\n", "c": None})
        items = list(pair_frames_with_labels(tmp_path))
        assert [item.frame.source_id for item in items] == ["a", "b", "c"]
        assert [item.frame.frame_index for item in items] == [0, 1, 2]
        assert len(items) == 3

    def test_save_item_round_trip(self, tmp_path, rng):
        gray = DatasetItem(
            ThermalFrame(rng.integers(0, 256, (6, 8), dtype=np.uint8), source_id="a_gray"),
            [
                GroundTruthLabel(NormBBox(0, 0.5, 0.5, 0.25, 0.5)),
                GroundTruthLabel(NormBBox(1, 0.25, 0.75, 0.125, 0.25)),
            ],
        )
        bgr = DatasetItem(ThermalFrame(rng.integers(0, 256, (6, 8, 3), dtype=np.uint8), source_id="b_bgr"))
        for item in (gray, bgr):
            save_item(item, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_gray.pgm", "a_gray.txt", "b_bgr.ppm", "b_bgr.txt"]
        assert (tmp_path / "b_bgr.txt").read_text() == ""
        back = list(pair_frames_with_labels(tmp_path))
        for original, loaded in zip((gray, bgr), back, strict=True):
            assert loaded.frame.source_id == original.frame.source_id
            assert np.array_equal(loaded.frame.pixels, original.frame.pixels)
            assert loaded.labels == original.labels


@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 24),
    height=st.integers(1, 24),
)
def test_flip_involution_on_random_frames(seed, width, height):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (height, width), dtype=np.uint8)
    w_u = int(rng.integers(2, 400_000))
    h_u = int(rng.integers(2, 400_000))
    cx_u = int(rng.integers(w_u // 2 + 1, 1_000_000 - w_u // 2))
    cy_u = int(rng.integers(h_u // 2 + 1, 1_000_000 - h_u // 2))
    box = NormBBox(0, cx_u / 1e6, cy_u / 1e6, w_u / 1e6, h_u / 1e6)
    item = DatasetItem(ThermalFrame(pixels), [GroundTruthLabel(box)])
    twice = horizontal_flip(horizontal_flip(item))
    assert np.array_equal(twice.frame.pixels, item.frame.pixels)
    assert twice.labels == item.labels


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    source=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    target=st.tuples(st.integers(1, 90), st.integers(1, 90)),
    channels=st.sampled_from((1, 3)),
)
@example(seed=0, source=(1, 1), target=(1, 1), channels=3)
@example(seed=1, source=(40, 1), target=(1, 90), channels=1)
@example(seed=2, source=(3, 3), target=(3, 3), channels=1)
def test_resize_matches_all_at_once_formula(seed, source, target, channels):
    pixels = _seeded_pixels(seed, *source, channels)
    out = resize(ThermalFrame(pixels), *target)
    assert np.array_equal(out.pixels, resize_all_at_once(pixels, *target))


WHITESPACE = [bytes([b]) for b in b" \t\n\r\x0b\x0c"]
# A comment: "#", any bytes but LF (whitespace and "#" included), then LF
# unless the data ends there.
comments = st.builds(
    lambda text, lf: b"#" + text + lf,
    st.binary(max_size=5).map(lambda b: b.replace(b"\n", b"")),
    st.sampled_from([b"\n", b"\n", b"\n", b""]),
)
# One whitespace byte, so tokens stay apart, then more whitespace or comments.
separators = st.builds(
    lambda first, rest: first + b"".join(rest),
    st.sampled_from(WHITESPACE),
    st.lists(st.one_of(st.sampled_from(WHITESPACE), comments), max_size=2),
)
odd_tokens = st.sampled_from([b"", b"+2", b"-2", b"2#3", b"#", b"x", b"\xff", b"0x2", b"00", b"02"])


@st.composite
def netpbm_files(draw):
    """A header of separators and tokens, some of them malformed, then a
    raster of the declared size or one byte short or long."""
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    if draw(st.integers(0, 9)) == 0:
        magic = draw(st.sampled_from([b"P4", b"P", b""]))
    width, height = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    tokens = [str(width).encode(), str(height).encode(), b"255"]
    if draw(st.integers(0, 3)) == 0:
        tokens[2] = draw(st.sampled_from([b"0255", b"254", b"65535"]))
    if draw(st.integers(0, 3)) == 0:
        tokens[draw(st.integers(0, 2))] = draw(odd_tokens)
    header = magic + draw(st.one_of(separators, comments)) + tokens[0]
    header += b"".join(draw(separators) + token for token in tokens[1:])
    header += draw(st.one_of(st.sampled_from(WHITESPACE), separators))
    size = width * height * (3 if magic == b"P6" else 1) + draw(st.sampled_from([0, 0, -1, 1]))
    return header + bytes(max(size, 0))


def _assert_parsed_as_scanner(data):
    def outcome(parse):
        try:
            return parse(data, Path("f.pgm"))
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(_parse_netpbm) == outcome(netpbm_header_scan)


@pytest.mark.parametrize(
    "data",
    [b"P5" + ws + b"2" + ws + b"1" + ws + b"255" + ws + b"\x01\x02" for ws in WHITESPACE]
    + [
        b"P5#after magic\n2 1 255\n\x01\x02",
        b"P6 1 #between\n#two\n 1 255\n\x01\x02\x03",
        b"P5 2 1 #at EOF",
        b"P5 2#3 1 255\n\x01\x02",
        b"P5 +2 1 255\n\x01\x02",
        b"P5 2 -1 255\n\x01\x02",
        b"P5  ",
        b"P5 2 1 0255\n\x01\x02",
        b"P5 2 1 254\n\x01\x02",
        b"P5 2 1 255\n\x01",
        b"P5 2 1 255\n\x01\x02\x03",
        b"P5 2 1 255",
    ],
)
def test_header_cases_parse_as_scanner(data):
    _assert_parsed_as_scanner(data)


@settings(max_examples=500, deadline=None)
@given(data=netpbm_files())
def test_header_parse_matches_byte_scanner(data):
    _assert_parsed_as_scanner(data)
