"""Thermal frame I/O and geometry: binary PGM/PPM codecs, grayscale
conversion, bilinear resize, horizontal-flip augmentation, and the dataset
layout (a frame and its same-stem label file), written and read here.

Frames are 8-bit, single-channel (gray) or three-channel (BGR byte order).
All operations are pure: they return new frames and never mutate inputs.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .annotations import GroundTruthLabel, mirrored_horizontal, parse_yolo_text, serialize_yolo

# FLIR Lepton-class native resolution.
NATIVE_WIDTH = 160
NATIVE_HEIGHT = 120

# BT.601 luma weights, (R, G, B) order.
GRAY_WEIGHTS = (0.299, 0.587, 0.114)

FRAME_SUFFIXES = (".pgm", ".ppm")
LABEL_SUFFIX = ".txt"


class FrameFormatError(ValueError):
    """A raster file is unreadable as binary PGM (P5) or PPM (P6)."""


@dataclass(eq=False)
class ThermalFrame:
    """One thermal image: an 8-bit pixel buffer and stream metadata.

    ``pixels`` has shape (height, width) for gray frames and
    (height, width, 3) for BGR frames, dtype uint8, row-major; the
    dimensions and channel count are read off that shape.
    """

    pixels: np.ndarray
    frame_index: int = 0
    source_id: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.pixels, np.ndarray) or self.pixels.dtype != np.uint8:
            raise ValueError("pixels must be a uint8 ndarray")
        shape = self.pixels.shape
        if len(shape) < 2 or shape[2:] not in ((), (3,)) or 0 in shape:
            raise ValueError(f"expected a nonempty (h, w) or (h, w, 3) array, got shape {shape}")
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be non-negative, got {self.frame_index}")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3

    def copy(self) -> "ThermalFrame":
        return replace(self, pixels=self.pixels.copy())


@dataclass
class DatasetItem:
    """A frame with its ground-truth labels; an empty label list is the valid
    null-label state for frames with nobody in view, never an error."""

    frame: ThermalFrame
    labels: list[GroundTruthLabel] = field(default_factory=list)


def _atomic_write(path: Path, *chunks) -> None:
    """Write bytes-like chunks, in order, via temp-file-and-rename."""
    # Temp file in the same directory so os.replace stays atomic.
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text via temp-file-and-rename so readers never see a
    truncated file."""
    _atomic_write(Path(path), text.encode("utf-8"))


# A header token after any whitespace and "#" comments; empty at the end.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _parse_netpbm(data: bytes, path: Path) -> tuple[int, int, int, int]:
    """Header fields and the offset of the raster: (width, height, channels, offset)."""
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise FrameFormatError(f"{path}: not a binary PGM/PPM file")
    channels = 1 if data[:2] == b"P5" else 3
    pos = 2
    fields: list[int] = []
    for _ in range(3):
        match = _HEADER_TOKEN.match(data, pos)
        token = match[1]
        if not token.isdigit():
            raise FrameFormatError(f"{path}: malformed header token {token!r}")
        fields.append(int(token))
        pos = match.end()
    width, height, maxval = fields
    if maxval != 255:
        raise FrameFormatError(f"{path}: unsupported maxval {maxval}, expected 255")
    if width <= 0 or height <= 0:
        raise FrameFormatError(f"{path}: non-positive dimensions {width}x{height}")
    pos += 1  # exactly one whitespace byte separates header from raster data
    if len(data) - pos != width * height * channels:
        raise FrameFormatError(
            f"{path}: raster holds {len(data) - pos} bytes, expected {width * height * channels}"
        )
    return width, height, channels, pos


def load_frame(path: str | Path, frame_index: int = 0) -> ThermalFrame:
    """Load a binary PGM (gray) or PPM (BGR) frame.

    Parameters
    ----------
    path : file path
    frame_index : sequence number to stamp on the frame.
    """
    path = Path(path)
    data = path.read_bytes()
    width, height, channels, offset = _parse_netpbm(data, path)
    shape = (height, width) if channels == 1 else (height, width, 3)
    # The one copy: frombuffer views the file's bytes, which are read-only.
    pixels = np.frombuffer(data, dtype=np.uint8, offset=offset).reshape(shape).copy()
    return ThermalFrame(pixels, frame_index, path.stem)


def save_frame(frame: ThermalFrame, path: str | Path) -> None:
    """Write a frame as binary PGM (1-channel) or PPM (3-channel), atomically."""
    path = Path(path)
    magic = b"P5" if frame.channels == 1 else b"P6"
    header = magic + f"\n{frame.width} {frame.height}\n255\n".encode("ascii")
    # Header, then the pixel buffer itself: no joined copy of the raster.
    _atomic_write(path, header, np.ascontiguousarray(frame.pixels))


def bgr_to_grayscale(frame: ThermalFrame) -> ThermalFrame:
    """Convert a BGR frame to gray with BT.601 luma, rounding half-up.

    Callers must not double-convert: a frame that is already single-channel
    raises ValueError.
    """
    if frame.channels != 3:
        raise ValueError("frame is already single-channel")
    px = frame.pixels
    wr, wg, wb = GRAY_WEIGHTS
    # (wr*R + wg*G) + wb*B, one float64 plane at a time: no float copy of
    # the whole three-channel frame.
    gray = np.multiply(px[:, :, 2], wr, dtype=np.float64)
    gray += wg * px[:, :, 1]
    gray += wb * px[:, :, 0]
    gray += 0.5
    np.floor(gray, out=gray)
    np.clip(gray, 0, 255, out=gray)
    return replace(frame, pixels=gray.astype(np.uint8))


def gray_to_bgr(frame: ThermalFrame) -> ThermalFrame:
    """Replicate a gray plane into the three BGR channels."""
    if frame.channels != 1:
        raise ValueError("frame is not single-channel")
    gray = frame.pixels
    return replace(frame, pixels=np.stack((gray, gray, gray), axis=-1))


# float64 cells of one block of output rows in the vertical pass of
# ``resize``: caps each of its two block arrays at 512 KB.
_RESIZE_BLOCK_CELLS = 1 << 16


def _sample_grid(target: int, source: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per output index along one axis: the two source indices it blends
    (borders replicated) and the weight of the second."""
    pos = (np.arange(target) + 0.5) * (source / target) - 0.5
    lo = np.floor(pos)
    first = lo.astype(np.int64)
    return np.clip(first, 0, source - 1), np.clip(first + 1, 0, source - 1), pos - lo


def resize(frame: ThermalFrame, target_w: int, target_h: int) -> ThermalFrame:
    """Bilinear resize with half-pixel-center sampling and replicated borders.

    Aspect-ratio distortion is accepted by design: low-resolution frames are
    stretched straight to square training sizes. Normalized labels are
    dimension-relative and therefore unaffected by resizing.

    Interpolation is written as ``a + f * (b - a)`` per axis, which keeps
    constant regions exactly constant and every output inside the input
    value range. The x pass runs over the source rows only; the y pass
    blends two of its rows into each output row, a block of rows at a time,
    so no float array of the whole output is ever held.
    """
    for dim in (target_w, target_h):
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
            raise ValueError(f"target dims must be integers, got {target_w!r}x{target_h!r}")
    if target_w <= 0 or target_h <= 0:
        raise ValueError(f"target dims must be positive, got {target_w}x{target_h}")
    target_w, target_h = int(target_w), int(target_h)
    if (target_w, target_h) == (frame.width, frame.height):
        return frame.copy()

    x0, x1, fx = _sample_grid(target_w, frame.width)
    y0, y1, fy = _sample_grid(target_h, frame.height)
    if frame.channels == 3:
        fx, fy = fx[:, None], fy[:, None, None]
    else:
        fy = fy[:, None]

    # x pass: (source height, target width[, 3]).
    rows = frame.pixels[:, x1].astype(np.float64)
    left = frame.pixels[:, x0].astype(np.float64)
    rows -= left
    rows *= fx
    rows += left
    del left

    out = np.empty((target_h, target_w) + frame.pixels.shape[2:], dtype=np.uint8)
    block = max(1, _RESIZE_BLOCK_CELLS // rows[0].size)
    for start in range(0, target_h, block):
        stop = min(start + block, target_h)
        top = rows[y0[start:stop]]
        blend = rows[y1[start:stop]]
        blend -= top
        blend *= fy[start:stop]
        blend += top
        blend += 0.5
        np.floor(blend, out=blend)
        np.clip(blend, 0, 255, out=blend)
        out[start:stop] = blend
    return replace(frame, pixels=out)


def horizontal_flip(item: DatasetItem) -> DatasetItem:
    """Mirror a frame and its labels across the vertical midline.

    Flipping twice restores the original item bit-for-bit (label centers are
    snapped to the label-file precision grid; see mirrored_horizontal).
    """
    flipped = item.frame.pixels[:, ::-1].copy()
    labels = [GroundTruthLabel(mirrored_horizontal(lab.bbox)) for lab in item.labels]
    return DatasetItem(replace(item.frame, pixels=flipped), labels)


def list_frame_paths(frames_dir: str | Path) -> list[Path]:
    """Frame files in a directory, ordered by filename stem.

    Raises ValueError when two frame files share a stem (e.g. both a .pgm
    and a .ppm): the pairing convention keys on the stem alone.
    """
    frames_dir = Path(frames_dir)
    if not frames_dir.is_dir():
        raise ValueError(f"{frames_dir} is not a directory")
    paths = sorted(
        (p for p in frames_dir.iterdir() if p.suffix.lower() in FRAME_SUFFIXES),
        key=lambda p: p.stem,
    )
    seen: dict[str, Path] = {}
    for p in paths:
        if p.stem in seen:
            raise ValueError(f"duplicate frame stem {p.stem!r}: {seen[p.stem]} and {p}")
        seen[p.stem] = p
    return paths


def read_labels(dataset_dir: str | Path) -> dict[str, list[GroundTruthLabel]]:
    """Labels of every frame file in a dataset directory, by frame stem in
    stem order, from the same-stem label files; no frame is decoded.

    A missing or empty label file gives an empty list (the null-label
    state). A label file with no matching frame is an orphan and raises,
    and so does a directory with no frame file at all.
    """
    dataset_dir = Path(dataset_dir)
    labels = {}
    for path in list_frame_paths(dataset_dir):
        label_path = path.with_suffix(LABEL_SUFFIX)
        text = label_path.read_text() if label_path.exists() else ""
        labels[path.stem] = [GroundTruthLabel(b) for b in parse_yolo_text(text)]
    for label_path in dataset_dir.glob(f"*{LABEL_SUFFIX}"):
        if label_path.stem not in labels:
            raise ValueError(f"orphan label file {label_path} has no matching frame")
    if not labels:
        raise ValueError(f"{dataset_dir} holds no {'/'.join(FRAME_SUFFIXES)} frame files")
    return labels


def pair_frames_with_labels(dataset_dir: str | Path) -> Iterator[DatasetItem]:
    """Pair each frame file of a dataset directory, stamped with its position,
    with its labels from ``read_labels``, which runs at the call (so an orphan
    or a duplicate stem raises first); a frame is decoded when it is reached."""
    labels = read_labels(dataset_dir)
    return (
        DatasetItem(load_frame(path, frame_index=index), labels[path.stem])
        for index, path in enumerate(list_frame_paths(dataset_dir))
    )


def save_item(item: DatasetItem, out_dir: str | Path) -> None:
    """Write an item in the layout pair_frames_with_labels reads, keyed on
    the frame's source_id: ``<stem>.pgm`` (gray) or ``<stem>.ppm`` (BGR) and
    ``<stem>.txt``, written even when empty (an explicit null label)."""
    out_dir = Path(out_dir)
    stem = item.frame.source_id
    save_frame(item.frame, out_dir / f"{stem}{'.pgm' if item.frame.channels == 1 else '.ppm'}")
    atomic_write_text(out_dir / f"{stem}{LABEL_SUFFIX}", serialize_yolo([lab.bbox for lab in item.labels]))
