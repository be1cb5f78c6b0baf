"""The per-frame temperature-monitoring loop.

For every frame: detect face regions, drop boxes below a minimum area, take
the maximum intensity inside each surviving region, look it up in the
model's temperatures for all 256 pixel values (read once a stream), and
append a log row. Only a frame that is returned or saved is drawn, as a copy
with each box and temperature. Boxes stay arrays from detector to log and
overlay; only ``process_frame`` builds ``TempReading``s. A stream processes
frames strictly in order and keeps going when a single frame fails: one
corrupt frame must not take down a monitoring session.
"""

from __future__ import annotations

import logging
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .annotations import PixelBBox
from .detectors import Detector
from .frameio import (
    NATIVE_HEIGHT, NATIVE_WIDTH, ThermalFrame, bgr_to_grayscale, gray_to_bgr, load_frame, save_frame
)
from .thermoreg import FittedRegressor

logger = logging.getLogger(__name__)

# Reference area for min_bbox_area scaling: the native 160x120 sensor.
NATIVE_FRAME_AREA = NATIVE_WIDTH * NATIVE_HEIGHT

LOG_CSV_HEADER = "frame_index,x1,y1,x2,y2,max_pixel,temperature_c,flagged"

BOX_COLOR = (0, 255, 0)  # BGR green outline
TEXT_COLOR = (255, 255, 255)

# 5x7 bitmap glyphs for temperature labels; 'X' marks a lit pixel.
GLYPHS: dict[str, tuple[str, ...]] = {
    "0": (".XXX.", "X...X", "X..XX", "X.X.X", "XX..X", "X...X", ".XXX."),
    "1": ("..X..", ".XX..", "..X..", "..X..", "..X..", "..X..", ".XXX."),
    "2": (".XXX.", "X...X", "....X", "...X.", "..X..", ".X...", "XXXXX"),
    "3": ("XXXXX", "....X", "...X.", "..XX.", "....X", "X...X", ".XXX."),
    "4": ("...X.", "..XX.", ".X.X.", "X..X.", "XXXXX", "...X.", "...X."),
    "5": ("XXXXX", "X....", "XXXX.", "....X", "....X", "X...X", ".XXX."),
    "6": ("..XX.", ".X...", "X....", "XXXX.", "X...X", "X...X", ".XXX."),
    "7": ("XXXXX", "....X", "...X.", "..X..", ".X...", ".X...", ".X..."),
    "8": (".XXX.", "X...X", "X...X", ".XXX.", "X...X", "X...X", ".XXX."),
    "9": (".XXX.", "X...X", "X...X", ".XXXX", "....X", "...X.", ".XX.."),
    ".": (".....", ".....", ".....", ".....", ".....", "..XX.", "..XX."),
    "-": (".....", ".....", ".....", "XXXX.", ".....", ".....", "....."),
    "°": (".XX..", "X..X.", ".XX..", ".....", ".....", ".....", "....."),
    "C": (".XXX.", "X...X", "X....", "X....", "X....", "X...X", ".XXX."),
}
GLYPH_W, GLYPH_H = 5, 7
GLYPH_PITCH = GLYPH_W + 1
# Each glyph as a boolean mask followed by its blank spacing column.
GLYPH_CELLS = {char: np.array([[bit == "X" for bit in row + "."] for row in rows]) for char, rows in GLYPHS.items()}
# The colours as single 3-byte cells of a BGR frame.
_BOX_CELL = np.array(BOX_COLOR, dtype=np.uint8).view("V3")[0]
_TEXT_CELL = np.array(TEXT_COLOR, dtype=np.uint8).view("V3")[0]


class PipelineFrameError(RuntimeError):
    """A single frame failed; carries the frame index for the stream log."""

    def __init__(self, frame_index: int, message: str):
        super().__init__(f"frame {frame_index}: {message}")
        self.frame_index = frame_index


@dataclass
class PipelineConfig:
    """Knobs of the monitoring loop.

    ``min_bbox_area`` is expressed at the native 160x120 scale and grows
    proportionally with frame area for larger frames.
    """

    min_bbox_area: float = 100.0
    overlay_enabled: bool = True
    overlay_decimals: int = 1
    fever_threshold_c: float = 38.0
    log_path: str | Path | None = None
    output_dir: str | Path | None = None

    def __post_init__(self) -> None:
        # Range checks also reject an int too large for a float.
        if not 1 <= self.min_bbox_area <= sys.float_info.max:
            raise ValueError(f"min_bbox_area must be finite and >= 1, got {self.min_bbox_area}")
        if not -sys.float_info.max <= self.fever_threshold_c <= sys.float_info.max:
            raise ValueError(f"fever_threshold_c must be finite, got {self.fever_threshold_c}")
        decimals = self.overlay_decimals
        if not isinstance(decimals, int) or isinstance(decimals, bool) or decimals < 0:
            raise ValueError(f"overlay_decimals must be an int >= 0, got {decimals!r}")


@dataclass(frozen=True)
class TempReading:
    """One measurement: where, how hot in pixel units, and in degrees."""

    frame_index: int
    bbox: PixelBBox
    max_pixel: int
    temperature_c: float
    flagged: bool


@dataclass
class StreamSummary:
    frames: int = 0
    readings: int = 0
    flagged: int = 0
    errors: int = 0
    # Running totals, so an endless stream keeps a fixed-size summary.
    latency_count: int = 0
    latency_total_ms: float = 0.0
    max_latency_ms: float = 0.0

    def record_latency(self, ms: float) -> None:
        self.latency_count += 1
        self.latency_total_ms += ms
        self.max_latency_ms = max(self.max_latency_ms, ms)

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_total_ms / self.latency_count if self.latency_count else 0.0

    def to_text(self) -> str:
        return (
            f"frames={self.frames}\n"
            f"readings={self.readings}\n"
            f"flagged={self.flagged}\n"
            f"errors={self.errors}\n"
            f"mean_latency_ms={self.mean_latency_ms:.3f}\n"
            f"max_latency_ms={self.max_latency_ms:.3f}\n"
        )


def extract_max_pixel(frame: ThermalFrame, roi: PixelBBox) -> int:
    """Maximum intensity over x in [x1, x2), y in [y1, y2) of a gray frame."""
    if frame.channels != 1:
        raise ValueError("max-pixel extraction needs a single-channel frame")
    return _roi_max(frame.pixels, roi.x1, roi.y1, roi.x2, roi.y2)


def _roi_max(gray: np.ndarray, x1: int, y1: int, x2: int, y2: int) -> int:
    height, width = gray.shape
    if x2 > width or y2 > height:
        raise ValueError(f"roi ({x1}, {y1}, {x2}, {y2}) outside {width}x{height} frame")
    return int(gray[y1:y2, x1:x2].max())


def scaled_min_area(min_bbox_area: float, frame_w: int, frame_h: int) -> float:
    """Grow the native-scale area threshold proportionally with frame area."""
    # float() first: int * int / int raises OverflowError above the float range.
    return float(min_bbox_area) * (frame_w * frame_h) / NATIVE_FRAME_AREA


def _large_enough(corners: np.ndarray, min_area: float) -> np.ndarray:
    return (corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1]) >= min_area


def format_temperature(temperature_c: float, decimals: int = 1) -> str:
    return f"{temperature_c:.{decimals}f}°C"


def _label(text: str, shape: tuple[int, int]) -> tuple[tuple[int, int], np.ndarray, int]:
    """``shape``, the flat offsets in a frame of that shape of the lit pixels
    of ``text`` from its top-left corner, and its width. A frame too small
    for it puts it at row or column 0, so what lies past the edge is cut."""
    try:
        cells = [GLYPH_CELLS[char] for char in text]
    except KeyError as err:
        raise ValueError(f"no glyph for character {err.args[0]!r}") from None
    rows, cols = np.nonzero(np.concatenate(cells, axis=1))
    inside = (rows < shape[0]) & (cols < shape[1])
    return shape, rows[inside] * shape[1] + cols[inside], len(text) * GLYPH_PITCH - 1


def _model_table(model: FittedRegressor) -> list[float]:
    """A model's temperature at each of the 256 uint8 pixel values, as Python
    floats (the log writes their ``repr``, and a numpy float64 reprs as
    ``np.float64(...)``). Each must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        temps = model.predict_batch(np.arange(256.0))
    bad = np.flatnonzero(~np.isfinite(temps))
    if bad.size:
        raise ValueError(f"model temperature at pixel value {bad[0]} is not finite: {temps[bad[0]]}")
    return temps.tolist()


def _annotate(frame: ThermalFrame, boxes: Sequence[Sequence[int]], labels: Sequence[tuple]) -> ThermalFrame:
    """A BGR copy of a frame with each box's outline and then its label drawn,
    box by box: a later box is drawn over an earlier label. A pixel is one
    3-byte cell, so a label is one fancy-index write of its lit cells."""
    pixels = gray_to_bgr(frame).pixels if frame.channels == 1 else frame.pixels.copy()
    cells = pixels.view("V3")[..., 0]
    flat = cells.reshape(-1)  # a view: the copy is C-contiguous
    height, width = cells.shape
    for (x1, y1, x2, y2), (_, offsets, text_w) in zip(boxes, labels):
        # Rows y1 and y2 - 1, then columns x1 and x2 - 1 (one of each for a 1-pixel side).
        cells[y1:y2:max(y2 - 1 - y1, 1), x1:x2] = _BOX_CELL
        cells[y1:y2, x1:x2:max(x2 - 1 - x1, 1)] = _BOX_CELL
        tx = max(0, min(x1, width - text_w))
        ty = y1 - GLYPH_H - 1
        if ty < 0:
            ty = y2 + 1
        ty = max(0, min(ty, height - GLYPH_H))
        flat[offsets + (ty * width + tx)] = _TEXT_CELL
    return replace(frame, pixels=pixels)


def render_overlay(
    frame: ThermalFrame, readings: Sequence[TempReading], decimals: int = 1
) -> ThermalFrame:
    """Draw 1-pixel box outlines and temperature text onto a BGR copy of a
    frame: a gray frame is replicated into three channels, a BGR frame is
    copied. That copy is the only frame-sized array made.

    Text sits just above its box, or below the box when the frame edge
    would clip it, and is always clamped inside the frame. Identical inputs
    render identically.
    """
    boxes = [(r.bbox.x1, r.bbox.y1, r.bbox.x2, r.bbox.y2) for r in readings]
    if any(x2 > frame.width or y2 > frame.height for _, _, x2, y2 in boxes):
        raise ValueError("reading bbox outside frame")
    shape = frame.pixels.shape[:2]
    return _annotate(frame, boxes, [_label(format_temperature(r.temperature_c, decimals), shape) for r in readings])


def _measure(frame: ThermalFrame, cfg: PipelineConfig, detector: Detector, temps: list) -> list:
    """``process_frame``'s readings on arrays, with ``_model_table``'s
    temperatures: in detection order, each reading's box ``[x1, y1, x2, y2]``,
    max pixel, temperature and fever flag."""
    gray = frame if frame.channels == 1 else bgr_to_grayscale(frame)
    try:
        corners = detector._boxes(gray).corners
    except Exception as exc:
        raise PipelineFrameError(frame.frame_index, f"detector failed: {exc}") from exc
    boxes = corners[_large_enough(corners, scaled_min_area(cfg.min_bbox_area, frame.width, frame.height))].tolist()
    peaks = [_roi_max(gray.pixels, *box) for box in boxes]
    return [(box, peak, temps[peak], temps[peak] > cfg.fever_threshold_c) for box, peak in zip(boxes, peaks)]


def _draw(frame: ThermalFrame, rows: list, cfg: PipelineConfig, labels: list) -> ThermalFrame:
    """``_measure``'s rows drawn on a copy of a frame; ``labels`` memoises each max pixel's label."""
    rows = rows if cfg.overlay_enabled else []
    shape = frame.pixels.shape[:2]
    for _, peak, temperature, _ in rows:
        if labels[peak] is None or labels[peak][0] != shape:
            labels[peak] = _label(format_temperature(temperature, cfg.overlay_decimals), shape)
    return _annotate(frame, [row[0] for row in rows], [labels[row[1]] for row in rows])


def process_frame(
    frame: ThermalFrame,
    cfg: PipelineConfig,
    detector: Detector,
    model: FittedRegressor,
) -> tuple[ThermalFrame, list[TempReading]]:
    """Run one frame through detect -> area filter -> max pixel -> predict,
    then annotate a copy of it.

    Returns the annotated 3-channel frame and the readings. Detector
    failures are re-raised with the frame index attached so a stream can
    log and move on. Every call builds the model's 256-pixel table and a
    fresh label memo; for a stream, ``run_stream`` builds each once per
    session.
    """
    rows = _measure(frame, cfg, detector, _model_table(model))
    return _draw(frame, rows, cfg, [None] * 256), [TempReading(frame.frame_index, PixelBBox(*b), *r) for b, *r in rows]


def run_stream(
    source: Iterable[ThermalFrame | str | Path],
    detector: Detector,
    model: FittedRegressor,
    cfg: PipelineConfig,
) -> StreamSummary:
    """Process an ordered frame source to completion.

    Source items may be frames or paths (paths are loaded lazily). Frames
    are processed strictly in source order and stamped with their stream
    position as frame_index. Log rows are appended and flushed per frame,
    so a crash leaves a usable partial log. A frame is drawn only to be
    saved. A frame that fails to load, process or draw is counted, logged
    and skipped; log/output I/O errors abort the stream.
    """
    temps, labels = _model_table(model), [None] * 256
    summary = StreamSummary()
    log_handle = None
    out_dir = Path(cfg.output_dir) if cfg.output_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.log_path is not None:
        log_handle = open(cfg.log_path, "w")
        log_handle.write(LOG_CSV_HEADER + "\n")
        log_handle.flush()
    try:
        for position, item in enumerate(source):
            start = time.perf_counter()
            frame = annotated = None  # free the last frame, even a skipped one, before a load
            try:
                frame = item if isinstance(item, ThermalFrame) else load_frame(item)
                frame = replace(frame, frame_index=position)
                rows = _measure(frame, cfg, detector, temps)
                annotated = _draw(frame, rows, cfg, labels) if out_dir is not None else None
            except (PipelineFrameError, ValueError, OSError) as exc:
                summary.errors += 1
                logger.warning("skipping frame %d: %s", position, exc)
                summary.record_latency((time.perf_counter() - start) * 1000.0)
                continue
            if log_handle is not None:
                for (x1, y1, x2, y2), peak, temperature, flagged in rows:
                    log_handle.write(f"{position},{x1},{y1},{x2},{y2},{peak},{temperature!r},{int(flagged)}\n")
                log_handle.flush()
            if out_dir is not None:
                save_frame(annotated, out_dir / f"out_{position:06d}.ppm")
            summary.frames += 1
            summary.readings += len(rows)
            summary.flagged += sum(flagged for *_, flagged in rows)
            summary.record_latency((time.perf_counter() - start) * 1000.0)
    finally:
        if log_handle is not None:
            log_handle.close()
    return summary
