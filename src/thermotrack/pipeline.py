"""The per-frame temperature-monitoring loop.

For every frame: detect face regions, drop boxes below a minimum area, take
the maximum intensity inside each surviving region, map it through the
calibration model, draw the box and temperature onto a copy of the frame,
and append a log row. A stream processes frames strictly in order and keeps
going when a single frame fails: one corrupt frame must not take down a
monitoring session.
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
from .detectors import Detection, Detector
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
# Each glyph as a boolean mask followed by its blank spacing column, with a
# trailing axis that broadcasts over the BGR channels.
GLYPH_CELLS = {
    char: np.array([[[bit == "X"] for bit in row + "."] for row in rows])
    for char, rows in GLYPHS.items()
}


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
        if self.overlay_decimals < 0:
            raise ValueError("overlay_decimals must be >= 0")


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
    if roi.x2 > frame.width or roi.y2 > frame.height:
        raise ValueError(
            f"roi ({roi.x1}, {roi.y1}, {roi.x2}, {roi.y2}) outside "
            f"{frame.width}x{frame.height} frame"
        )
    return int(frame.pixels[roi.y1 : roi.y2, roi.x1 : roi.x2].max())


def scaled_min_area(min_bbox_area: float, frame_w: int, frame_h: int) -> float:
    """Grow the native-scale area threshold proportionally with frame area."""
    # float() first: int * int / int raises OverflowError above the float range.
    return float(min_bbox_area) * (frame_w * frame_h) / NATIVE_FRAME_AREA


def filter_min_area(dets: Sequence[Detection], min_area: float) -> list[Detection]:
    """Drop excessively small boxes; order is preserved."""
    return [d for d in dets if d.bbox.area() >= min_area]


def format_temperature(temperature_c: float, decimals: int = 1) -> str:
    return f"{temperature_c:.{decimals}f}°C"


def _draw_box(pixels: np.ndarray, box: PixelBBox, color: np.ndarray) -> None:
    pixels[box.y1, box.x1 : box.x2] = color
    pixels[box.y2 - 1, box.x1 : box.x2] = color
    pixels[box.y1 : box.y2, box.x1] = color
    pixels[box.y1 : box.y2, box.x2 - 1] = color


def _draw_text(pixels: np.ndarray, x: int, y: int, text: str, color: np.ndarray) -> None:
    try:
        cells = [GLYPH_CELLS[char] for char in text]
    except KeyError as err:
        raise ValueError(f"no glyph for character {err.args[0]!r}") from None
    mask = np.concatenate(cells, axis=1)[:, :-1]
    height, width = pixels.shape[:2]
    x0, y0 = max(x, 0), max(y, 0)
    x1, y1 = min(x + mask.shape[1], width), min(y + GLYPH_H, height)
    if x0 < x1 and y0 < y1:
        np.copyto(pixels[y0:y1, x0:x1], color, where=mask[y0 - y : y1 - y, x0 - x : x1 - x])


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
    pixels = gray_to_bgr(frame).pixels if frame.channels == 1 else frame.pixels.copy()
    # uint8 colours once per frame, not a tuple conversion per write.
    box_color = np.array(BOX_COLOR, dtype=np.uint8)
    text_color = np.array(TEXT_COLOR, dtype=np.uint8)
    for reading in readings:
        if reading.bbox.x2 > frame.width or reading.bbox.y2 > frame.height:
            raise ValueError("reading bbox outside frame")
        _draw_box(pixels, reading.bbox, box_color)
        text = format_temperature(reading.temperature_c, decimals)
        text_w = len(text) * GLYPH_PITCH - 1
        tx = max(0, min(reading.bbox.x1, frame.width - text_w))
        ty = reading.bbox.y1 - GLYPH_H - 1
        if ty < 0:
            ty = reading.bbox.y2 + 1
        ty = max(0, min(ty, frame.height - GLYPH_H))
        _draw_text(pixels, tx, ty, text, text_color)
    return replace(frame, pixels=pixels)


def process_frame(
    frame: ThermalFrame,
    cfg: PipelineConfig,
    detector: Detector,
    model: FittedRegressor,
) -> tuple[ThermalFrame, list[TempReading]]:
    """Run one frame through detect -> area filter -> max pixel -> predict ->
    annotate.

    Returns the annotated 3-channel frame and the readings. Detector
    failures are re-raised with the frame index attached so a stream can
    log and move on.
    """
    gray = frame if frame.channels == 1 else bgr_to_grayscale(frame)
    try:
        detections = detector.detect(gray)
    except Exception as exc:
        raise PipelineFrameError(frame.frame_index, f"detector failed: {exc}") from exc
    detections = filter_min_area(
        detections, scaled_min_area(cfg.min_bbox_area, frame.width, frame.height)
    )
    readings = []
    for det in detections:
        max_pixel = extract_max_pixel(gray, det.bbox)
        temperature = model.predict(max_pixel)
        readings.append(
            TempReading(
                frame_index=frame.frame_index,
                bbox=det.bbox,
                max_pixel=max_pixel,
                temperature_c=temperature,
                flagged=temperature > cfg.fever_threshold_c,
            )
        )
    drawn = readings if cfg.overlay_enabled else []
    return render_overlay(frame, drawn, cfg.overlay_decimals), readings


def _log_row(reading: TempReading) -> str:
    b = reading.bbox
    return (
        f"{reading.frame_index},{b.x1},{b.y1},{b.x2},{b.y2},"
        f"{reading.max_pixel},{reading.temperature_c!r},{int(reading.flagged)}"
    )


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
    so a crash leaves a usable partial log. A frame that fails to load or
    process is counted, logged, and skipped; log/output I/O errors abort
    the stream.
    """
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
                annotated, readings = process_frame(frame, cfg, detector, model)
            except (PipelineFrameError, ValueError, OSError) as exc:
                summary.errors += 1
                logger.warning("skipping frame %d: %s", position, exc)
                summary.record_latency((time.perf_counter() - start) * 1000.0)
                continue
            if log_handle is not None:
                for reading in readings:
                    log_handle.write(_log_row(reading) + "\n")
                log_handle.flush()
            if out_dir is not None:
                save_frame(annotated, out_dir / f"out_{position:06d}.ppm")
            summary.frames += 1
            summary.readings += len(readings)
            summary.flagged += sum(r.flagged for r in readings)
            summary.record_latency((time.perf_counter() - start) * 1000.0)
    finally:
        if log_handle is not None:
            log_handle.close()
    return summary
