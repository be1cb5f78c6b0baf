"""Bounding-box labels: normalized center/extent records and pixel-corner
rectangles, with parsing, serialization, and conversions between the two.

The on-disk label format is one ``class cx cy w h`` record per line, all
coordinates normalized to [0, 1], six decimal places on write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Slack allowed on box corners: augmentation arithmetic may push a corner a
# hair past the frame edge without the box being wrong.
EDGE_TOLERANCE = 1e-6

# Write precision of label files; mirrored coordinates are snapped to this
# grid so a double flip restores the original label bit-for-bit.
COORD_DECIMALS = 6

# Largest side-edge overflow, left by that snap, that mirroring nudges back.
MIRROR_SLACK = 1e-5


class LabelFormatError(ValueError):
    """A label line could not be parsed or failed range validation."""


class DegenerateBoxError(ValueError):
    """A conversion collapsed a box to zero area."""


@dataclass(frozen=True)
class NormBBox:
    """A box in YOLO form: class id plus normalized center and extent."""

    class_id: int
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not isinstance(self.class_id, int) or isinstance(self.class_id, bool):
            raise ValueError(f"class_id must be an integer, got {self.class_id!r}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")
        for name in ("cx", "cy", "w", "h"):
            value = getattr(self, name)
            if not isinstance(value, float) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite float, got {value!r}")
        if not 0.0 <= self.cx <= 1.0 or not 0.0 <= self.cy <= 1.0:
            raise ValueError(f"center ({self.cx}, {self.cy}) outside [0, 1]")
        if not 0.0 < self.w <= 1.0 or not 0.0 < self.h <= 1.0:
            raise ValueError(f"extent ({self.w}, {self.h}) outside (0, 1]")
        if (
            self.cx - self.w / 2 < -EDGE_TOLERANCE
            or self.cx + self.w / 2 > 1.0 + EDGE_TOLERANCE
            or self.cy - self.h / 2 < -EDGE_TOLERANCE
            or self.cy + self.h / 2 > 1.0 + EDGE_TOLERANCE
        ):
            raise ValueError(
                f"box ({self.cx}, {self.cy}, {self.w}, {self.h}) overflows the unit frame"
            )


@dataclass(frozen=True)
class PixelBBox:
    """A box as inclusive-exclusive pixel corners: x in [x1, x2), y in [y1, y2)."""

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.x1 < 0 or self.y1 < 0:
            raise ValueError(f"corners must be non-negative, got ({self.x1}, {self.y1})")
        if self.x1 >= self.x2 or self.y1 >= self.y2:
            raise ValueError(
                f"box ({self.x1}, {self.y1}, {self.x2}, {self.y2}) has no positive extent"
            )

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    def area(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class GroundTruthLabel:
    """An annotated face region."""

    bbox: NormBBox


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def parse_yolo_line(line: str) -> NormBBox:
    """Parse one ``class cx cy w h`` record; any run of spaces separates fields."""
    tokens = line.split()
    if len(tokens) != 5:
        raise LabelFormatError(f"expected 5 fields, got {len(tokens)} in {line!r}")
    try:
        class_id = int(tokens[0])
    except ValueError:
        raise LabelFormatError(f"non-integer class id {tokens[0]!r}") from None
    values = []
    for token in tokens[1:]:
        try:
            values.append(float(token))
        except ValueError:
            raise LabelFormatError(f"non-numeric coordinate {token!r}") from None
    try:
        return NormBBox(class_id, *values)
    except ValueError as exc:
        raise LabelFormatError(f"{exc} (line {line!r})") from None


def parse_yolo_text(text: str) -> list[NormBBox]:
    """Parse a whole label file; blank lines are ignored, no header expected."""
    return [parse_yolo_line(line) for line in text.splitlines() if line.strip()]


def serialize_yolo(labels: list[NormBBox] | tuple[NormBBox, ...]) -> str:
    """Render labels as label-file text, one LF-terminated record per box.

    An empty list serializes to empty text: that is the explicit null-label
    state for frames with nobody in view.
    """
    fmt = f".{COORD_DECIMALS}f"
    return "".join(f"{b.class_id} {b.cx:{fmt}} {b.cy:{fmt}} {b.w:{fmt}} {b.h:{fmt}}\n" for b in labels)


def mirrored_horizontal(box: NormBBox) -> NormBBox:
    """Reflect a box across the vertical midline of the frame.

    The mirrored center is snapped to the label-file precision grid
    (1e-6) so that mirroring twice is exactly the identity; raw 1 - cx
    float arithmetic is not involutive. A snapped box that overflows a side
    edge by at most ``MIRROR_SLACK`` is nudged back inside.
    """
    cx = round(1.0 - box.cx, COORD_DECIMALS)
    left_overflow = -(cx - box.w / 2)
    right_overflow = cx + box.w / 2 - 1.0
    if EDGE_TOLERANCE < left_overflow <= MIRROR_SLACK:
        cx += left_overflow
    elif EDGE_TOLERANCE < right_overflow <= MIRROR_SLACK:
        cx -= right_overflow
    return NormBBox(box.class_id, cx, box.cy, box.w, box.h)


def denormalize(box: NormBBox, frame_w: int, frame_h: int) -> PixelBBox:
    """Map a normalized box onto a frame, rounding each corner half-up and
    clamping to the frame bounds.

    Raises DegenerateBoxError when clamping or rounding collapses the box
    to zero area.
    """
    if frame_w <= 0 or frame_h <= 0:
        raise ValueError(f"frame dims must be positive, got {frame_w}x{frame_h}")
    x1 = min(max(_round_half_up((box.cx - box.w / 2) * frame_w), 0), frame_w)
    x2 = min(max(_round_half_up((box.cx + box.w / 2) * frame_w), 0), frame_w)
    y1 = min(max(_round_half_up((box.cy - box.h / 2) * frame_h), 0), frame_h)
    y2 = min(max(_round_half_up((box.cy + box.h / 2) * frame_h), 0), frame_h)
    if x1 >= x2 or y1 >= y2:
        raise DegenerateBoxError(
            f"box ({box.cx}, {box.cy}, {box.w}, {box.h}) collapses on a "
            f"{frame_w}x{frame_h} frame"
        )
    return PixelBBox(x1, y1, x2, y2)


def normalize(box: PixelBBox, frame_w: int, frame_h: int) -> NormBBox:
    """Inverse of denormalize, as class 0; the box must lie inside the frame."""
    if frame_w <= 0 or frame_h <= 0:
        raise ValueError(f"frame dims must be positive, got {frame_w}x{frame_h}")
    if box.x2 > frame_w or box.y2 > frame_h:
        raise ValueError(
            f"box ({box.x1}, {box.y1}, {box.x2}, {box.y2}) lies outside a "
            f"{frame_w}x{frame_h} frame"
        )
    return NormBBox(
        0,
        (box.x1 + box.x2) / (2 * frame_w),
        (box.y1 + box.y2) / (2 * frame_h),
        (box.x2 - box.x1) / frame_w,
        (box.y2 - box.y1) / frame_h,
    )
