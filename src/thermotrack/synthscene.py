"""Synthetic thermal scenes with exact ground truth.

Faces render as elliptical warm regions with Gaussian falloff (sigma is half
the ellipse radius) over a noisy uniform background. Each face's peak pixel
is placed at its center and set to round((temperature - beta0) / beta1), the
inverse of the calibration line, so a pipeline running with that same line
must read the assigned temperature back to within half a quantization step.
That makes generated scenes an exact oracle for detector and pipeline tests,
in both sparse (few, spread out) and dense (a dozen-plus, close together)
configurations.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .annotations import GroundTruthLabel, PixelBBox, denormalize, normalize
from .frameio import DatasetItem, ThermalFrame, atomic_write_text, save_item
from .thermoreg import CalibrationSample


@dataclass(frozen=True)
class FaceSpec:
    """One face: integer center and ellipse radii in pixels, plus its
    assigned ground-truth temperature."""

    cx: int
    cy: int
    rx: int
    ry: int
    temperature_c: float

    def bbox(self) -> PixelBBox:
        return PixelBBox(self.cx - self.rx, self.cy - self.ry, self.cx + self.rx + 1, self.cy + self.ry + 1)


@dataclass
class SceneSpec:
    """One frame's worth of scene description."""

    width: int = 160
    height: int = 120
    background_level: int = 40
    noise_amplitude: int = 5
    faces: list[FaceSpec] = field(default_factory=list)
    beta0: float = 20.0
    beta1: float = 0.1
    seed: int = 0
    frame_index: int = 0
    source_id: str = ""

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"dims must be positive, got {self.width}x{self.height}")
        if not 0 <= self.background_level <= 255:
            raise ValueError(f"background_level {self.background_level} outside [0, 255]")
        if self.noise_amplitude < 0:
            raise ValueError("noise_amplitude must be >= 0")
        if self.beta1 == 0:
            raise ValueError("beta1 must be nonzero to invert temperatures")


def peak_intensity(temperature_c: float, beta0: float, beta1: float) -> int:
    """Invert the calibration line: the intensity whose mapped temperature
    rounds closest to the target."""
    return int(math.floor((temperature_c - beta0) / beta1 + 0.5))


def generate(spec: SceneSpec) -> tuple[ThermalFrame, list[GroundTruthLabel], list[float]]:
    """Render one scene. Deterministic given spec.seed.

    Returns the frame, the tight normalized bbox per face, and the assigned
    temperatures aligned with the labels. Faces composit over the background
    with max(), so each face's bbox maximum equals its inverted peak exactly
    as long as faces keep clear of each other (the sequence generator's
    placement guarantees it).
    """
    rng = np.random.default_rng(spec.seed)
    noise_floor = spec.background_level + spec.noise_amplitude
    if noise_floor > 255:
        raise ValueError("background plus noise exceeds the 8-bit range")
    canvas = np.clip(
        spec.background_level
        + rng.integers(-spec.noise_amplitude, spec.noise_amplitude + 1, (spec.height, spec.width)),
        0,
        255,
    ).astype(np.uint8)

    labels: list[GroundTruthLabel] = []
    temperatures: list[float] = []
    for face in spec.faces:
        # Before face.bbox(): a box past the left or top edge cannot be built.
        if not (face.rx <= face.cx < spec.width - face.rx and face.ry <= face.cy < spec.height - face.ry):
            raise ValueError(f"face at ({face.cx}, {face.cy}) overflows the frame")
        box = face.bbox()
        peak = peak_intensity(face.temperature_c, spec.beta0, spec.beta1)
        if not noise_floor < peak <= 255:
            raise ValueError(
                f"temperature {face.temperature_c} inverts to intensity {peak}, "
                f"outside ({noise_floor}, 255]"
            )
        dx = (np.arange(box.x1, box.x2) - face.cx) / face.rx
        dy = (np.arange(box.y1, box.y2) - face.cy) / face.ry
        rho2 = dy[:, None] ** 2 + dx[None, :] ** 2
        # Gaussian falloff with sigma = radius / 2: value = peak * exp(-2 rho^2).
        values = np.floor(peak * np.exp(-2.0 * rho2) + 0.5)
        values[rho2 > 1.0] = 0
        region = canvas[box.y1 : box.y2, box.x1 : box.x2]
        np.maximum(region, values.astype(np.uint8), out=region)
        labels.append(GroundTruthLabel(normalize(box, spec.width, spec.height)))
        temperatures.append(face.temperature_c)

    frame = ThermalFrame(canvas, spec.frame_index, spec.source_id or f"scene_{spec.frame_index:06d}")
    return frame, labels, temperatures


CAPTURE_MEAN_C = 36.6
CAPTURE_SD_C = 2.26
PIXEL_NOISE_SD = 1.0
CAPTURE_LOW_C = 25.8
CAPTURE_HIGH_C = 38.8
COLD_TAIL_FRACTION = 0.1
COLD_TAIL_HIGH_C = 30.0


def generate_calibration_set(
    n: int,
    beta0: float,
    beta1: float,
    seed: int,
) -> list[CalibrationSample]:
    """Draw calibration pairs matching the ground-truth capture statistics.

    Temperatures come from a normal distribution truncated to
    [CAPTURE_LOW_C, CAPTURE_HIGH_C], with a COLD_TAIL_FRACTION share drawn
    uniformly up to COLD_TAIL_HIGH_C (the water-bottle-style low readings).
    Pixels are the inverse calibration line plus PIXEL_NOISE_SD Gaussian
    noise, clipped to [0, 255]. Deterministic given the seed.
    """
    if n < 10:
        raise ValueError(f"need at least 10 samples, got {n}")
    rng = np.random.default_rng(seed)
    is_tail = rng.random(n) < COLD_TAIL_FRACTION
    temps = np.empty(n)
    temps[is_tail] = rng.uniform(CAPTURE_LOW_C, COLD_TAIL_HIGH_C, int(is_tail.sum()))
    n_body = int((~is_tail).sum())
    body = np.empty(0)
    while body.size < n_body:
        draws = rng.normal(CAPTURE_MEAN_C, CAPTURE_SD_C, n_body)
        body = np.concatenate([body, draws[(draws >= CAPTURE_LOW_C) & (draws <= CAPTURE_HIGH_C)]])
    temps[~is_tail] = body[:n_body]
    pixels = np.clip((temps - beta0) / beta1 + rng.normal(0.0, PIXEL_NOISE_SD, n), 0.0, 255.0)
    return [CalibrationSample(float(px), float(tc)) for px, tc in zip(pixels, temps)]


@dataclass
class SequenceSpec:
    """A multi-frame scene sequence: dims, radiometry, and face layout.

    ``layout`` is ``sparse`` (sparse_count faces per frame), ``dense``
    (dense_min..dense_max faces), or ``mix`` (alternating, starting sparse).
    """

    width: int = 160
    height: int = 120
    frames: int = 50
    background_level: int = 20
    noise_amplitude: int = 4
    beta0: float = 20.0
    beta1: float = 0.1
    seed: int = 0
    layout: str = "mix"
    sparse_count: int = 3
    dense_min: int = 12
    dense_max: int = 15
    temp_min_c: float = 33.5
    temp_max_c: float = 38.5
    radius_min: int = 8
    radius_max: int = 12

    def __post_init__(self) -> None:
        if self.layout not in ("sparse", "dense", "mix"):
            raise ValueError(f"layout must be sparse, dense, or mix, got {self.layout!r}")
        if self.frames <= 0:
            raise ValueError("frames must be positive")
        if not 1 <= self.sparse_count:
            raise ValueError("sparse_count must be >= 1")
        if not 1 <= self.dense_min <= self.dense_max:
            raise ValueError("need 1 <= dense_min <= dense_max")
        if not self.temp_min_c <= self.temp_max_c:
            raise ValueError("temperature range is empty")
        if not 2 <= self.radius_min <= self.radius_max:
            raise ValueError("need 2 <= radius_min <= radius_max")


def _place_faces(seq: SequenceSpec, n_faces: int, rng: np.random.Generator) -> list[FaceSpec]:
    """Put n_faces on a jittered grid such that neighboring ellipses keep at
    least a few pixels of clearance (hot cores stay separable)."""
    cols = max(1, math.ceil(math.sqrt(n_faces * seq.width / seq.height)))
    rows = math.ceil(n_faces / cols)
    cell_w = seq.width // cols
    cell_h = seq.height // rows
    max_rx = min(seq.radius_max, cell_w // 2 - 3)
    max_ry = min(seq.radius_max, cell_h // 2 - 3)
    if max_rx < seq.radius_min or max_ry < seq.radius_min:
        raise ValueError(
            f"{n_faces} faces of radius >= {seq.radius_min} do not fit a "
            f"{seq.width}x{seq.height} frame"
        )
    cells = rng.permutation(cols * rows)[:n_faces]
    faces = []
    for cell in cells:
        row, col = divmod(int(cell), cols)
        rx = int(rng.integers(seq.radius_min, max_rx + 1))
        ry = int(rng.integers(seq.radius_min, max_ry + 1))
        jitter_x = cell_w // 2 - rx - 2
        jitter_y = cell_h // 2 - ry - 2
        cx = col * cell_w + cell_w // 2 + int(rng.integers(-jitter_x, jitter_x + 1))
        cy = row * cell_h + cell_h // 2 + int(rng.integers(-jitter_y, jitter_y + 1))
        temperature = float(rng.uniform(seq.temp_min_c, seq.temp_max_c))
        faces.append(FaceSpec(cx, cy, rx, ry, temperature))
    return faces


def generate_sequence(
    seq: SequenceSpec,
) -> Iterator[tuple[ThermalFrame, list[GroundTruthLabel], list[float]]]:
    """Yield (frame, labels, temperatures) for every frame of the sequence."""
    rng = np.random.default_rng(seq.seed)
    for index in range(seq.frames):
        if seq.layout == "sparse":
            dense = False
        elif seq.layout == "dense":
            dense = True
        else:
            dense = index % 2 == 1
        n_faces = int(rng.integers(seq.dense_min, seq.dense_max + 1)) if dense else seq.sparse_count
        faces = _place_faces(seq, n_faces, rng)
        spec = SceneSpec(
            width=seq.width,
            height=seq.height,
            background_level=seq.background_level,
            noise_amplitude=seq.noise_amplitude,
            faces=faces,
            beta0=seq.beta0,
            beta1=seq.beta1,
            seed=int(rng.integers(2**31)),
            frame_index=index,
            source_id=f"frame_{index:06d}",
        )
        yield generate(spec)


# The [faces] keys of a spec file; every other SequenceSpec field is a [scene] key.
_FACE_KEYS = (
    "layout", "sparse_count", "dense_min", "dense_max", "temp_min_c", "temp_max_c", "radius_min", "radius_max",
)


def load_sequence_spec(path: str | Path) -> SequenceSpec:
    """Read a ``SequenceSpec`` from a key=value file with [scene] and [faces]
    sections: each key is a field, cast to the type of its default; unknown
    keys are rejected, missing keys take defaults."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read scene spec {path}")
    casts = {f.name: type(f.default) for f in fields(SequenceSpec)}
    kwargs: dict = {}
    for section in ("scene", "faces"):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            if key not in casts or (key in _FACE_KEYS) != (section == "faces"):
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                kwargs[key] = casts[key](raw)
            except ValueError:
                raise ValueError(f"{path}: bad value {raw!r} for {key}") from None
    return SequenceSpec(**kwargs)


TRUTH_CSV_HEADER = ["frame_index", "face_id", "x1", "y1", "x2", "y2", "temperature_c"]


def write_dataset(seq: SequenceSpec, out_dir: str | Path) -> int:
    """Materialize a sequence as frame/label files plus a truth CSV.

    Writes ``frame_%06d.pgm`` and ``frame_%06d.txt`` per frame with
    ``frameio.save_item`` (label files are written even when empty: an
    explicit null label) and ``truth.csv`` with one row per face. Returns
    the number of frames written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth = io.StringIO()
    writer = csv.writer(truth)
    writer.writerow(TRUTH_CSV_HEADER)
    n_frames = 0
    for frame, labels, temps in generate_sequence(seq):
        save_item(DatasetItem(frame, labels), out_dir)
        for face_id, (label, temp) in enumerate(zip(labels, temps)):
            box = denormalize(label.bbox, frame.width, frame.height)
            writer.writerow([frame.frame_index, face_id, box.x1, box.y1, box.x2, box.y2, repr(temp)])
        n_frames += 1
    atomic_write_text(out_dir / "truth.csv", truth.getvalue())
    return n_frames
