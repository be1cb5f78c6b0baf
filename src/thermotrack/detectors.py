"""Face-region detectors behind one contract.

``Detector.detect`` always returns detections sorted by descending
confidence, thresholded, and non-maximum-suppressed. Under it a frame's
boxes stay one ``_Boxes`` record of arrays, which every ``_detect_raw``
returns (replay, external and plug-in ones built by ``_Boxes.of`` from
pixel boxes); only ``detect``, ``nms`` and ``blob_detect`` hand out
``Detection`` objects. Three implementations:

* ``ReplayDetector`` replays ground-truth labels (the evaluation baseline
  and the fixture for metric self-consistency checks);
* ``BlobDetector`` finds hot connected components in a grayscale frame, so
  the pipeline runs end to end without any trained weights;
* ``ExternalDetector`` hands frames to a neural detector living in another
  process over a line protocol, keeping ML runtimes out of this package.

External adapter line protocol (UTF-8 over the adapter's stdin/stdout;
lines end with LF, and a CR before the LF is ignored):

* handshake: adapter emits ``READY 1``
* request: ``FRAME <request-id> <width> <height> <absolute-file-path>``
  (the file is PGM/PPM; it is deleted once the response has been read, so
  the adapter reads it before answering)
* response: ``OK <n>`` followed by n lines
  ``DET <class> <conf> <cx> <cy> <w> <h>`` in normalized coordinates,
  or ``ERR <message>``

The timeout bounds the handshake and each whole response, however many
lines it has. A response is read in full before its lines are checked, so
a bad ``DET`` line fails only its own frame. A v1 response carries no
request id, so an adapter that times out or sends a header it cannot read
is stopped, and a stream skips its later frames.
Pipe reads use POSIX ``select``, which is fine: Linux is the deployment target.
"""

from __future__ import annotations

import contextlib
import math
import os
import select
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .annotations import (
    DegenerateBoxError,
    GroundTruthLabel,
    LabelFormatError,
    NormBBox,
    PixelBBox,
    denormalize,
)
# iou stays importable from here: perfbench's tracer counts detectors.iou by name.
from .deteval import _check_threshold, _iou_tensor, iou  # noqa: F401
from .frameio import ThermalFrame, save_frame

PROTOCOL_VERSION = 1

# NMS threshold just under 1.0: replay must keep overlapping ground-truth
# boxes; only exact duplicates are suppressed.
REPLAY_NMS_IOU = 1.0 - 1e-9

MAX_LINE_BYTES = 1 << 16  # longest adapter line read; a v1 line is under 100 bytes


class AdapterError(RuntimeError):
    """Base class for external-adapter failures."""


class AdapterExitedError(AdapterError):
    """The adapter process is gone (failed to start, crashed, or closed stdout)."""


class AdapterProtocolError(AdapterError):
    """The adapter wrote something the protocol does not allow."""


class AdapterTimeoutError(AdapterError):
    """The adapter did not send its handshake or a whole response within the timeout."""


@dataclass(frozen=True)
class Detection:
    """A predicted face region with its confidence."""

    bbox: PixelBBox
    confidence: float
    class_id: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.confidence) or not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence!r} outside [0, 1]")


class _Boxes(NamedTuple):
    """One frame's detections as arrays: int64 (N, 4) corners x1, y1, x2, y2,
    float64 confidences, and class ids (those passed to ``of`` kept as given)."""

    corners: np.ndarray
    confidence: np.ndarray
    class_id: np.ndarray

    @classmethod
    def of(cls, boxes: Sequence[PixelBBox], confidences: Sequence[float], class_ids: Sequence[int]) -> "_Boxes":
        corners = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.int64).reshape(-1, 4)
        return cls(corners, np.array(confidences, dtype=np.float64), np.array(class_ids, dtype=object))

    def detections(self) -> list[Detection]:
        return [Detection(PixelBBox(*box), conf, class_id) for box, conf, class_id in zip(*(a.tolist() for a in self))]


@dataclass
class DetectorConfig:
    confidence_threshold: float = 0.25
    nms_iou_threshold: float = 0.45
    # Blob parameters; min_blob_area is in squared pixels at the frame's own scale.
    intensity_threshold: int = 200
    min_blob_area: int = 64
    max_aspect_ratio: float = 2.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError(f"confidence_threshold {self.confidence_threshold} outside [0, 1]")
        if not 0.0 < self.nms_iou_threshold < 1.0:
            raise ValueError(f"nms_iou_threshold {self.nms_iou_threshold} outside (0, 1)")
        if not 0 <= self.intensity_threshold <= 255:
            raise ValueError(f"intensity_threshold {self.intensity_threshold} outside [0, 255]")
        if not self.min_blob_area >= 0:
            raise ValueError(f"min_blob_area {self.min_blob_area} must be >= 0")
        if not self.max_aspect_ratio >= 1.0:
            raise ValueError(f"max_aspect_ratio {self.max_aspect_ratio} must be >= 1")


def nms(dets: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression.

    Walk detections by descending confidence (stable for ties) and keep one
    only if its IoU with every already-kept detection stays below the
    threshold, which must lie in (0, 1]. Output order is descending
    confidence.

    One IoU matrix holds every pair, bit-identical to ``iou``; two boxes
    conflict unless their IoU is below the threshold. Only the boxes with a
    conflict are walked, in order, and a kept one drops every box it
    conflicts with. IoU is symmetric, so its row lists earlier boxes too;
    each of those is already dropped, or it would have dropped this one.
    """
    boxes = _Boxes.of([d.bbox for d in dets], [d.confidence for d in dets], [d.class_id for d in dets])
    return [dets[i] for i in _nms_keep(boxes.corners, boxes.confidence, iou_threshold).tolist()]


def _nms_keep(corners: np.ndarray, confidence: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Indices of the boxes ``nms`` keeps, best first."""
    _check_threshold(iou_threshold)
    order = np.argsort(-confidence, kind="stable")
    ordered = corners[order][None]
    conflict = ~(_iou_tensor(ordered, ordered)[0] < iou_threshold)
    # A box never drops itself; clearing the diagonal costs less than np.triu.
    np.fill_diagonal(conflict, False)
    keep = np.ones(order.size, dtype=bool)
    for row in np.flatnonzero(conflict.any(axis=1)).tolist():
        if keep[row]:
            keep[conflict[row]] = False
    return order[keep]


def _join_runs(starts: np.ndarray, ends: np.ndarray, stride: int) -> np.ndarray:
    """Component root of each run: the index of its component's first run.

    Runs are flat ``[start, end)`` offsets in raster order into a mask whose
    rows are ``stride`` apart and padded with a zero column on both sides,
    so no run crosses a row. Run b touches run a of the row above, diagonals
    included, when ``s_b - stride <= e_a`` and ``s_a <= e_b - stride``; the
    padding keeps the two from both holding for runs of any other pair of
    rows. Components are joined by min-root hooking with full pointer
    jumping after each round.
    """
    n_runs = starts.size
    # Run b touches runs lo[b] .. hi[b] - 1; list every touching pair.
    lo = np.searchsorted(ends, starts - stride, side="left")
    hi = np.searchsorted(starts, ends - stride, side="right")
    counts = hi - lo
    below = np.repeat(np.arange(n_runs), counts)
    above = np.arange(below.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    parent = np.arange(n_runs)
    while True:
        root_a, root_b = parent[above], parent[below]
        live = root_a != root_b
        if not live.any():
            return parent
        root_a, root_b = root_a[live], root_b[live]
        above, below = above[live], below[live]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def blob_detect(frame: ThermalFrame, cfg: DetectorConfig) -> list[Detection]:
    """Hot-region proposals from a single-channel frame.

    Pixels at or above ``intensity_threshold`` are foreground; 8-connected
    components become detections unless they are smaller than
    ``min_blob_area`` or more elongated than ``max_aspect_ratio``.
    Confidence is the component's mean intensity over 255, a monotone
    saliency proxy. Detections come in the raster order of each
    component's first pixel.

    Components are labelled from horizontal runs of foreground pixels, after
    He, Chao and Suzuki, "A Run-Based Two-Scan Labeling Algorithm", IEEE
    TIP 17(5), 2008: runs in adjacent rows are joined, then area, box and
    pixel sum are reduced per component without a per-component pass over
    the frame.
    """
    return _blob_boxes(frame, cfg).detections()


def _blob_boxes(frame: ThermalFrame, cfg: DetectorConfig) -> _Boxes:
    """``blob_detect`` as arrays."""
    if frame.channels != 1:
        raise ValueError("blob detection needs a single-channel frame")
    mask = frame.pixels >= cfg.intensity_threshold
    height, width = mask.shape
    stride = width + 2
    padded = np.zeros((height, stride), dtype=bool)
    padded[:, 1:-1] = mask
    flat = padded.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    parent = _join_runs(starts, ends, stride)
    roots = np.flatnonzero(parent == np.arange(parent.size))
    comp = np.searchsorted(roots, parent)
    rows = starts // stride
    row_offset = rows * stride + 1
    pixel_comp = np.repeat(comp, ends - starts)
    area = np.bincount(pixel_comp, minlength=roots.size)
    total = np.bincount(pixel_comp, weights=frame.pixels[mask], minlength=roots.size)
    left = np.full(roots.size, width)
    np.minimum.at(left, comp, starts - row_offset)
    right = np.zeros(roots.size, dtype=np.intp)
    np.maximum.at(right, comp, ends - row_offset)
    bottom = np.zeros(roots.size, dtype=np.intp)
    np.maximum.at(bottom, comp, rows)
    corners = np.stack((left, rows[roots], right, bottom + 1), axis=1)
    sides = corners[:, 2:] - corners[:, :2]
    kept = (area >= cfg.min_blob_area) & ~(sides.max(axis=1) / sides.min(axis=1) > cfg.max_aspect_ratio)
    # total is an exact integer sum in float64, so this is numpy's mean.
    return _Boxes(corners[kept], total[kept] / area[kept] / 255.0, np.zeros(int(kept.sum()), dtype=np.int64))


class Detector:
    """Contract: detect() -> thresholded, NMS-clean detections, best first."""

    def __init__(self, config: DetectorConfig):
        self.config = config

    def detect(self, frame: ThermalFrame) -> list[Detection]:
        return self._boxes(frame).detections()

    def _boxes(self, frame: ThermalFrame) -> _Boxes:
        """``detect`` as arrays."""
        raw = self._detect_raw(frame)
        passed = np.flatnonzero(raw.confidence >= self.config.confidence_threshold)
        kept = passed[_nms_keep(raw.corners[passed], raw.confidence[passed], self.config.nms_iou_threshold)]
        return _Boxes(*(a[kept] for a in raw))

    def _detect_raw(self, frame: ThermalFrame) -> _Boxes:
        """A frame's unfiltered proposals, as ``_Boxes.of(boxes, confidences, class_ids)``."""
        raise NotImplementedError


class ReplayDetector(Detector):
    """Replays stored ground-truth labels as confidence-1.0 detections,
    keyed by the frame's source_id."""

    def __init__(
        self,
        labels_by_source: Mapping[str, Sequence[GroundTruthLabel]],
        config: DetectorConfig | None = None,
    ):
        super().__init__(config or DetectorConfig(nms_iou_threshold=REPLAY_NMS_IOU))
        self._labels = {key: list(value) for key, value in labels_by_source.items()}

    def _detect_raw(self, frame: ThermalFrame) -> _Boxes:
        labels = self._labels.get(frame.source_id, [])
        boxes = [denormalize(lab.bbox, frame.width, frame.height) for lab in labels]
        return _Boxes.of(boxes, [1.0] * len(labels), [lab.bbox.class_id for lab in labels])


class BlobDetector(Detector):
    """In-house thermal blob baseline; stateless and safe to share across streams."""

    def __init__(self, config: DetectorConfig | None = None):
        super().__init__(config or DetectorConfig())

    def _detect_raw(self, frame: ThermalFrame) -> _Boxes:
        return _blob_boxes(frame, self.config)


class ExternalAdapter:
    """Owns one external detector process and speaks the line protocol to it.

    Requests are serialized per process (one in-flight frame); run several
    adapters for parallelism. Use as a context manager or call close().
    """

    def __init__(self, command: Sequence[str], response_timeout_s: float = 2.0):
        # select raises OverflowError for a timeout above threading.TIMEOUT_MAX.
        if not 0 < response_timeout_s <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"response_timeout_s must be in (0, {threading.TIMEOUT_MAX:g}], got {response_timeout_s}"
            )
        self.command = tuple(command)
        self.response_timeout_s = response_timeout_s
        self._request_ids = count(1)
        self._lock = threading.Lock()
        self._unread = bytearray()
        self._scratch_dir = tempfile.mkdtemp(prefix="thermotrack-adapter-")
        try:
            self._proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
            )
        except BaseException as exc:
            # Also a SystemExit from a SIGTERM that lands during the launch.
            shutil.rmtree(self._scratch_dir, ignore_errors=True)
            if isinstance(exc, OSError):
                raise AdapterExitedError(f"could not launch {self.command}: {exc}") from exc
            raise
        try:
            self._handshake()
        except BaseException:
            self.close()
            raise

    def _read_line(self, deadline: float) -> str:
        """One line, read before ``deadline`` (a ``time.monotonic`` value)."""
        # Reads go to the raw descriptor, never stdout's buffer, so select sees every unread byte.
        fd = self._proc.stdout.fileno()
        scanned = 0  # bytes of _unread already searched for LF
        while (end := self._unread.find(b"\n", scanned)) < 0:
            scanned = len(self._unread)
            remaining = deadline - time.monotonic()
            if scanned > MAX_LINE_BYTES or remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                self._stop()
                if scanned > MAX_LINE_BYTES:
                    raise AdapterProtocolError(f"no line end within {MAX_LINE_BYTES} bytes from {self.command}")
                raise AdapterTimeoutError(f"no complete response within {self.response_timeout_s} s from {self.command}")
            chunk = os.read(fd, 65536)
            if not chunk:  # EOF: a last line without LF is still handed out
                if not self._unread:
                    raise AdapterExitedError(f"adapter {self.command} closed its output")
                end = len(self._unread)
                break
            self._unread += chunk
        line = self._unread[:end].removesuffix(b"\r")
        del self._unread[: end + 1]
        # Undecodable bytes become U+FFFD and fail the protocol check.
        return line.decode("utf-8", errors="replace")

    def _stop(self) -> None:
        """Kill the adapter and drop what it sent: a v1 reply carries no request
        id, so a late reply or the rest of a broken one would answer the next frame."""
        self._proc.kill()
        self._proc.wait()
        self._unread.clear()

    def _handshake(self) -> None:
        line = self._read_line(time.monotonic() + self.response_timeout_s)
        tokens = line.split()
        if len(tokens) != 2 or tokens[0] != "READY":
            raise AdapterProtocolError(f"expected READY handshake, got {line!r}")
        if tokens[1] != str(PROTOCOL_VERSION):
            raise AdapterProtocolError(f"unsupported protocol version {tokens[1]!r}")

    def request(self, frame: ThermalFrame) -> list[tuple[int, float, NormBBox]]:
        """Send one frame, return (class_id, confidence, normalized box) triples."""
        with self._lock:
            if self._proc.poll() is not None:
                raise AdapterExitedError(f"adapter {self.command} has exited")
            request_id = next(self._request_ids)
            frame_path = Path(self._scratch_dir) / f"frame-{request_id}.{'pgm' if frame.channels == 1 else 'ppm'}"
            save_frame(frame, frame_path)
            try:
                try:
                    assert self._proc.stdin is not None
                    self._proc.stdin.write(
                        f"FRAME {request_id} {frame.width} {frame.height} {frame_path}\n".encode()
                    )
                    self._proc.stdin.flush()
                except (OSError, ValueError) as exc:
                    raise AdapterExitedError(f"adapter {self.command} rejected input: {exc}") from exc
                return self._read_response()
            finally:
                # Each request has its own file, dropped once answered or
                # abandoned, so an endless stream holds no scratch disk. A
                # fresh name per request, not one path rewritten by
                # os.replace: ext4 flushes a replaced file at rename.
                with contextlib.suppress(OSError):
                    frame_path.unlink()

    def _read_response(self) -> list[tuple[int, float, NormBBox]]:
        # One deadline for the whole reply: an adapter that trickles lines
        # after a huge header cannot hold the caller past the timeout.
        deadline = time.monotonic() + self.response_timeout_s
        header = self._read_line(deadline).split()
        if header and header[0] == "ERR":
            raise AdapterError("adapter reported: " + " ".join(header[1:]))
        if len(header) != 2 or header[0] != "OK" or not (header[1].isascii() and header[1].isdigit()):
            self._stop()
            raise AdapterProtocolError(f"bad response header {' '.join(header)!r}")
        # Read the whole reply first: a bad line must not leave the rest for the next frame.
        replies = [self._read_line(deadline).split() for _ in range(int(header[1]))]
        results = []
        for tokens in replies:
            if len(tokens) != 7 or tokens[0] != "DET":
                raise AdapterProtocolError(f"bad detection line {' '.join(tokens)!r}")
            try:
                class_id = int(tokens[1])
                conf = float(tokens[2])
                box = NormBBox(class_id, *(float(t) for t in tokens[3:]))
            except (ValueError, LabelFormatError) as exc:
                raise AdapterProtocolError(f"bad detection fields: {exc}") from None
            if not math.isfinite(conf) or not 0.0 <= conf <= 1.0:
                raise AdapterProtocolError(f"confidence {tokens[2]!r} outside [0, 1]")
            results.append((class_id, conf, box))
        return results

    def close(self) -> None:
        # A dead adapter fails the flush with BrokenPipeError; the pipe still closes.
        with contextlib.suppress(OSError):
            self._proc.stdin.close()
        if self._proc.poll() is None:
            try:
                self._proc.terminate()
                self._proc.wait(timeout=2)
            except (OSError, subprocess.TimeoutExpired):
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()
        shutil.rmtree(self._scratch_dir, ignore_errors=True)

    def __enter__(self) -> "ExternalAdapter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ExternalDetector(Detector):
    """Bridges the detector contract onto an ExternalAdapter."""

    def __init__(self, adapter: ExternalAdapter, config: DetectorConfig | None = None):
        super().__init__(config or DetectorConfig())
        self.adapter = adapter

    def _detect_raw(self, frame: ThermalFrame) -> _Boxes:
        replies = self.adapter.request(frame)
        try:
            boxes = [denormalize(box, frame.width, frame.height) for _, _, box in replies]
        except DegenerateBoxError as exc:
            raise AdapterProtocolError(f"degenerate detection: {exc}") from None
        return _Boxes.of(boxes, [conf for _, conf, _ in replies], [class_id for class_id, _, _ in replies])
