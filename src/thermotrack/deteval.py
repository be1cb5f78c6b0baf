"""Detection quality metrics: IoU, greedy matching, all-points average
precision, and mAP over an IoU threshold sweep.

Detections are pooled across images with a single global confidence sort
(single-class accumulation), which keeps every number deterministic and
checkable against a brute-force precision/recall enumeration.

An evaluation builds one (images x detections x truths) IoU tensor, with
the scalar ``iou``'s integer steps so each value is bit-identical to it,
and claims truths for all swept thresholds at once. A detection whose
reachable truths (IoU at least the lowest threshold) no other detection
reaches is scored from its best IoU alone; one walk over the detection
ranks settles the rest, visiting only the ranks that hold a detection
reaching a shared truth. Only a truth of positive IoU can be claimed, so
each walked rank looks at K candidates a detection: K is the most
positive-IoU truths of any detection at a walked rank (at worst every
truth). ``match_greedy`` is the one-image, one-threshold call of that
pass. ``_ap_rows`` scores every threshold's pooled flags in one pass;
``average_precision`` is its one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .annotations import PixelBBox

if TYPE_CHECKING:  # pragma: no cover - import only for type hints
    from .detectors import Detection

# The standard sweep: 0.50 to 0.95 in steps of 0.05.
DEFAULT_IOU_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))

CSV_HEADER = "dataset,precision,recall,map50,map5095"

_CORNERS = attrgetter("x1", "y1", "x2", "y2")


@dataclass
class MatchResult:
    """Per-detection true-positive flags (in confidence order) plus the
    ground-truth count they were matched against."""

    tp_flags: list[bool]
    num_gt: int

    def __post_init__(self) -> None:
        if self.num_gt < 0:
            raise ValueError("num_gt must be non-negative")
        if sum(self.tp_flags) > self.num_gt:
            raise ValueError("more true positives than ground-truth boxes")


@dataclass
class DetectionEvalReport:
    precision: float
    recall: float
    map_50: float
    map_50_95: float
    ap_by_threshold: dict[float, float]
    num_images: int = 0
    num_gt: int = 0
    num_detections: int = 0

    def to_text(self) -> str:
        lines = [
            f"images={self.num_images}",
            f"ground_truths={self.num_gt}",
            f"detections={self.num_detections}",
            f"precision={self.precision:.6f}",
            f"recall={self.recall:.6f}",
            f"map50={self.map_50:.6f}",
            f"map5095={self.map_50_95:.6f}",
        ]
        lines += [f"ap_{thr:.2f}={ap:.6f}" for thr, ap in sorted(self.ap_by_threshold.items())]
        return "\n".join(lines) + "\n"

    def to_csv_row(self, dataset: str) -> str:
        return (
            f"{dataset},{self.precision:.6f},{self.recall:.6f},"
            f"{self.map_50:.6f},{self.map_50_95:.6f}"
        )


def iou(a: PixelBBox, b: PixelBBox) -> float:
    """Intersection over union of two pixel boxes; 0.0 when disjoint."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area() + b.area() - inter)


def _check_threshold(thr: float) -> None:
    """Reject an IoU threshold outside (0, 1]; NaN compares false and fails."""
    if not 0.0 < thr <= 1.0:
        raise ValueError(f"IoU threshold {thr} outside (0, 1]")


def _check_sorted_desc(confidences: np.ndarray) -> None:
    """Reject any row of ``confidences`` that rises; NaN pairs compare false."""
    if np.any(confidences[..., 1:] > confidences[..., :-1]):
        raise ValueError("detections must be sorted by descending confidence")


def _pad_boxes(boxes_per_image: Sequence[Sequence[PixelBBox]]) -> tuple[np.ndarray, np.ndarray]:
    """Corners as an (images, n, 4) int64 array zero-padded to the longest
    image (n >= 1, so an empty set still has a column), and the (images, n)
    mask of real boxes."""
    counts = np.fromiter((len(boxes) for boxes in boxes_per_image), dtype=np.int64, count=len(boxes_per_image))
    valid = np.arange(max(int(counts.max(initial=0)), 1)) < counts[:, None]
    corners = np.zeros((*valid.shape, 4), dtype=np.int64)
    flat = chain.from_iterable(map(_CORNERS, chain.from_iterable(boxes_per_image)))
    corners[valid] = np.fromiter(flat, dtype=np.int64, count=4 * int(counts.sum())).reshape(-1, 4)
    return corners, valid


def _iou_tensor(dets: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """IoU of every detection with every truth of its image, (images, D, G).

    The integer steps and the one true division are those of ``iou``, so
    each value equals the scalar one bit for bit; disjoint pairs read 0.0.
    Corners are non-negative, so a zero-padded box overlaps nothing, and
    only a pair of two padded boxes has a union of 0: a denominator of at
    least 1 keeps it from forming 0/0, and every real union is already >= 1."""
    d = dets[:, :, None, :]
    g = gts[:, None, :, :]

    def overlap(lo: int, hi: int) -> np.ndarray:
        # In place, so at most three (images, D, G) integer arrays are alive at once.
        side = np.minimum(d[..., hi], g[..., hi])
        side -= np.maximum(d[..., lo], g[..., lo])
        return np.maximum(side, 0, out=side)

    inter = overlap(0, 2)
    inter *= overlap(1, 3)
    area_d = (d[..., 2] - d[..., 0]) * (d[..., 3] - d[..., 1])
    area_g = (g[..., 2] - g[..., 0]) * (g[..., 3] - g[..., 1])
    union = area_d + area_g
    union -= inter
    return inter / np.maximum(union, 1, out=union)


def _match_flags(
    dets_per_image: Sequence[Sequence["Detection"]],
    gts_per_image: Sequence[Sequence[PixelBBox]],
    thresholds: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """The claim rule of ``match_greedy`` for every threshold and image at once.

    Returns the (thresholds, detections) true-positive flags and the
    detections' confidences, both over each image's detections in turn.

    A detection reaches a truth of IoU at least the lowest threshold (and
    above 0); only a reached truth can be claimed. A truth that one
    detection alone reaches is claimed by it or by nobody, so a detection
    that reaches no shared truth is settled at once: it hits when its best
    IoU reaches the threshold. The rank walk visits only the ranks that
    hold a detection reaching a shared truth. There, each such detection's
    truths are sorted once by falling IoU, ties to the lower index, and cut
    to the K that can overlap it; per rank, ``argmax`` over them (claimed
    ones masked to -1) picks the highest IoU of lowest index, the scalar
    rule's tie break, for all thresholds and images. Claims that settled
    detections would make are left out: no walked detection reaches those
    truths, so none of them can decide a walked detection's hit.
    """
    dets, det_valid = _pad_boxes([[d.bbox for d in image] for image in dets_per_image])
    confs = np.full(det_valid.shape, -np.inf)
    confs[det_valid] = [d.confidence for image in dets_per_image for d in image]
    _check_sorted_desc(confs)  # -inf padding never rises
    ious = _iou_tensor(dets, _pad_boxes(gts_per_image)[0])
    images, ranks, truths = ious.shape
    thr = np.asarray(thresholds, dtype=float)[:, None]
    # Only a positive IoU is claimed, so padded rows and columns never hit.
    best = ious.max(axis=2)
    flags = (best >= thr[:, :, None]) & (best > 0.0)
    reach = (ious >= thr.min()) & (ious > 0.0)
    shared = np.count_nonzero(reach, axis=1) >= 2
    walked = np.flatnonzero(np.any(reach & shared[:, None, :], axis=(0, 2)))
    if walked.size:
        ious = ious[:, walked]
        k = max(int(np.count_nonzero(ious > 0.0, axis=2).max()), 1)
        cand = np.argsort(-ious, axis=2, kind="stable")[:, :, :k]
        cand_iou = np.take_along_axis(ious, cand, axis=2)
        # A new (images, walked, K) array, so the full sort is freed; it indexes all images' truths end to end.
        cand = cand + np.arange(0, images * truths, truths)[:, None, None]
        claimed = np.zeros((len(thr), images * truths), dtype=bool)
        t_index, i_index = np.ix_(np.arange(len(thr)), np.arange(images))
        for step, rank in enumerate(walked.tolist()):
            rank_cand = cand[:, step]
            free = np.where(claimed[:, rank_cand], -1.0, cand_iou[:, step])
            best = free.max(axis=2)
            hit = (best >= thr) & (best > 0.0)
            claimed[t_index, rank_cand[i_index, free.argmax(axis=2)]] |= hit
            flags[:, :, rank] = hit
    return flags[:, det_valid], confs[det_valid]


def match_greedy(
    dets: Sequence["Detection"],
    gts: Sequence[PixelBBox],
    iou_thr: float,
) -> MatchResult:
    """Greedy one-to-one matching in confidence order.

    Each detection claims the unclaimed ground truth of highest IoU; the
    claim counts as a true positive only when that IoU reaches ``iou_thr``.
    IoU ties go to the lowest ground-truth index, so the outcome is
    deterministic. Input must already be sorted by descending confidence.
    This is the one-image, one-threshold view of ``map_over_thresholds``'
    batched claim pass.
    """
    _check_threshold(iou_thr)
    flags, _ = _match_flags([dets], [gts], [iou_thr])
    return MatchResult(flags[0].tolist(), len(gts))


def average_precision(match: MatchResult, confidences: Sequence[float]) -> float:
    """Area under the precision-recall curve, all-points interpolation.

    Cumulative precision/recall points are built in confidence order, each
    precision is replaced by the maximum precision at equal-or-higher
    recall (the monotone envelope), and recall steps are summed against
    that envelope.

    Conventions: with no ground truths, AP is 0 when detections exist and 1
    when nothing was detected either (neutral for aggregation; such empty
    image sets are excluded from averaging upstream).
    """
    if len(confidences) != len(match.tp_flags):
        raise ValueError("confidences and tp_flags must be aligned")
    _check_sorted_desc(np.asarray(confidences, dtype=float))
    return _ap_rows(np.asarray(match.tp_flags, dtype=bool)[None], match.num_gt)[0]


def _ap_rows(flags: np.ndarray, num_gt: int) -> list[float]:
    """``average_precision`` of each row of (rows, detections) ranked flags,
    all against ``num_gt`` truths, from one cumulative pass over the block."""
    rows, ranks = flags.shape
    tp = np.cumsum(flags, axis=1)
    if ranks and np.any(tp[:, -1] > num_gt):
        raise ValueError("more true positives than ground-truth boxes")
    if num_gt == 0 or ranks == 0:
        return [1.0 if num_gt == ranks == 0 else 0.0] * rows
    precision = tp / np.arange(1, ranks + 1)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    recall_steps = np.diff(tp / num_gt, axis=1, prepend=0.0)
    # fsum: the recall steps telescope exactly, so a perfect detector scores
    # exactly 1.0 instead of drifting an ulp below.
    return [math.fsum(row) for row in (recall_steps * envelope).tolist()]


def map_over_thresholds(
    dets_per_image: Sequence[Sequence["Detection"]],
    gts_per_image: Sequence[Sequence[PixelBBox]],
    thresholds: Sequence[float] = DEFAULT_IOU_THRESHOLDS,
) -> DetectionEvalReport:
    """Evaluate a detector over a whole image set.

    ``map_50`` is the pooled AP at IoU 0.5 (NaN when 0.5 was not swept),
    ``map_50_95`` the mean AP over the given thresholds. Precision and
    recall are always reported at the 0.5 matching threshold over all
    supplied detections, with the 0/0 cases defined as 0.
    """
    if len(dets_per_image) != len(gts_per_image):
        raise ValueError("detections and ground truths must cover the same images")
    if not thresholds:
        raise ValueError("at least one IoU threshold is required")
    for thr in thresholds:
        _check_threshold(thr)

    # One claim pass scores every threshold; precision and recall need the 0.5 match.
    levels = list(dict.fromkeys(float(thr) for thr in thresholds))
    swept = list(dict.fromkeys([*levels, 0.5]))
    flags, confs = _match_flags(dets_per_image, gts_per_image, swept)
    flags = flags[:, np.argsort(-confs, kind="stable")]
    total_gt = sum(len(gts) for gts in gts_per_image)
    ap_by_threshold = dict(zip(levels, _ap_rows(flags[: len(levels)], total_gt)))

    tp = int(np.count_nonzero(flags[swept.index(0.5)]))
    n_det = len(confs)
    return DetectionEvalReport(
        precision=tp / n_det if n_det else 0.0,
        recall=tp / total_gt if total_gt else 0.0,
        map_50=ap_by_threshold.get(0.5, float("nan")),
        map_50_95=float(np.mean(list(ap_by_threshold.values()))),
        ap_by_threshold=ap_by_threshold,
        num_images=len(gts_per_image),
        num_gt=total_gt,
        num_detections=n_det,
    )
