"""Detection quality metrics: IoU, greedy matching, all-points average
precision, and mAP over an IoU threshold sweep.

Detections are pooled across images with a single global confidence sort
(single-class accumulation), which keeps every number deterministic and
checkable against a brute-force precision/recall enumeration.

An evaluation groups images by the bit length of their detection count
and of their truth count, and builds one (images x detections x truths)
IoU tensor per group, so an image pads to under twice its own boxes
whatever the largest image holds. Each value takes the scalar ``iou``'s
integer steps, so it is bit-identical to it. Claims are made for all
swept thresholds at once. A detection whose reachable truths (IoU at
least the lowest threshold) no other detection reaches is scored from its
best IoU alone; one walk over the detection ranks settles the rest,
visiting only the ranks that hold a detection reaching a shared truth.
Only a truth of positive IoU can be claimed, so each walked rank looks at
K candidates a detection: K is the most positive-IoU truths of any
detection at a walked rank (at worst every truth). The claim rule is per
image, so the groups' flags, put back in image order, are those of one
pass. ``match_greedy`` is the one-image, one-threshold call of that pass.
``_ap_rows`` scores every threshold's pooled flags in one pass and sums a
term only where a detection hits; ``average_precision`` is its one-row
call.
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


def _counts(items_per_image: Sequence[Sequence[object]]) -> np.ndarray:
    """How many items each image holds, as an int64 array."""
    return np.fromiter(map(len, items_per_image), dtype=np.int64, count=len(items_per_image))


def _pad_boxes(boxes_per_image: Sequence[Sequence[PixelBBox]], counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corners as an (images, n, 4) int64 array zero-padded to the longest
    image (n >= 1, so an empty set still has a column), and the (images, n)
    mask of real boxes; ``counts`` is ``_counts(boxes_per_image)``."""
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

    Images whose detection counts and truth counts have the same bit
    lengths share one ``_claim_pass``, so an image pads to under twice its
    own boxes. Each group's flags and confidences are written back to
    their images' places, so the caller's stable confidence sort meets tied
    confidences in image order. A set of one group is one pass.
    """
    det_counts, gt_counts = _counts(dets_per_image), _counts(gts_per_image)
    # frexp's exponent of a count is its bit length, and a length stays below 64.
    group = np.frexp(det_counts)[1] * 64 + np.frexp(gt_counts)[1]
    if np.all(group == group[:1]):
        return _claim_pass(dets_per_image, gts_per_image, det_counts, gt_counts, thresholds)
    flags = np.empty((len(thresholds), int(det_counts.sum())), dtype=bool)
    confs = np.empty(flags.shape[1])
    det_group = np.repeat(group, det_counts)
    for key in np.unique(group):
        images = np.flatnonzero(group == key)
        at = det_group == key
        flags[:, at], confs[at] = _claim_pass(
            [dets_per_image[i] for i in images],
            [gts_per_image[i] for i in images],
            det_counts[images],
            gt_counts[images],
            thresholds,
        )
    return flags, confs


def _claim_pass(
    dets_per_image: Sequence[Sequence["Detection"]],
    gts_per_image: Sequence[Sequence[PixelBBox]],
    det_counts: np.ndarray,
    gt_counts: np.ndarray,
    thresholds: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """``_match_flags`` over images padded to one (images x D x G) tensor.

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
    dets, det_valid = _pad_boxes([[d.bbox for d in image] for image in dets_per_image], det_counts)
    confs = np.full(det_valid.shape, -np.inf)
    confs[det_valid] = [d.confidence for image in dets_per_image for d in image]
    _check_sorted_desc(confs)  # -inf padding never rises
    ious = _iou_tensor(dets, _pad_boxes(gts_per_image, gt_counts)[0])
    images, ranks, truths = ious.shape
    thr = np.asarray(thresholds, dtype=float)[:, None]
    # Only a positive IoU is claimed, so padded rows and columns never hit.
    best = ious.max(axis=2)
    flags = (best >= thr[:, :, None]) & (best > 0.0)
    reach = (ious >= thr.min()) & (ious > 0.0)
    shared = np.count_nonzero(reach, axis=1) >= 2
    if shared.any():
        walked = np.flatnonzero(np.any(reach & shared[:, None, :], axis=(0, 2)))
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
    all against ``num_gt`` truths, from terms at the hits alone.

    A miss adds the term +0.0, since its recall step is x - x, and the k-th
    hit's step subtracts fl((k-1)/n) from fl(k/n), as the full-rank
    difference of the running recall does. At a hit the envelope is the
    highest precision of that hit and the later hits of its row: a miss's
    precision is below that of the hit before it."""
    rows, ranks = flags.shape
    hits = np.count_nonzero(flags, axis=1)
    if np.any(hits > num_gt):
        raise ValueError("more true positives than ground-truth boxes")
    if num_gt == 0 or ranks == 0:
        return [1.0 if num_gt == ranks == 0 else 0.0] * rows
    ends = np.cumsum(hits)
    starts = ends - hits
    # Each hit's running count in its row, and its rank counted from 1.
    k = np.arange(1, int(hits.sum()) + 1) - np.repeat(starts, hits)
    rank = np.flatnonzero(flags) - np.repeat(np.arange(rows) * ranks, hits) + 1
    envelope = k / rank  # each hit's precision, made its envelope row by row
    bounds = list(zip(starts.tolist(), ends.tolist()))
    for start, end in bounds:
        row = envelope[start:end][::-1]  # a view: the running maximum from the row's last hit
        np.maximum.accumulate(row, out=row)
    terms = (np.diff(np.arange(num_gt + 1) / num_gt)[k - 1] * envelope).tolist()
    # fsum: the recall steps telescope exactly, so a perfect detector scores
    # exactly 1.0 instead of drifting an ulp below.
    return [math.fsum(terms[start:end]) for start, end in bounds]


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
    if len(thresholds) == 0:
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
