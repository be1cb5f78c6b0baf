"""Detection quality metrics: IoU, greedy matching, all-points average
precision, and mAP over an IoU threshold sweep.

Detections are pooled across images with a single global confidence sort
(single-class accumulation), which keeps every number deterministic and
checkable against a brute-force precision/recall enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .annotations import PixelBBox

if TYPE_CHECKING:  # pragma: no cover - import only for type hints
    from .detectors import Detection

# The standard sweep: 0.50 to 0.95 in steps of 0.05.
DEFAULT_IOU_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))

CSV_HEADER = "dataset,precision,recall,map50,map5095"


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


def _check_sorted_desc(confidences: Sequence[float]) -> None:
    for earlier, later in zip(confidences, confidences[1:]):
        if later > earlier:
            raise ValueError("detections must be sorted by descending confidence")


def _iou_table(dets: Sequence["Detection"], gts: Sequence[PixelBBox]) -> list[list[float]]:
    """IoU of every detection (rows, confidence order) with every ground truth."""
    _check_sorted_desc([d.confidence for d in dets])
    return [[iou(d.bbox, g) for g in gts] for d in dets]


def _greedy_claim(ious: list[list[float]], num_gt: int, iou_thr: float) -> list[bool]:
    """The claim rule of ``match_greedy``, over a detection x truth IoU table."""
    claimed = [False] * num_gt
    flags: list[bool] = []
    for row in ious:
        best_iou = 0.0
        best_j = -1
        for j, value in enumerate(row):
            if not claimed[j] and value > best_iou:
                best_iou = value
                best_j = j
        hit = best_j >= 0 and best_iou >= iou_thr
        if hit:
            claimed[best_j] = True
        flags.append(hit)
    return flags


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
    """
    return MatchResult(_greedy_claim(_iou_table(dets, gts), len(gts), iou_thr), len(gts))


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
    _check_sorted_desc(list(confidences))
    flags = np.asarray(match.tp_flags, dtype=bool)
    if match.num_gt == 0:
        return 0.0 if flags.size else 1.0
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / match.num_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    recall_steps = np.diff(np.concatenate(([0.0], recall)))
    # fsum: the recall steps telescope exactly, so a perfect detector scores
    # exactly 1.0 instead of drifting an ulp below.
    return math.fsum(recall_steps * envelope)


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
        if not 0.0 < thr <= 1.0:
            raise ValueError(f"IoU threshold {thr} outside (0, 1]")

    # Only the greedy claim depends on the threshold: IoUs and the pooled
    # stable confidence order are computed once per evaluation.
    tables = [(_iou_table(dets, gts), len(gts)) for dets, gts in zip(dets_per_image, gts_per_image)]
    conf_arr = np.asarray([d.confidence for dets in dets_per_image for d in dets], dtype=float)
    order = np.argsort(-conf_arr, kind="stable")
    pooled_confs = list(conf_arr[order])
    total_gt = sum(num_gt for _, num_gt in tables)
    matches: dict[float, MatchResult] = {}
    for thr in [*thresholds, 0.5]:  # precision and recall need the 0.5 match
        if float(thr) not in matches:
            flags = [flag for table, num_gt in tables for flag in _greedy_claim(table, num_gt, thr)]
            matches[float(thr)] = MatchResult([flags[i] for i in order], total_gt)
    ap_by_threshold = {
        float(thr): average_precision(matches[float(thr)], pooled_confs) for thr in thresholds
    }

    match50 = matches[0.5]
    tp = sum(match50.tp_flags)
    n_det = len(match50.tp_flags)
    precision = tp / n_det if n_det else 0.0
    recall = tp / match50.num_gt if match50.num_gt else 0.0

    aps = list(ap_by_threshold.values())
    return DetectionEvalReport(
        precision=precision,
        recall=recall,
        map_50=ap_by_threshold.get(0.5, float("nan")),
        map_50_95=float(np.mean(aps)),
        ap_by_threshold=ap_by_threshold,
        num_images=len(gts_per_image),
        num_gt=match50.num_gt,
        num_detections=n_det,
    )
