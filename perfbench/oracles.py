"""Output checks for the benchmark, written independently of the library
code they check (no thermotrack IoU, matching or AP routine is used here).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

# Criterion-5 oracle: a reading must sit on a truth face at IoU >= 0.5 and
# read within 0.3 C of that face's assigned temperature.
MIN_IOU = 0.5
TOLERANCE_C = 0.3


def box_iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


@dataclass
class StreamCheck:
    bad_frames: set[int] = field(default_factory=set)
    matched: int = 0
    faces: int = 0
    worst_error_c: float = 0.0


def check_stream_log(log_path, truth: list[list[tuple[tuple[int, int, int, int], float]]]) -> StreamCheck:
    """Check every reading of a reading-log CSV against the scene truth.

    ``truth[i]`` lists (box, temperature) per face of frame i. Readings of a
    frame claim truth faces greedily in log order; a reading that claims no
    face at IoU >= 0.5, or reads more than 0.3 C off, fails its frame.
    """
    rows_by_frame: dict[int, list[list[str]]] = {}
    with open(log_path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)  # header
        for row in reader:
            rows_by_frame.setdefault(int(row[0]), []).append(row)
    result = StreamCheck(faces=sum(len(faces) for faces in truth))
    result.bad_frames.update(i for i in rows_by_frame if not 0 <= i < len(truth))
    for index, faces in enumerate(truth):
        claimed = [False] * len(faces)
        for row in rows_by_frame.get(index, []):
            box = (int(row[1]), int(row[2]), int(row[3]), int(row[4]))
            best, best_j = 0.0, -1
            for j, (face_box, _) in enumerate(faces):
                value = box_iou(box, face_box)
                if not claimed[j] and value > best:
                    best, best_j = value, j
            if best_j < 0 or best < MIN_IOU:
                result.bad_frames.add(index)
                continue
            claimed[best_j] = True
            error = abs(float(row[6]) - faces[best_j][1])
            result.worst_error_c = max(result.worst_error_c, error)
            if error > TOLERANCE_C:
                result.bad_frames.add(index)
            else:
                result.matched += 1
    return result


def _iou_matrix(dets: np.ndarray, gts: np.ndarray) -> np.ndarray:
    ix = np.minimum(dets[:, None, 2], gts[None, :, 2]) - np.maximum(dets[:, None, 0], gts[None, :, 0])
    iy = np.minimum(dets[:, None, 3], gts[None, :, 3]) - np.maximum(dets[:, None, 1], gts[None, :, 1])
    inter = np.clip(ix, 0, None) * np.clip(iy, 0, None)
    area_d = (dets[:, 2] - dets[:, 0]) * (dets[:, 3] - dets[:, 1])
    area_g = (gts[:, 2] - gts[:, 0]) * (gts[:, 3] - gts[:, 1])
    return inter / (area_d[:, None] + area_g[None, :] - inter)


def reference_eval(
    det_boxes: list[list[tuple[int, int, int, int]]],
    det_confs: list[list[float]],
    gt_boxes: list[list[tuple[int, int, int, int]]],
    thresholds: tuple[float, ...],
) -> dict:
    """Pooled greedy matching and all-points AP, computed from one IoU
    matrix per image.

    Detections of an image come best first; each claims the unclaimed truth
    of highest IoU (lowest index on ties) and is a true positive when that
    IoU reaches the threshold. Images pool under one stable confidence sort.
    """
    matrices = [
        _iou_matrix(np.asarray(d, dtype=float).reshape(-1, 4), np.asarray(g, dtype=float).reshape(-1, 4))
        for d, g in zip(det_boxes, gt_boxes)
    ]
    confs = np.asarray([c for image in det_confs for c in image], dtype=float)
    order = np.argsort(-confs, kind="stable")
    num_gt = sum(len(g) for g in gt_boxes)
    ap_by_threshold = {}
    tp_at = {}
    for thr in thresholds:
        flags = []
        for matrix in matrices:
            free = np.ones(matrix.shape[1], dtype=bool)
            for row in matrix:
                candidates = np.where(free, row, -1.0)
                j = int(np.argmax(candidates)) if candidates.size else -1
                hit = j >= 0 and candidates[j] > 0.0 and candidates[j] >= thr
                if hit:
                    free[j] = False
                flags.append(hit)
        pooled = np.asarray(flags, dtype=bool)[order]
        tp = np.cumsum(pooled)
        precision = tp / np.arange(1, pooled.size + 1)
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        if num_gt == 0:
            ap = 0.0 if pooled.size else 1.0
        else:
            ap = math.fsum(envelope[pooled]) / num_gt
        ap_by_threshold[float(thr)] = ap
        tp_at[float(thr)] = int(pooled.sum())
    n_det = int(confs.size)
    tp50 = tp_at[0.5]
    return {
        "ap_by_threshold": ap_by_threshold,
        "map_50": ap_by_threshold[0.5],
        "map_50_95": sum(ap_by_threshold.values()) / len(ap_by_threshold),
        "precision": tp50 / n_det if n_det else 0.0,
        "recall": tp50 / num_gt if num_gt else 0.0,
        "num_images": len(gt_boxes),
        "num_gt": num_gt,
        "num_detections": n_det,
    }


def compare_eval(report, reference: dict, tolerance: float = 1e-9) -> list[str]:
    """Mismatches between a DetectionEvalReport and the reference."""
    problems = []
    for name in ("num_images", "num_gt", "num_detections", "precision", "recall"):
        if getattr(report, name) != reference[name]:
            problems.append(f"{name}: {getattr(report, name)!r} != {reference[name]!r}")
    for name in ("map_50", "map_50_95"):
        if not abs(getattr(report, name) - reference[name]) <= tolerance:
            problems.append(f"{name}: {getattr(report, name)!r} vs {reference[name]!r}")
    if set(report.ap_by_threshold) != set(reference["ap_by_threshold"]):
        problems.append("threshold sets differ")
    else:
        for thr, ap in reference["ap_by_threshold"].items():
            if not abs(report.ap_by_threshold[thr] - ap) <= tolerance:
                problems.append(f"ap@{thr}: {report.ap_by_threshold[thr]!r} vs {ap!r}")
    return problems
