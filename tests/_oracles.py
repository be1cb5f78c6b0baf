"""Independent reference implementations used to cross-check library results.

Everything here is deliberately written the slow, obvious way (explicit
loops, exhaustive scans) and shares no code with the library paths it
checks.
"""

import math
from collections import deque

import numpy as np
import pytest

from thermotrack.deteval import DetectionEvalReport
from thermotrack.frameio import FrameFormatError
from thermotrack.pipeline import BOX_COLOR, GLYPH_H, GLYPH_PITCH, GLYPHS, TEXT_COLOR
from thermotrack.thermoreg import ModelSpec, kfold_partition, mse, r2


def max_pixel_scan(pixels, x1, y1, x2, y2):
    """Exhaustive max over a rectangle of a 2-D array."""
    best = 0
    for y in range(y1, y2):
        for x in range(x1, x2):
            if int(pixels[y, x]) > best:
                best = int(pixels[y, x])
    return best


def bfs_components(mask):
    """8-connected components of a boolean 2-D array via breadth-first search.

    Returns a list of dicts with keys area, x1, y1, x2, y2 (exclusive
    corners), and member (list of (y, x)), in the raster order of each
    component's first pixel."""
    height = len(mask)
    width = len(mask[0]) if height else 0
    seen = [[False] * width for _ in range(height)]
    components = []
    for y0 in range(height):
        for x0 in range(width):
            if not mask[y0][x0] or seen[y0][x0]:
                continue
            queue = deque([(y0, x0)])
            seen[y0][x0] = True
            member = []
            while queue:
                y, x = queue.popleft()
                member.append((y, x))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < height and 0 <= nx < width:
                            if mask[ny][nx] and not seen[ny][nx]:
                                seen[ny][nx] = True
                                queue.append((ny, nx))
            ys = [y for y, _ in member]
            xs = [x for _, x in member]
            components.append(
                {
                    "area": len(member),
                    "x1": min(xs),
                    "y1": min(ys),
                    "x2": max(xs) + 1,
                    "y2": max(ys) + 1,
                    "member": member,
                }
            )
    return components


def scipy_components(mask):
    """``bfs_components`` from ``scipy.ndimage.label``, in its numbering.

    scipy is a test-only dependency: the calling test is skipped where it
    is not installed."""
    ndimage = pytest.importorskip("scipy.ndimage")
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    components = []
    for comp_id, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1):
        member = [(int(y), int(x)) for y, x in np.argwhere(labels == comp_id)]
        components.append(
            {
                "area": len(member),
                "x1": cols.start,
                "y1": rows.start,
                "x2": cols.stop,
                "y2": rows.stop,
                "member": member,
            }
        )
    return components


def iou_corners(a, b):
    """IoU of two (x1, y1, x2, y2) corner tuples."""
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    iw, ih = max(0, ix2 - ix1), max(0, iy2 - iy1)
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter) if inter else 0.0


def greedy_match_flags(det_boxes, gt_boxes, threshold):
    """Greedy matcher over corner tuples, detections already in confidence
    order: each claims the unclaimed ground truth of highest IoU (ties to
    the lowest index), true positive iff that IoU reaches the threshold."""
    taken = [False] * len(gt_boxes)
    flags = []
    for det in det_boxes:
        best, best_j = 0.0, -1
        for j, gt in enumerate(gt_boxes):
            if taken[j]:
                continue
            value = iou_corners(det, gt)
            if value > best:
                best, best_j = value, j
        if best_j >= 0 and best >= threshold:
            taken[best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def ap_enumeration(flags, num_gt):
    """Average precision by enumerating every prefix of the ranked list and
    summing recall steps against the max-precision-at-or-above-recall
    envelope."""
    if num_gt == 0:
        return 0.0 if flags else 1.0
    if not flags:
        return 0.0
    points = []
    tp = 0
    for i, flag in enumerate(flags, start=1):
        tp += bool(flag)
        points.append((tp / num_gt, tp / i))
    ap = 0.0
    prev_recall = 0.0
    for recall in sorted({r for r, _ in points}):
        if recall <= prev_recall:
            continue
        envelope = max(p for r, p in points if r >= recall)
        ap += (recall - prev_recall) * envelope
        prev_recall = recall
    return ap


def nms_keep(boxes_with_conf, threshold):
    """Reference greedy suppression over (corners, confidence) pairs.

    Returns the kept pairs in descending confidence order (stable ties).
    """
    ranked = sorted(enumerate(boxes_with_conf), key=lambda t: (-t[1][1], t[0]))
    kept = []
    for _, (corners, conf) in ranked:
        if all(iou_corners(corners, kc) < threshold for kc, _ in kept):
            kept.append((corners, conf))
    return kept


def strict_local_maxima(pixels, floor):
    """Pixels strictly greater than all 8 neighbors and above ``floor``."""
    height, width = pixels.shape
    maxima = []
    for y in range(1, height - 1):
        for x in range(1, width - 1):
            value = int(pixels[y, x])
            if value <= floor:
                continue
            neighbors = [
                int(pixels[y + dy, x + dx])
                for dy in (-1, 0, 1)
                for dx in (-1, 0, 1)
                if (dy, dx) != (0, 0)
            ]
            if all(value > n for n in neighbors):
                maxima.append((y, x))
    return maxima


def knn_sorted_mean(pixels, temps, k, query):
    """k-nearest-neighbor mean by a full sort of every stored sample: nearest
    |pixel - query| first, ties to the lower pixel, then to the earlier
    sample; the k temperatures summed left to right."""
    order = sorted(range(len(pixels)), key=lambda i: (abs(pixels[i] - query), pixels[i], i))
    return sum(temps[i] for i in order[:k]) / k


def recursive_tree(pixels, temps, max_depth, min_samples_leaf):
    """CART regression tree grown one node at a time by recursion, in the
    saved shape (split nodes carry no value).

    Each node sorts nothing: the samples are sorted once, stably by pixel,
    and a node is a contiguous run of them. It becomes a leaf holding
    ``float(ts.mean())`` at ``max_depth``, below ``2 * min_samples_leaf``
    samples, on constant temperatures, or when no boundary between two
    distinct pixels leaves ``min_samples_leaf`` samples on each side.
    Otherwise it splits at the boundary of least summed squared error, from
    1-D prefix sums, ties to the lowest threshold."""
    p = np.asarray(pixels, dtype=np.float64)
    t = np.asarray(temps, dtype=np.float64)
    order = np.argsort(p, kind="stable")

    def grow(ps, ts, depth):
        if depth >= max_depth or ps.size < 2 * min_samples_leaf or bool(np.all(ts == ts[0])):
            return {"kind": "leaf", "value": float(ts.mean())}
        boundaries = np.nonzero(ps[:-1] != ps[1:])[0]  # split between i and i+1
        left_sizes = boundaries + 1
        valid = (left_sizes >= min_samples_leaf) & (ps.size - left_sizes >= min_samples_leaf)
        boundaries = boundaries[valid]
        if boundaries.size == 0:
            return {"kind": "leaf", "value": float(ts.mean())}
        s1 = np.cumsum(ts)
        s2 = np.cumsum(ts * ts)
        n_left = (boundaries + 1).astype(np.float64)
        n_right = ps.size - n_left
        sse_left = s2[boundaries] - s1[boundaries] ** 2 / n_left
        sse_right = (s2[-1] - s2[boundaries]) - (s1[-1] - s1[boundaries]) ** 2 / n_right
        cut = int(boundaries[int(np.argmin(sse_left + sse_right))])
        return {
            "kind": "split",
            "threshold": (float(ps[cut]) + float(ps[cut + 1])) / 2.0,
            "left": grow(ps[: cut + 1], ts[: cut + 1], depth + 1),
            "right": grow(ps[cut + 1 :], ts[cut + 1 :], depth + 1),
        }

    return grow(p[order], t[order], 0)


def walk_tree(node, q):
    """Predictions of a saved tree dict for the pixels ``q``, walked by
    recursion: ``q <= threshold`` goes left, a leaf answers with its value."""
    if node["kind"] == "leaf":
        return np.full(q.size, node["value"], dtype=np.float64)
    left = q <= node["threshold"]
    out = np.empty(q.size)
    out[left] = walk_tree(node["left"], q[left])
    out[~left] = walk_tree(node["right"], q[~left])
    return out


def label_rect(bbox, text, width, height):
    """(x1, y1, x2, y2), exclusive, of the cells ``text`` is drawn in for a
    box: just above it, or below it when the top edge would clip the text,
    clamped inside a ``width`` x ``height`` frame."""
    text_w = len(text) * GLYPH_PITCH - 1
    tx = max(0, min(bbox.x1, width - text_w))
    ty = bbox.y1 - GLYPH_H - 1
    if ty < 0:
        ty = bbox.y2 + 1
    ty = max(0, min(ty, height - GLYPH_H))
    return tx, ty, tx + text_w, ty + GLYPH_H


def expected_overlay(base_pixels, readings, decimals):
    """Independent rasterization of render_overlay: the library's font table
    and colours, drawn one glyph cell at a time with per-pixel clipping."""
    height, width = base_pixels.shape[:2]
    out = base_pixels.copy()
    for reading in readings:
        b = reading.bbox
        for x in range(b.x1, b.x2):
            out[b.y1, x] = BOX_COLOR
            out[b.y2 - 1, x] = BOX_COLOR
        for y in range(b.y1, b.y2):
            out[y, b.x1] = BOX_COLOR
            out[y, b.x2 - 1] = BOX_COLOR
        text = f"{reading.temperature_c:.{decimals}f}°C"
        tx, ty, _, _ = label_rect(b, text, width, height)
        for pos, char in enumerate(text):
            for row, bits in enumerate(GLYPHS[char]):
                for col, bit in enumerate(bits):
                    yy, xx = ty + row, tx + pos * GLYPH_PITCH + col
                    if bit == "X" and 0 <= yy < height and 0 <= xx < width:
                        out[yy, xx] = TEXT_COLOR
    return out


def cv_grid_per_point(samples, grids, k_folds, seed):
    """``grid_search`` one grid point at a time: every fold of every point is
    refitted from its own samples with the public ``ModelSpec.fit`` and
    scored with the public ``mse`` and ``r2`` (NaN where R2 is undefined).
    It shares the model fitters with ``grid_search``, so it checks what
    ``grid_search`` shares across points: the split, the linear statistics,
    the trees cut from deeper ones and the one error sum per fold.

    Returns ``(rows, failure)``. ``rows`` holds one ``(kind, hyperparams,
    grid_index, fold_mses, fold_r2s, mean_mse, mean_r2)`` per point scored,
    ranked as ``grid_search`` ranks them, or in grid order when a fit failed;
    ``failure`` is ``None`` or the ``(grid_index, message)`` of the first
    fold fit that failed, after which no further point is scored."""
    folds = kfold_partition(len(samples), k_folds, seed)
    rows = []
    points = [(kind, dict(point)) for kind, kind_points in grids.items() for point in kind_points]
    for grid_index, (kind, hyperparams) in enumerate(points):
        spec = ModelSpec(kind, hyperparams)
        fold_mses, fold_r2s = [], []
        for fold in folds:
            held_out = {int(i) for i in fold}
            train = [s for i, s in enumerate(samples) if i not in held_out]
            test = [samples[int(i)] for i in fold]
            try:
                model = spec.fit(train)
            except ValueError as exc:
                return rows, (grid_index, f"fold underflow for {kind}: {exc}")
            truth = [s.temperature_c for s in test]
            preds = model.predict_batch([s.max_pixel for s in test])
            fold_mses.append(mse(truth, preds))
            try:
                fold_r2s.append(r2(truth, preds))
            except ValueError:
                fold_r2s.append(float("nan"))
        defined = [v for v in fold_r2s if not math.isnan(v)]
        mean_mse = sum(fold_mses) / len(fold_mses)
        mean_r2 = sum(defined) / len(defined) if defined else float("nan")
        rows.append((kind, hyperparams, grid_index, fold_mses, fold_r2s, mean_mse, mean_r2))
    rows.sort(key=lambda row: (row[5], -(row[6] if not math.isnan(row[6]) else -math.inf), row[2]))
    return rows, None


def full_width_report(dets_per_image, gts_per_image, thresholds):
    """``map_over_thresholds`` as it was before the candidate walk, for the
    bit-identity check: every rank's claim looks at every truth of its
    image, and each threshold's AP is computed on its own from a Python
    list of flags. The IoU table is built pair by pair with ``iou_corners``
    (exact integer steps and one true division, like the library's ``iou``).

    Returns a ``DetectionEvalReport`` to compare with ``==``."""
    images = len(gts_per_image)
    ranks = max([len(image) for image in dets_per_image] + [1])
    truths = max([len(image) for image in gts_per_image] + [1])
    ious = np.zeros((images, ranks, truths))
    confs = np.full((images, ranks), -np.inf)
    det_valid = np.zeros((images, ranks), dtype=bool)
    for i, (dets, gts) in enumerate(zip(dets_per_image, gts_per_image)):
        for a, det in enumerate(dets):
            confs[i, a] = det.confidence
            det_valid[i, a] = True
            d = (det.bbox.x1, det.bbox.y1, det.bbox.x2, det.bbox.y2)
            for b, gt in enumerate(gts):
                ious[i, a, b] = iou_corners(d, (gt.x1, gt.y1, gt.x2, gt.y2))

    swept = list(dict.fromkeys(float(thr) for thr in [*thresholds, 0.5]))
    thr = np.asarray(swept)[:, None]
    claimed = np.zeros((len(swept), images, truths), dtype=bool)
    walked = np.zeros((len(swept), images, ranks), dtype=bool)
    t_index, i_index = np.ix_(np.arange(len(swept)), np.arange(images))
    for rank in range(ranks):
        candidates = np.where(claimed, -1.0, ious[:, rank])
        best_j = candidates.argmax(axis=2)
        best = candidates.max(axis=2)
        hit = (best >= thr) & (best > 0.0)
        claimed[t_index, i_index, best_j] |= hit
        walked[:, :, rank] = hit
    flags, confs = walked[:, det_valid], confs[det_valid]

    order = np.argsort(-confs, kind="stable")
    total_gt = sum(len(gts) for gts in gts_per_image)

    def average_precision(tp_flags):
        flags = np.asarray(tp_flags, dtype=bool)
        if total_gt == 0:
            return 0.0 if flags.size else 1.0
        if flags.size == 0:
            return 0.0
        tp = np.cumsum(flags)
        fp = np.cumsum(~flags)
        recall = tp / total_gt
        precision = tp / (tp + fp)
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        recall_steps = np.diff(np.concatenate(([0.0], recall)))
        return math.fsum(recall_steps * envelope)

    pooled = {level: flags[t, order].tolist() for t, level in enumerate(swept)}
    ap_by_threshold = {float(level): average_precision(pooled[float(level)]) for level in thresholds}
    tp = sum(pooled[0.5])
    n_det = len(pooled[0.5])
    return DetectionEvalReport(
        precision=tp / n_det if n_det else 0.0,
        recall=tp / total_gt if total_gt else 0.0,
        map_50=ap_by_threshold.get(0.5, float("nan")),
        map_50_95=float(np.mean(list(ap_by_threshold.values()))),
        ap_by_threshold=ap_by_threshold,
        num_images=images,
        num_gt=total_gt,
        num_detections=n_det,
    )


def resize_all_at_once(pixels, target_w, target_h):
    """Bilinear resize as one whole-frame formula: gather the four corner
    planes of every output pixel, blend along x into ``top`` and ``bottom``,
    then along y. The library's former ``resize`` body, kept as its oracle."""
    height, width = pixels.shape[:2]
    if (target_w, target_h) == (width, height):
        return pixels.copy()
    src = pixels.astype(np.float64)
    xs = (np.arange(target_w) + 0.5) * (width / target_w) - 0.5
    ys = (np.arange(target_h) + 0.5) * (height / target_h) - 0.5
    x0 = np.floor(xs)
    y0 = np.floor(ys)
    fx = xs - x0
    fy = ys - y0
    x0i = np.clip(x0.astype(np.int64), 0, width - 1)
    x1i = np.clip(x0.astype(np.int64) + 1, 0, width - 1)
    y0i = np.clip(y0.astype(np.int64), 0, height - 1)
    y1i = np.clip(y0.astype(np.int64) + 1, 0, height - 1)
    c00 = src[y0i[:, None], x0i[None, :]]
    c01 = src[y0i[:, None], x1i[None, :]]
    c10 = src[y1i[:, None], x0i[None, :]]
    c11 = src[y1i[:, None], x1i[None, :]]
    if pixels.ndim == 3:
        fxb, fyb = fx[None, :, None], fy[:, None, None]
    else:
        fxb, fyb = fx[None, :], fy[:, None]
    top = c00 + fxb * (c01 - c00)
    bottom = c10 + fxb * (c11 - c10)
    out = top + fyb * (bottom - top)
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def netpbm_header_scan(data, path):
    """Binary PGM/PPM header fields and raster offset, read byte by byte:
    (width, height, channels, offset). The library's former header scanner,
    kept as the oracle of its tokenizer."""
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise FrameFormatError(f"{path}: not a binary PGM/PPM file")
    channels = 1 if data[:2] == b"P5" else 3
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise FrameFormatError(f"{path}: malformed header token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise FrameFormatError(f"{path}: unsupported maxval {maxval}, expected 255")
    if width <= 0 or height <= 0:
        raise FrameFormatError(f"{path}: non-positive dimensions {width}x{height}")
    pos += 1
    if len(data) - pos != width * height * channels:
        raise FrameFormatError(
            f"{path}: raster holds {len(data) - pos} bytes, expected {width * height * channels}"
        )
    return width, height, channels, pos
