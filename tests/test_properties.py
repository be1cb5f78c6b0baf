"""High-volume property suites for the pure functions.

Each property here runs at least 1000 generated cases; faster spot checks of
the same invariants live in the per-module test files.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from thermotrack.annotations import (
    EDGE_TOLERANCE,
    NormBBox,
    PixelBBox,
    mirrored_horizontal,
    parse_yolo_text,
    serialize_yolo,
)
from thermotrack.deteval import iou
from thermotrack.frameio import DatasetItem, ThermalFrame, horizontal_flip
from thermotrack.pipeline import TempReading, render_overlay
from thermotrack.annotations import GroundTruthLabel
from thermotrack import _forest, thermoreg
from thermotrack.thermoreg import (
    MODEL_KINDS,
    CalibrationSample,
    ModelSpec,
    grid_search,
    kfold_partition,
)

from _oracles import (
    bfs_components,
    cv_grid_per_point,
    expected_overlay,
    knn_sorted_mean,
    recursive_tree,
    walk_tree,
)
from test_detectors import ALL_BLOBS, assert_blobs_match
from test_thermoreg import scorers_spied

BULK = settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])

pixel_boxes = st.builds(
    lambda x1, y1, w, h: PixelBBox(x1, y1, x1 + w, y1 + h),
    x1=st.integers(0, 200),
    y1=st.integers(0, 200),
    w=st.integers(1, 150),
    h=st.integers(1, 150),
)


def _grid_box(rng):
    w_u = int(rng.integers(2, 400_000))
    h_u = int(rng.integers(2, 400_000))
    cx_u = int(rng.integers(w_u // 2 + 1, 1_000_000 - w_u // 2))
    cy_u = int(rng.integers(h_u // 2 + 1, 1_000_000 - h_u // 2))
    return NormBBox(0, cx_u / 1e6, cy_u / 1e6, w_u / 1e6, h_u / 1e6)


@BULK
@given(pixel_boxes, pixel_boxes)
def test_iou_symmetry_and_bounds(a, b):
    forward = iou(a, b)
    assert forward == iou(b, a)
    assert 0.0 <= forward <= 1.0
    assert iou(a, a) == 1.0


@BULK
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 20),
    height=st.integers(1, 20),
    n_labels=st.integers(0, 4),
)
def test_flip_involution(seed, width, height, n_labels):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (height, width), dtype=np.uint8)
    labels = [GroundTruthLabel(_grid_box(rng)) for _ in range(n_labels)]
    item = DatasetItem(ThermalFrame(pixels), labels)
    twice = horizontal_flip(horizontal_flip(item))
    assert np.array_equal(twice.frame.pixels, item.frame.pixels)
    assert twice.labels == item.labels


@st.composite
def _side_edge_boxes(draw):
    """Valid boxes whose left or right edge lies within EDGE_TOLERANCE of the frame edge."""
    w = draw(st.floats(1e-3, 1.0))
    h = draw(st.floats(1e-3, 1.0))
    overflow = draw(st.floats(-EDGE_TOLERANCE, EDGE_TOLERANCE))
    cx = w / 2 - overflow if draw(st.booleans()) else 1.0 - w / 2 + overflow
    cy = draw(st.floats(h / 2, 1.0 - h / 2))
    try:
        return NormBBox(draw(st.integers(0, 9)), cx, cy, w, h)
    except ValueError:
        assume(False)


@BULK
@given(_side_edge_boxes())
def test_mirror_of_edge_box_stays_valid(box):
    mirrored = mirrored_horizontal(box)
    assert (mirrored.class_id, mirrored.cy, mirrored.w, mirrored.h) == (box.class_id, box.cy, box.w, box.h)
    assert abs(mirrored.cx - (1.0 - box.cx)) <= 1e-5


@BULK
@given(seed=st.integers(0, 2**32 - 1))
def test_label_round_trip(seed):
    rng = np.random.default_rng(seed)
    grid = _grid_box(rng)
    assert parse_yolo_text(serialize_yolo([grid])) == [grid]
    # arbitrary (off-grid) boxes survive within the serialization precision
    w = float(rng.uniform(1e-5, 0.9))
    h = float(rng.uniform(1e-5, 0.9))
    box = NormBBox(
        0,
        float(rng.uniform(w / 2, 1 - w / 2)),
        float(rng.uniform(h / 2, 1 - h / 2)),
        w,
        h,
    )
    (back,) = parse_yolo_text(serialize_yolo([box]))
    assert abs(back.cx - box.cx) <= 1e-6
    assert abs(back.cy - box.cy) <= 1e-6
    assert abs(back.w - box.w) <= 1e-6
    assert abs(back.h - box.h) <= 1e-6


samples_strategy = st.lists(
    st.tuples(st.integers(0, 255), st.floats(25.0, 45.0, allow_nan=False)),
    min_size=2,
    max_size=20,
    unique_by=lambda pair: pair[0],
)


@BULK
@given(
    pairs=samples_strategy,
    lam_a=st.floats(0.0, 1e5, allow_nan=False),
    lam_b=st.floats(0.0, 1e5, allow_nan=False),
)
def test_ridge_slope_magnitude_monotone_in_lambda(pairs, lam_a, lam_b):
    samples = [CalibrationSample(float(p), float(t)) for p, t in pairs]
    low, high = sorted((lam_a, lam_b))
    slope_low = abs(ModelSpec("ridge", {"lambda": low}).fit(samples).params["slope"])
    slope_high = abs(ModelSpec("ridge", {"lambda": high}).fit(samples).params["slope"])
    assert slope_high <= slope_low + 1e-12


# Offsets from the fitted slope for the dense search: 1e-6 to 100, both signs,
# in absolute terms and relative to the slope.
_OFFSETS = np.array([sign * 10.0**e for e in range(-6, 3) for sign in (-1.0, 1.0)])


def _penalized_objective(pc, tc, slopes, lam, mix):
    """0.5 * SSE + lam * mix * |b| + lam * (1 - mix) * b^2 / 2 for each slope
    b, on centred data."""
    resid = tc[None, :] - slopes[:, None] * pc[None, :]
    penalty = lam * mix * np.abs(slopes) + 0.5 * lam * (1.0 - mix) * slopes**2
    return 0.5 * np.sum(resid * resid, axis=1) + penalty


@BULK
@given(
    pairs=samples_strategy,
    lam=st.floats(0.0, 1e4, allow_nan=False),
    mix=st.floats(0.0, 1.0, allow_nan=False),
)
def test_linear_fit_minimizes_elastic_net_objective(pairs, lam, mix):
    samples = [CalibrationSample(float(p), float(t)) for p, t in pairs]
    p_bar = math.fsum(float(p) for p, _ in pairs) / len(pairs)
    t_bar = math.fsum(float(t) for _, t in pairs) / len(pairs)
    pc = np.array([float(p) - p_bar for p, _ in pairs])
    tc = np.array([float(t) - t_bar for _, t in pairs])
    sxx = math.fsum(x * x for x in pc)
    sxy = math.fsum(x * y for x, y in zip(pc, tc))
    stt = math.fsum(y * y for y in tc)
    for model, lam_k, mix_k in (
        (ModelSpec("linear", {}).fit(samples), 0.0, 0.0),
        (ModelSpec("ridge", {"lambda": lam}).fit(samples), lam, 0.0),
        (ModelSpec("lasso", {"lambda": lam}).fit(samples), lam, 1.0),
        (ModelSpec("elastic_net", {"lambda": lam, "mix": mix}).fit(samples), lam, mix),
    ):
        b = model.params["slope"]
        assert math.isfinite(b)
        l1, l2 = lam_k * mix_k, lam_k * (1.0 - mix_k)
        # KKT: Sxy - (Sxx + l2) b lies in l1 * subgradient of |b|.
        tol = 1e-9 * (math.sqrt(sxx * stt) + l1 + (sxx + l2) * abs(b)) + 1e-12
        if b == 0.0:
            assert abs(sxy) <= l1 + tol
        else:
            assert abs(sxy - (sxx + l2) * b - l1 * math.copysign(1.0, b)) <= tol
        # No nearby slope does better.
        slopes = np.concatenate(([b], b + _OFFSETS, b + abs(b) * _OFFSETS))
        objective = _penalized_objective(pc, tc, slopes, lam_k, mix_k)
        assert objective[0] <= objective[1:].min() + 1e-12 * (objective[0] + 1.0)


@BULK
@given(st.data())
def test_fold_partition_is_disjoint_cover(data):
    n = data.draw(st.integers(2, 400))
    k = data.draw(st.integers(2, min(n, 20)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    folds = kfold_partition(n, k, seed)
    assert len(folds) == k
    sizes = [len(fold) for fold in folds]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(int(i) for fold in folds for i in fold) == list(range(n))


@st.composite
def _cv_case(draw):
    """Calibration samples, grids and a fold count for ``grid_search``.

    Pixels are integers from a range of 1 to 6 values (duplicates, and at
    width 1 no pixel spread) or any floats; temperatures are constant, from
    four values, or any floats. The fold count is sometimes n (leave one
    out). Grids take one to four kinds in any order; tree depths run 0 to 6
    in any order with repeats, and k, min_samples_leaf and lambda = 0 can
    all be too much for a fold."""
    n = draw(st.integers(2, 24))
    k_folds = draw(st.one_of(st.just(n), st.integers(2, min(n, 6))))
    if draw(st.booleans()):
        low = draw(st.integers(0, 250))
        width = draw(st.integers(0, 5))
        pixel = st.integers(low, low + width).map(float)
    else:
        pixel = st.floats(0.0, 255.0)
    temp = draw(st.sampled_from([
        st.just(draw(st.floats(30.0, 40.0))),
        st.sampled_from([35.0, 36.5, 37.0, 38.25]),
        st.floats(30.0, 40.0),
    ]))
    samples = [CalibrationSample(draw(pixel), draw(temp)) for _ in range(n)]
    lam = st.sampled_from([0.0, 0.01, 1.0, 100.0])
    points = {
        "linear": st.just({}),
        "ridge": st.fixed_dictionaries({"lambda": lam}),
        "lasso": st.fixed_dictionaries({"lambda": lam}),
        "elastic_net": st.fixed_dictionaries(
            {"lambda": lam, "mix": st.sampled_from([0.0, 0.25, 1.0])}
        ),
        "knn": st.fixed_dictionaries({"k": st.integers(1, n + 1)}),
        "decision_tree": st.fixed_dictionaries(
            {"max_depth": st.integers(0, 6), "min_samples_leaf": st.integers(1, n // 2 + 1)}
        ),
    }
    kinds = draw(st.lists(st.sampled_from(MODEL_KINDS), min_size=1, max_size=4, unique=True))
    grids = {kind: draw(st.lists(points[kind], min_size=1, max_size=5)) for kind in kinds}
    return samples, grids, k_folds, draw(st.integers(0, 2**32 - 1))


def _report_rows(report):
    return [
        (e.spec.kind, dict(e.spec.hyperparams), e.grid_index, e.fold_mses, e.fold_r2s,
         e.mean_mse, e.mean_r2)
        for e in report.entries
    ]


@BULK
@given(_cv_case())
def test_grid_search_matches_per_point_oracle(case):
    samples, grids, k_folds, seed = case
    rows, failure = cv_grid_per_point(samples, grids, k_folds, seed)
    event(failure[1].split(":")[0] if failure else "scored")
    if failure is not None:
        grid_index, message = failure
        with scorers_spied() as called, pytest.raises(ValueError) as raised:
            grid_search(samples, grids, k_folds, seed)
        assert str(raised.value) == message
        assert called == []  # every point is checked before any family is scored
        # It failed at the same point: the points ahead of it score as the
        # oracle scored them, in grid order.
        ahead: dict[str, list] = {}
        for kind, point in [(kind, p) for kind, points in grids.items() for p in points][:grid_index]:
            ahead.setdefault(kind, []).append(point)
        got = _report_rows(grid_search(samples, ahead, k_folds, seed)) if ahead else []
        assert repr(sorted(got, key=lambda row: row[2])) == repr(rows)
        return
    report = grid_search(samples, grids, k_folds, seed)
    assert repr(_report_rows(report)) == repr(rows)  # bit for bit, NaN included
    all_nan = all(math.isnan(v) for e in report.entries for v in e.fold_r2s)
    event("every fold R2 NaN" if all_nan else "some fold R2 defined")


@st.composite
def _forest_case(draw):
    """One to three sample sets (as cross-validation training folds are),
    leaf sizes 1 to 6, and per leaf size the depths 0 to 6 to check, out of
    order with repeats. Pixels are integers from a range of 1 to 6 values
    or any floats. Temperatures are constant, from four values whose sums
    are exact, from three whose sums round (so splits that tie in exact
    arithmetic are told apart by rounding), or any floats. A set may hold
    exactly 2 * min_samples_leaf samples, or fewer (that tree is then not
    grown)."""
    leaves = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    depths = {leaf: draw(st.lists(st.integers(0, 6), min_size=1, max_size=4)) for leaf in leaves}
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.one_of(st.integers(2, 40), st.sampled_from(leaves).map(lambda leaf: 2 * leaf)))
        if draw(st.booleans()):
            low = draw(st.integers(0, 250))
            pixel = st.integers(low, low + draw(st.integers(0, 5))).map(float)
        else:
            pixel = st.floats(0.0, 255.0)
        temp = draw(st.sampled_from([
            st.just(draw(st.floats(30.0, 40.0))),
            st.sampled_from([35.0, 36.5, 37.0, 38.25]),
            st.sampled_from([36.6, 36.7, 37.1]),
            st.floats(30.0, 40.0),
        ]))
        pixels = np.array([draw(pixel) for _ in range(n)])
        sets.append((pixels, np.array([draw(temp) for _ in range(n)])))
    return sets, depths


@BULK
@given(_forest_case())
def test_forest_matches_recursive_oracle(case):
    """Every tree of one level-wise forest, cut at each depth, equals the
    recursive oracle grown to that depth, and one route of its queries
    gives that tree's predictions at every depth."""
    sets, depths = case
    trees = [(i, leaf) for i, (p, _) in enumerate(sets) for leaf in depths if p.size >= 2 * leaf]
    event("no tree" if not trees else "one tree" if len(trees) == 1 else "several trees")
    if not trees:
        return
    for i, leaf in trees:
        p, t = sets[i]
        event("n = 2 * min_samples_leaf" if p.size == 2 * leaf else "n > 2 * min_samples_leaf")
        event("duplicate pixels" if np.unique(p).size < p.size else "distinct pixels")
        event("constant temperatures" if np.all(t == t[0]) else "varied temperatures")
    orders = [np.argsort(p, kind="stable") for p, _ in sets]
    sizes = np.array([p.size for p, _ in sets])
    starts = np.cumsum(sizes) - sizes
    owner = np.array([i for i, _ in trees])
    levels = _forest.grow_forest(
        np.concatenate([p[order] for (p, _), order in zip(sets, orders)]),
        np.concatenate([t[order] for (_, t), order in zip(sets, orders)]),
        starts[owner],
        sizes[owner],
        np.array([leaf for _, leaf in trees]),
        np.array([max(depths[leaf]) for _, leaf in trees]),
    )
    # Each tree's queries: its own pixels, every midpoint between them, and
    # pixels outside their range.
    queries = []
    for i, _ in trees:
        p = np.unique(sets[i][0])
        queries.append(np.concatenate([p, (p[:-1] + p[1:]) / 2.0, [p[0] - 1.0, p[-1] + 1.0]]))
    roots = np.repeat(np.arange(len(trees)), [q.size for q in queries])
    routed = _forest.route(levels, roots, np.concatenate(queries))
    at = 0
    for tree, ((i, leaf), q) in enumerate(zip(trees, queries)):
        for depth in depths[leaf]:
            oracle = recursive_tree(*sets[i], depth, leaf)
            assert repr(_forest.tree_dict(levels, tree, depth)) == repr(oracle)
            preds = routed[min(depth, len(levels) - 1), at : at + q.size]
            assert np.array_equal(preds, walk_tree(oracle, q))
        at += q.size
    event(f"{len(levels) - 1} levels split")
    # Trees of one set with different leaf sizes search one root segment.
    searched = [i for i, leaf in trees if max(depths[leaf]) > 0]
    shared = len(searched) > len(set(searched))
    event("segment shared by trees of different leaf sizes" if shared else "no segment shared")


def _nudged(pixel: int, ulps: int) -> float:
    """``pixel`` moved up by a few ulps: distinct stored pixels that can round
    to the same distance from a far query."""
    value = float(pixel)
    for _ in range(ulps):
        value = math.nextafter(value, math.inf)
    return value


@BULK
@given(seed=st.integers(0, 2**32 - 1))
def test_knn_predict_batch_matches_sorted_oracle(seed):
    # Integer pixels from a narrow range force duplicates and exact distance
    # ties; half-pixel queries near the range add ties between neighbors.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 31))
    low = int(rng.integers(0, 246))
    pixels = [
        _nudged(int(p), int(u)) for p, u in zip(rng.integers(low, low + 6, n), rng.integers(0, 3, n))
    ]
    temps = [float(t) for t in rng.uniform(0.0, 60.0, n)]
    k = int(rng.integers(1, n + 1))
    queries = [h / 2 for h in rng.integers(2 * low - 6, 2 * low + 17, 5).tolist()]
    queries += rng.uniform(0.0, 255.0, 5).tolist()
    model = ModelSpec("knn", {"k": k}).fit([CalibrationSample(p, t) for p, t in zip(pixels, temps)])
    expected = [knn_sorted_mean(pixels, temps, k, q) for q in queries]
    assert model.predict_batch(queries).tolist() == expected


def _lower_edge_tie(values: np.ndarray, k: int, query: float) -> bool:
    """Whether the k-th and (k+1)-th distinct pixels below ``query`` round to
    the same distance from it: the case ``_knn_batch`` rescans."""
    below = values[values < query]
    return below.size > k and abs(below[-k - 1] - query) == abs(below[-k] - query)


@BULK
@given(seed=st.integers(0, 2**32 - 1))
def test_knn_batch_over_several_k_matches_sorted_oracle(seed):
    # One call for several k (unsorted, with repeats) must give, row by row,
    # each k's sorted-oracle mean, -0.0 temperatures summed as sum() adds.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 31))
    low = int(rng.integers(0, 246))
    pixels = [
        _nudged(int(p), int(u)) for p, u in zip(rng.integers(low, low + 6, n), rng.integers(0, 3, n))
    ]
    temps = [-0.0 if zero else float(t) for t, zero in zip(rng.uniform(0.0, 60.0, n), rng.random(n) < 0.2)]
    ks = rng.integers(1, n + 1, int(rng.integers(1, 5))).tolist()
    queries = [h / 2 for h in rng.integers(2 * low - 6, 2 * low + 17, 5).tolist()]
    queries += rng.uniform(0.0, 255.0, 5).tolist()
    means = thermoreg._knn_batch(np.array(pixels), np.array(temps), ks, np.array(queries))
    expected = [[knn_sorted_mean(pixels, temps, k, q) for q in queries] for k in ks]
    assert repr(means.tolist()) == repr(expected)
    values = np.unique(pixels)
    tied = any(_lower_edge_tie(values, max(ks), q) for q in queries)
    event("lower-edge tie rescanned" if tied else "no lower-edge tie")
    event("several k" if len(set(ks)) > 1 else "one k")


@BULK
@given(seed=st.integers(0, 2**32 - 1))
def test_knn_batch_over_all_folds_matches_each_folds_sorted_oracle(seed):
    # One call for every fold must give each query, for each k, the
    # sorted-oracle mean over the samples outside the query's own fold.
    # Folds are unequal when the fold count does not divide n, and a fold's
    # training set can hold fewer than max(ks) distinct pixels on a side.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    folds = kfold_partition(n, int(rng.integers(2, n + 1)), seed)
    fold_of = np.empty(n, dtype=np.intp)
    for i, fold in enumerate(folds):
        fold_of[fold] = i
    low = int(rng.integers(0, 246))
    pixels = [
        _nudged(int(p), int(u)) for p, u in zip(rng.integers(low, low + 6, n), rng.integers(0, 3, n))
    ]
    temps = [-0.0 if zero else float(t) for t, zero in zip(rng.uniform(0.0, 60.0, n), rng.random(n) < 0.2)]
    ks = rng.integers(1, n - max(f.size for f in folds) + 1, int(rng.integers(1, 5))).tolist()
    # Each fold's own test pixels plus half-pixel and uniform queries, in shuffled order.
    queries, q_folds = [], []
    for i, fold in enumerate(folds):
        extra = [h / 2 for h in rng.integers(2 * low - 6, 2 * low + 17, 2).tolist()]
        extra += rng.uniform(0.0, 255.0, 1).tolist()
        queries += [pixels[j] for j in fold.tolist()] + extra
        q_folds += [i] * (fold.size + len(extra))
    shuffle = rng.permutation(len(queries))
    queries = [queries[j] for j in shuffle]
    q_folds = [q_folds[j] for j in shuffle]
    # Small window blocks split the queries over several blocks, as n = 5 000 does.
    block_cells = int(rng.choice([thermoreg._KNN_BLOCK_CELLS, int(rng.integers(1, 8 * max(ks)))]))
    with mock.patch.object(thermoreg, "_KNN_BLOCK_CELLS", block_cells):
        means = thermoreg._knn_batch(
            np.array(pixels), np.array(temps), ks, np.array(queries), fold_of, np.array(q_folds)
        )
    train = [[j for j in range(n) if fold_of[j] != i] for i in range(len(folds))]
    expected = [
        [knn_sorted_mean([pixels[j] for j in train[i]], [temps[j] for j in train[i]], k, q)
         for q, i in zip(queries, q_folds)]
        for k in ks
    ]
    assert repr(means.tolist()) == repr(expected)
    k = max(ks)
    values = [np.unique([pixels[j] for j in train[i]]) for i in range(len(folds))]
    # A window is clipped at its fold's edge when fewer than k of the fold's
    # distinct pixels lie on one side of a query inside the fold's range.
    clipped = any(
        values[i][0] <= q <= values[i][-1] and min(np.sum(values[i] < q), np.sum(values[i] >= q)) < k
        for q, i in zip(queries, q_folds)
    )
    tied = any(_lower_edge_tie(values[i], k, q) for q, i in zip(queries, q_folds))
    event("window clipped at a fold edge" if clipped else "no window clipped")
    event("lower-edge tie rescanned" if tied else "no lower-edge tie")
    event("unequal folds" if n % len(folds) else "equal folds")
    event("several window blocks" if len(queries) > max(1, block_cells // (2 * k)) else "one window block")


@BULK
@given(seed=st.integers(0, 2**32 - 1))
def test_predict_agrees_with_predict_batch(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 21))
    pixels = rng.choice(256, size=n, replace=False).astype(float)
    samples = [CalibrationSample(p, t) for p, t in zip(pixels.tolist(), rng.uniform(25, 45, n).tolist())]
    queries = rng.uniform(-50.0, 300.0, 3).tolist() + rng.integers(0, 256, 3).tolist()
    models = [
        ModelSpec("linear", {}).fit(samples),
        ModelSpec("ridge", {"lambda": 1.0}).fit(samples),
        ModelSpec("lasso", {"lambda": 1.0}).fit(samples),
        ModelSpec("elastic_net", {"lambda": 1.0, "mix": 0.5}).fit(samples),
        ModelSpec("knn", {"k": min(3, n)}).fit(samples),
        ModelSpec("decision_tree", {"max_depth": 3, "min_samples_leaf": 1}).fit(samples),
    ]
    for model in models:
        batch = model.predict_batch(queries).tolist()
        assert [model.predict(q) for q in queries] == batch
        assert all(model.predict(q) == model.predict_batch([q])[0] for q in queries)


@st.composite
def _overlay_case(draw):
    """A BGR frame from 1x1 up to wider than the longest label, with boxes
    that may touch any edge, temperatures from -1e6 to 1e6 and 0-3 decimals."""
    width = draw(st.integers(1, 100))
    height = draw(st.integers(1, 40))
    readings = []
    for _ in range(draw(st.integers(0, 4))):
        x1 = draw(st.integers(0, width - 1))
        y1 = draw(st.integers(0, height - 1))
        box = PixelBBox(x1, y1, draw(st.integers(x1 + 1, width)), draw(st.integers(y1 + 1, height)))
        temperature = draw(st.floats(-1e6, 1e6, allow_nan=False))
        readings.append(TempReading(0, box, 0, temperature, False))
    seed = draw(st.integers(0, 2**32 - 1))
    pixels = np.random.default_rng(seed).integers(0, 256, (height, width, 3), dtype=np.uint8)
    return ThermalFrame(pixels), readings, draw(st.integers(0, 3))


@BULK
@given(_overlay_case())
def test_render_overlay_matches_oracle(case):
    frame, readings, decimals = case
    before = frame.pixels.copy()
    out = render_overlay(frame, readings, decimals)
    assert np.array_equal(out.pixels, expected_overlay(before, readings, decimals))
    assert np.array_equal(frame.pixels, before)


@st.composite
def _threshold_frame(draw):
    """A gray frame of 1xN, Nx1 or up to 40x40 whose foreground under
    ALL_BLOBS is empty, full, or random at any density, with varied
    intensities on both sides of the threshold."""
    shape = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1)),
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
    ))
    density = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hot = rng.random(shape) < density
    return np.where(hot, rng.integers(128, 256, shape), rng.integers(0, 128, shape)).astype(np.uint8)


@BULK
@given(_threshold_frame())
def test_blob_labels_match_bfs_oracle(pixels):
    assert_blobs_match(pixels, bfs_components(pixels >= ALL_BLOBS.intensity_threshold))
