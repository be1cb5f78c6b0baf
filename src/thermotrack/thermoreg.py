"""Pixel-to-temperature calibration.

A fitted model maps the maximum 8-bit intensity inside a face region to a
temperature in degrees Celsius. The linear family (plain least squares,
ridge, lasso, elastic net) predicts exactly ``intercept + slope * pixel``;
the residual spread shows up as the training MSE and is never added back at
inference. Nearest-neighbor and regression-tree models round out the
comparison set; heavier ensemble regressors are deliberately out: they are
too slow for a live video loop on an edge board, though the ``ModelSpec``
contract leaves room to add them.

Model selection runs every grid point through seeded k-fold
cross-validation, ranks by CV error, and then applies a physiological
plausibility guard: a candidate that predicts above a fever ceiling on a
known-healthy screening population is rejected and the next-ranked
candidate is taken.

Every kind's ``predict`` and ``predict_batch`` reject a NaN or infinite
pixel with ValueError. A tree is grown, saved, read back and routed by
``_forest``; this module never reads the saved tree's keys. Cross-validation
builds each fold's training set only where it is used, so its memory grows
linearly in the sample count for any fold count, leave-one-out included.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import _forest
from ._forest import is_finite
from .frameio import atomic_write_text

LINEAR_KINDS = ("linear", "ridge", "lasso", "elastic_net")
MODEL_KINDS = LINEAR_KINDS + ("knn", "decision_tree")

MODEL_FORMAT = "thermotrack-model"
MODEL_FORMAT_VERSION = 1

DEFAULT_FEVER_CEILING_C = 38.0

_LAMBDA_GRID = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
DEFAULT_GRIDS: dict[str, list[dict]] = {
    "linear": [{}],
    "ridge": [{"lambda": lam} for lam in _LAMBDA_GRID],
    "lasso": [{"lambda": lam} for lam in _LAMBDA_GRID],
    "elastic_net": [
        {"lambda": lam, "mix": mix} for lam in _LAMBDA_GRID for mix in (0.25, 0.5, 0.75)
    ],
    "knn": [{"k": k} for k in (1, 3, 5, 7)],
    "decision_tree": [
        {"max_depth": d, "min_samples_leaf": m} for d in (1, 2, 3, 4) for m in (1, 3, 5)
    ],
}

# Hyperparameter names of each kind, exactly as grids and model JSON spell them.
_HYPERPARAM_NAMES: dict[str, tuple[str, ...]] = {
    "linear": (),
    "ridge": ("lambda",),
    "lasso": ("lambda",),
    "elastic_net": ("lambda", "mix"),
    "knn": ("k",),
    "decision_tree": ("max_depth", "min_samples_leaf"),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The sample-independent range of each hyperparameter, checked by ModelSpec;
# the fitters check only what depends on the training samples.
_HYPERPARAM_RANGES: dict[str, tuple[str, Callable[[object], bool]]] = {
    "lambda": ("a finite number >= 0", lambda v: is_finite(v) and v >= 0),
    "mix": ("a number in [0, 1]", lambda v: is_finite(v) and 0 <= v <= 1),
    "k": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "max_depth": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "min_samples_leaf": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
}
# The linear kinds share one fitter; each fixes the penalty its names leave out.
_LINEAR_FIXED: dict[str, dict[str, float]] = {
    "linear": {"lambda": 0.0, "mix": 0.0},
    "ridge": {"mix": 0.0},
    "lasso": {"mix": 1.0},
    "elastic_net": {},
}


class NoViableModelError(RuntimeError):
    """Every ranked candidate failed the plausibility guard."""


@dataclass(frozen=True)
class CalibrationSample:
    """One calibration pair: max ROI intensity and contact-measured temperature."""

    max_pixel: float
    temperature_c: float

    def __post_init__(self) -> None:
        # The ranges alone reject NaN, infinities and ints too large for a float.
        if not 0.0 <= self.max_pixel <= 255.0:
            raise ValueError(f"max_pixel {self.max_pixel!r} outside [0, 255]")
        if not 0.0 <= self.temperature_c <= 60.0:
            raise ValueError(f"temperature_c {self.temperature_c!r} outside [0, 60]")


@dataclass
class FittedRegressor:
    """A trained pixel->temperature model.

    ``params`` holds the kind-specific fitted state (intercept/slope for the
    linear family, stored samples in insertion order for knn, the split tree
    for trees); ``hyperparams`` the knobs it was fitted with;
    ``train_mse``/``train_r2`` the in-sample diagnostics (R2 is NaN when the
    training temperatures are constant) and ``training_digest`` the sha256 of
    the training pairs. ``ModelSpec.fit``, the only fitter, fills in all
    three; a model built directly leaves them at NaN and "".

    ``predict_batch`` works on whole arrays for every kind and agrees bit for
    bit with ``predict``. Both raise ValueError on a NaN or infinite pixel.
    knn ranks stored samples by distance, then lower pixel, then insertion
    order, and sums the k nearest temperatures left to right. A tree is read
    from its saved dict into ``_forest`` levels on every call and routed
    there, with no state kept between calls.
    """

    kind: str
    params: dict
    hyperparams: dict = field(default_factory=dict)
    train_mse: float = float("nan")
    train_r2: float = float("nan")
    training_digest: str = ""
    provenance: dict | None = None

    def predict(self, max_pixel: float) -> float:
        if not math.isfinite(max_pixel):
            raise ValueError(f"max_pixel must be finite, got {max_pixel!r}")
        if self.kind in LINEAR_KINDS:
            return self.params["intercept"] + self.params["slope"] * float(max_pixel)
        return float(self.predict_batch([max_pixel])[0])

    def predict_batch(self, pixels: Iterable[float]) -> np.ndarray:
        q = np.asarray(pixels if isinstance(pixels, np.ndarray) else list(pixels), dtype=np.float64)
        if not np.isfinite(q).all():
            raise ValueError("pixels must be finite")
        if self.kind in LINEAR_KINDS:
            return self.params["intercept"] + self.params["slope"] * q
        if self.kind == "knn":
            pixels = np.asarray(self.params["pixels"], dtype=np.float64)
            temps = np.asarray(self.params["temps"], dtype=np.float64)
            return _knn_batch(pixels, temps, (self.params["k"],), q)[0]
        if self.kind == "decision_tree":
            levels = _forest.tree_levels(self.params["tree"])
            return _forest.route(levels, np.zeros(q.size, dtype=np.intp), q)[-1]
        raise ValueError(f"unknown model kind {self.kind!r}")


# Cells of one kNN window block: queries times the 2 * max(ks) runs each
# searches. A cross-validation call answers every fold's queries, so this
# keeps its block near one fold's at n = 5 000; n = 200 fits in one block.
_KNN_BLOCK_CELLS = 1 << 14
# Training samples one cross-validation call holds, its folds' training sets
# back to back: one ``_knn_batch`` call, or one tree forest grown and routed.
# Five folds of up to 13 000 samples fit in one call; leave-one-out takes
# several, so its memory stays linear in n.
_CV_CALL_SAMPLES = 1 << 16


def _knn_batch(
    pixels: np.ndarray,
    temps: np.ndarray,
    ks: Sequence[int],
    q: np.ndarray,
    folds: np.ndarray | None = None,
    q_folds: np.ndarray | None = None,
) -> np.ndarray:
    """Row i: the unweighted mean of the ``ks[i]`` stored temperatures nearest
    each query pixel by |dpixel|, with samples given in insertion order.

    Without ``folds`` every query is answered from all samples. With each
    sample's fold in ``folds`` and each query's in ``q_folds``, a query is
    answered from the samples outside its own fold, as cross-validation
    trains, so one call answers every fold. One stable sort of all samples
    gives each query fold's training samples in (pixel, insertion) order,
    fold after fold, grouped into runs of equal pixels; each query's window
    of runs is clipped to its own fold's runs. One window and running sum
    at ``max(ks)`` serve every k.
    """
    order = np.argsort(pixels, kind="stable")  # by (pixel, insertion index)
    if folds is None:
        sets, q_set = [order], np.zeros(q.size, dtype=np.intp)
    else:
        held_out, q_set = np.unique(q_folds, return_inverse=True)
        sets = [order[folds[order] != fold] for fold in held_out.tolist()]
    first = np.array([0] + [s.size for s in sets]).cumsum()  # set i is order[first[i]:first[i + 1]]
    order = np.concatenate(sets)
    temps = temps[order] + 0.0  # -0.0 to 0.0, as a sum that starts from 0.0 adds it
    pixels = pixels[order]
    # One run per distinct pixel value of a set: its samples are temps[start:start + count].
    new_run = np.concatenate(([True], pixels[1:] != pixels[:-1]))
    new_run[first[:-1]] = True
    starts = np.flatnonzero(new_run)
    counts = np.append(starts[1:], pixels.size) - starts
    values = pixels[starts]
    edges = np.searchsorted(starts, first)  # set i holds runs edges[i]:edges[i + 1]
    lo, hi = edges[q_set], edges[q_set + 1]
    pos = np.empty(q.size, dtype=np.intp)  # values[pos - 1] < q <= values[pos] within the set
    for i in range(len(sets)):
        at = q_set == i
        pos[at] = edges[i] + np.searchsorted(values[edges[i] : edges[i + 1]], q[at])
    k = max(ks)

    def window_sums(
        q: np.ndarray, pos: np.ndarray, lo: np.ndarray, hi: np.ndarray, width: int
    ) -> np.ndarray:
        # Only the `width` nearest runs on each side of q can hold one of the
        # k nearest samples. Rank them by (distance, pixel): columns are in
        # ascending pixel order and the sort is stable. Runs past either end
        # of the query's set, runs lo to hi - 1, are clipped duplicates given
        # zero samples.
        rows = np.arange(q.size)[:, None]
        cols = pos[:, None] + np.arange(-width, width)
        lo, hi = lo[:, None], hi[:, None] - 1
        inside = (cols >= lo) & (cols <= hi)
        cols = np.clip(cols, lo, hi)
        sizes = np.where(inside, counts[cols], 0)
        rank = np.argsort(np.abs(values[cols] - q[:, None]), axis=1, kind="stable")
        cols, sizes = cols[rows, rank], sizes[rows, rank]
        # Fill the k slots run by run, each run in insertion order.
        ends = np.cumsum(sizes, axis=1)
        slots = np.arange(k)
        run = (ends[:, :, None] <= slots).sum(axis=1)
        first_slot = (ends - sizes)[rows, run]
        picked = temps[starts[cols[rows, run]] + slots - first_slot]
        return np.cumsum(picked, axis=1)  # left to right, as Python's sum() adds

    block = max(1, _KNN_BLOCK_CELLS // (2 * k))
    sums = np.concatenate([
        window_sums(q[a : a + block], pos[a : a + block], lo[a : a + block], hi[a : a + block], k)
        for a in range(0, max(q.size, 1), block)
    ])
    # Rounded distances on the lower side can tie across distinct pixels; the
    # lower (farther) one then wins, so the run just past the window may
    # belong in it. Rescan such queries over every run of their set, one set
    # at a time, so the block is one set's queries by its runs.
    edge = pos - k  # the window's farthest lower run
    tied = edge > lo
    edge, near = edge[tied], q[tied]
    tied[tied] = np.abs(values[edge - 1] - near) == np.abs(values[edge] - near)
    for i in dict.fromkeys(q_set[tied].tolist()):
        at = tied & (q_set == i)
        sums[at] = window_sums(q[at], pos[at], lo[at], hi[at], int(edges[i + 1] - edges[i]))
    return np.stack([sums[:, j - 1] / j for j in ks])


def _as_xy(samples: Sequence[CalibrationSample]) -> tuple[np.ndarray, np.ndarray]:
    p = np.array([s.max_pixel for s in samples], dtype=np.float64)
    t = np.array([s.temperature_c for s in samples], dtype=np.float64)
    return p, t


def _digest(samples: Sequence[CalibrationSample]) -> str:
    body = "\n".join(f"{s.max_pixel!r},{s.temperature_c!r}" for s in samples)
    return "sha256:" + hashlib.sha256(body.encode("ascii")).hexdigest()


def _linear_stats(p: np.ndarray, t: np.ndarray) -> tuple[float, float, float, float, int]:
    """The sufficient statistics of a linear fit: p_bar, t_bar, Sxx and Sxy on
    centred data, and the number of distinct pixel values."""
    if p.size < 2:
        raise ValueError("need at least 2 samples")
    p_bar = float(p.mean())
    t_bar = float(t.mean())
    pc = p - p_bar
    sxx = float(np.sum(pc * pc))
    sxy = float(np.sum(pc * (t - t_bar)))
    return p_bar, t_bar, sxx, sxy, int(np.unique(p).size)


def _linear_coef(stats: Sequence, lam: np.ndarray, mix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimiser of 0.5 * SSE + lam * (mix * |b| + (1 - mix) * b^2 / 2),
    as (intercept, slope), from ``_linear_stats``, for each (lam, mix) pair.

    With one feature, the soft-threshold update on centred data is the
    closed-form solution: slope = soft(Sxy, lam * mix) / (Sxx + lam * (1 - mix)),
    and 0 when the denominator is 0 (no pixel spread and no L2 penalty). The
    intercept is unpenalized. Least squares is lam = 0, ridge mix = 0 and
    lasso mix = 1, so each equals elastic net at those values bit for bit.
    """
    p_bar, t_bar, sxx, sxy, _ = stats
    denom = sxx + lam * (1.0 - mix)
    shrunk = np.copysign(np.maximum(abs(sxy) - lam * mix, 0.0), sxy)
    slope = np.divide(shrunk, denom, out=np.zeros_like(denom), where=denom != 0.0)
    return t_bar - slope * p_bar, slope


def _grow(sets: list[tuple[np.ndarray, np.ndarray]], leaves: list[int], depth: int) -> list:
    """One forest to ``depth``: tree ``j * len(sets) + i`` has leaf size ``leaves[j]`` on ``sets[i]``."""
    orders = [np.argsort(p, kind="stable") for p, _ in sets]
    sizes = np.array([order.size for order in orders])
    return _forest.grow_forest(
        np.concatenate([p[order] for (p, _), order in zip(sets, orders)]),
        np.concatenate([t[order] for (_, t), order in zip(sets, orders)]),
        np.tile(np.cumsum(sizes) - sizes, len(leaves)),
        np.tile(sizes, len(leaves)),
        np.repeat(leaves, sizes.size),
        np.full(len(leaves) * sizes.size, depth),
    )


def mse(truth: Sequence[float], pred: Sequence[float]) -> float:
    """Mean squared error in squared degrees Celsius."""
    t = np.asarray(truth, dtype=np.float64)
    y = np.asarray(pred, dtype=np.float64)
    if t.size == 0 or t.shape != y.shape:
        raise ValueError(f"need equal nonzero lengths, got {t.shape} and {y.shape}")
    return float(np.mean((t - y) ** 2))


def r2(truth: Sequence[float], pred: Sequence[float]) -> float:
    """Coefficient of determination: 1 - SSE / SST.

    Undefined (raises) when the truth vector is constant.
    """
    t = np.asarray(truth, dtype=np.float64)
    y = np.asarray(pred, dtype=np.float64)
    if t.size < 2 or t.shape != y.shape:
        raise ValueError(f"need equal lengths >= 2, got {t.shape} and {y.shape}")
    sst = float(np.sum((t - t.mean()) ** 2))
    if sst == 0.0:
        raise ValueError("truth is constant: R2 is undefined")
    return 1.0 - float(np.sum((t - y) ** 2)) / sst


@dataclass(frozen=True)
class ModelSpec:
    """A model kind plus hyperparameters; the open contract for adding
    further regressor families later."""

    kind: str
    hyperparams: Mapping

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        names = _HYPERPARAM_NAMES[self.kind]
        if set(self.hyperparams) != set(names):
            raise ValueError(
                f"{self.kind} takes hyperparameters {list(names)}, got {list(self.hyperparams)}"
            )
        for name in names:
            rule, ok = _HYPERPARAM_RANGES[name]
            if not ok(self.hyperparams[name]):
                raise ValueError(f"{self.kind} {name} must be {rule}, got {self.hyperparams[name]!r}")

    def fit(self, samples: Sequence[CalibrationSample]) -> FittedRegressor:
        """Fit and attach the in-sample scores and training digest."""
        p, t = _as_xy(samples)
        h = self.hyperparams
        stats = _linear_stats(p, t) if self.kind in LINEAR_KINDS else None
        self._check_fit(p.size, stats)
        if self.kind in LINEAR_KINDS:
            intercept, slope = _linear_coef(stats, *np.array([self._penalty()], dtype=np.float64).T)
            params = {"intercept": float(intercept[0]), "slope": float(slope[0])}
        elif self.kind == "knn":
            params = {"pixels": p.tolist(), "temps": t.tolist(), "k": h["k"]}
        else:
            levels = _grow([(p, t)], [h["min_samples_leaf"]], h["max_depth"])
            params = {"tree": _forest.tree_dict(levels, 0, h["max_depth"])}
        hyper = {name: h[name] for name in _HYPERPARAM_NAMES[self.kind]}
        model = FittedRegressor(self.kind, params, hyper)
        preds = model.predict_batch(p)
        model.train_mse = mse(t, preds)
        sst = float(np.sum((t - t.mean()) ** 2))
        model.train_r2 = float("nan") if sst == 0.0 else r2(t, preds)
        model.training_digest = _digest(samples)
        return model

    def _check_fit(self, n: int, stats: tuple | None) -> None:
        """Raise what a fit on ``n`` samples with linear statistics ``stats`` raises for lack of data."""
        h = self.hyperparams
        if self.kind == "knn" and h["k"] > n:
            raise ValueError(f"k must be in [1, {n}], got {h['k']!r}")
        leaf = h.get("min_samples_leaf", 0)
        if n < 2 * leaf:
            raise ValueError(f"need at least {2 * leaf} samples for min_samples_leaf={leaf}")
        if self.kind in LINEAR_KINDS and self._penalty()[0] == 0.0 and stats[4] < 2:
            raise ValueError("need at least 2 distinct pixel values when lambda is 0")

    def _penalty(self) -> tuple[float, float]:
        """(lambda, mix) of a linear kind, with the kind's fixed values filled in."""
        penalty = {**_LINEAR_FIXED[self.kind], **self.hyperparams}
        return penalty["lambda"], penalty["mix"]


@dataclass
class CrossValEntry:
    """CV scores for one grid point."""

    spec: ModelSpec
    mean_mse: float
    mean_r2: float
    fold_mses: list[float]
    fold_r2s: list[float]
    n_folds: int
    grid_index: int = 0


@dataclass
class CrossValReport:
    """All grid points, sorted best first, plus the sample statistics the
    scores were computed against."""

    entries: list[CrossValEntry]
    n_samples: int
    mean_temperature_c: float
    n_folds: int
    seed: int

    def to_text(self) -> str:
        lines = [
            f"samples={self.n_samples} mean_temperature_c={self.mean_temperature_c:.4f} "
            f"folds={self.n_folds} seed={self.seed}",
            f"{'rank':>4}  {'model':<13} {'hyperparams':<40} {'cv_mse':>12} {'cv_r2':>10}",
        ]
        for rank, entry in enumerate(self.entries, start=1):
            hyper = json.dumps(entry.spec.hyperparams, sort_keys=True)
            lines.append(
                f"{rank:>4}  {entry.spec.kind:<13} {hyper:<40} "
                f"{entry.mean_mse:>12.6f} {entry.mean_r2:>10.6f}"
            )
        return "\n".join(lines) + "\n"


def kfold_partition(n_samples: int, n_folds: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle, then contiguous folds whose sizes differ by at most one."""
    if not 2 <= n_folds <= n_samples:
        raise ValueError(f"n_folds must be in [2, {n_samples}], got {n_folds}")
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n_samples), n_folds)


class _FoldWork:
    """The fold work every grid point of one cross-validation shares.

    One partition; each sample's test fold; the test folds' pixels and
    truth back to back, with each fold's size and SST. A fold's training
    set is built only where it is used, as ``p[fold != i]``, so memory stays
    linear in n for any fold count. ``check`` raises what the first failing
    fold fit of a point raises. ``sses`` predicts every test fold for all
    points of one model family at once (the four linear kinds are one
    family): linear, one array soft-threshold step on shared fold
    statistics; kNN, one ``_knn_batch`` call for every fold and every ``k``;
    trees, one forest of a tree per (``min_samples_leaf``, fold) grown to the
    deepest ``max_depth``, routed once. kNN calls and tree forests take the
    folds in groups of at most ``_CV_CALL_SAMPLES`` training samples.
    """

    def __init__(self, p: np.ndarray, t: np.ndarray, k_folds: int, seed: int) -> None:
        self._p, self._t = p, t
        self._fold = np.empty(p.size, dtype=np.intp)  # each sample's test fold
        partition = kfold_partition(p.size, k_folds, seed)
        for i, fold in enumerate(partition):
            self._fold[fold] = i
        test = np.concatenate(partition)
        self._test_p, self._truth = p[test], t[test]
        self.sizes = [fold.size for fold in partition]
        self._bounds = np.cumsum([0] + self.sizes).tolist()
        truths = np.split(self._truth, self._bounds[1:-1])
        self.ssts = [float(np.sum((truth - truth.mean()) ** 2)) for truth in truths]
        self._linear: list[tuple] = []  # each fold's _linear_stats, once a linear point needs them

    def _train(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Fold ``i``'s training pixels and temperatures, in sample order."""
        train = self._fold != i
        return self._p[train], self._t[train]

    def _groups(self) -> list[tuple[int, int]]:
        """Folds ``i`` to ``j - 1`` of each (i, j): as many as fit in
        ``_CV_CALL_SAMPLES`` training samples together, and at least one."""
        per_call = max(1, _CV_CALL_SAMPLES // self._p.size)
        k = len(self.sizes)
        return [(i, min(i + per_call, k)) for i in range(0, k, per_call)]

    def check(self, spec: ModelSpec) -> None:
        """Raise the error of ``spec``'s first fold fit that lacks data.

        ``np.array_split`` puts the larger test folds first, so fold 0 trains
        on the fewest samples: a size check that fails on any fold fails
        there first, with fold 0's count. The distinct-pixel check fails
        with one message on whichever fold has the fewest.
        """
        try:
            stats = None
            if spec.kind in LINEAR_KINDS:
                self._linear = self._linear or [_linear_stats(*self._train(i)) for i in range(len(self.sizes))]
                stats = min(self._linear, key=lambda s: s[4])
            spec._check_fit(self._p.size - self.sizes[0], stats)
        except ValueError as exc:
            raise ValueError(f"fold underflow for {spec.kind}: {exc}") from exc

    def sses(self, specs: list[ModelSpec]) -> list[tuple[float, ...]]:
        """Squared-error sum of each of ``specs``, checked points of one
        family, on each test fold, in fold order."""
        if specs[0].kind == "knn":
            ks = [spec.hyperparams["k"] for spec in specs]
            q_folds = np.repeat(np.arange(len(self.sizes)), self.sizes)
            preds = np.concatenate([
                _knn_batch(self._p, self._t, ks, self._test_p[a:b], self._fold, q_folds[a:b])
                for a, b in ((self._bounds[i], self._bounds[j]) for i, j in self._groups())
            ], axis=1)
        elif specs[0].kind == "decision_tree":
            preds = np.concatenate([self._tree_preds(specs, i, j) for i, j in self._groups()], axis=1)
        else:
            # Each (point, fold) coefficient once, then spread over the fold's
            # test columns; elementwise, so each equals its own fit's. The
            # (points x n) blocks of all linear kinds are the largest of the
            # grid, so the predictions and errors are computed in place.
            stats = np.array(self._linear).T
            lam, mix = np.array([spec._penalty() for spec in specs], dtype=np.float64).T[:, :, None]
            intercept, slope = (np.repeat(c, self.sizes, axis=1) for c in _linear_coef(stats, lam, mix))
            preds = np.multiply(slope, self._test_p, out=slope)
            preds += intercept  # intercept + slope * pixel, as FittedRegressor.predict_batch
        # Sum row by row over each fold alone, in C order, as a one-point fold
        # sum adds: padded folds or a column-major block round differently.
        errors = np.ascontiguousarray(np.square(np.subtract(self._truth, preds, out=preds), out=preds))
        bounds = zip(self._bounds, self._bounds[1:])
        return list(zip(*(np.sum(errors[:, a:b], axis=1).tolist() for a, b in bounds)))

    def _tree_preds(self, specs: list[ModelSpec], i: int, j: int) -> np.ndarray:
        """Each of ``specs``' predictions for the test pixels of folds ``i`` to ``j - 1``."""
        leaves = list(dict.fromkeys(spec.hyperparams["min_samples_leaf"] for spec in specs))
        depth = max(spec.hyperparams["max_depth"] for spec in specs)  # cut at d: the depth-d tree
        levels = _grow([self._train(fold) for fold in range(i, j)], leaves, depth)
        sizes = np.tile(self.sizes[i:j], len(leaves))
        roots = np.repeat(np.arange(sizes.size), sizes)
        test_p = self._test_p[self._bounds[i] : self._bounds[j]]
        routed = _forest.route(levels, roots, np.tile(test_p, len(leaves)))
        routed = routed.reshape(len(levels), len(leaves), -1)
        rows = [min(spec.hyperparams["max_depth"], len(levels) - 1) for spec in specs]
        return routed[rows, [leaves.index(spec.hyperparams["min_samples_leaf"]) for spec in specs]]


def k_fold_cv(
    samples: Sequence[CalibrationSample], spec: ModelSpec, k_folds: int, seed: int
) -> CrossValEntry:
    """Cross-validate one grid point: ``grid_search`` of a one-point grid.
    Deterministic given the seed.

    Per-fold R2 is NaN when a fold's truth is constant (always the case for
    leave-one-out); the mean skips NaN folds and is NaN if none remain.
    """
    return grid_search(samples, {spec.kind: [spec.hyperparams]}, k_folds, seed).entries[0]


def grid_search(
    samples: Sequence[CalibrationSample],
    grids: Mapping[str, Sequence[Mapping]] | None = None,
    k_folds: int = 5,
    seed: int = 0,
) -> CrossValReport:
    """Exhaustive CV over every grid point.

    Entries are ranked by ascending mean CV MSE, ties by descending mean CV
    R2 (NaN last), then by grid order. All points share one fold partition
    so scores are comparable. Every grid point is checked, in grid order,
    before any model family is scored; then each family is scored in one
    ``_FoldWork.sses`` call.
    """
    samples = list(samples)
    if grids is None:
        grids = DEFAULT_GRIDS
    if not grids:
        raise ValueError("empty grids: no model kind to search")
    specs: list[ModelSpec] = []
    for kind, points in grids.items():
        if not points:
            raise ValueError(f"empty grid for {kind!r}")
        specs += [ModelSpec(kind, dict(point)) for point in points]
    p, t = _as_xy(samples)
    work = _FoldWork(p, t, k_folds, seed)
    families: dict[str, list[int]] = {}  # the linear kinds are one family
    for grid_index, spec in enumerate(specs):
        work.check(spec)
        families.setdefault("linear" if spec.kind in LINEAR_KINDS else spec.kind, []).append(grid_index)
    entries: list[CrossValEntry] = []
    for indices in families.values():
        for grid_index, sses in zip(indices, work.sses([specs[i] for i in indices])):
            # Each fold's one squared-error sum gives both its MSE and its R2.
            fold_mses: list[float] = []
            fold_r2s: list[float] = []
            for sse, size, sst in zip(sses, work.sizes, work.ssts):
                fold_mses.append(sse / size)
                fold_r2s.append(float("nan") if sst == 0.0 else 1.0 - sse / sst)  # one sample: sst is 0
            defined = [v for v in fold_r2s if not math.isnan(v)]
            mean_r2 = sum(defined) / len(defined) if defined else float("nan")
            mean_mse = sum(fold_mses) / len(fold_mses)
            entries.append(
                CrossValEntry(specs[grid_index], mean_mse, mean_r2, fold_mses, fold_r2s, k_folds, grid_index)
            )
    entries.sort(
        key=lambda e: (
            e.mean_mse,
            -(e.mean_r2 if not math.isnan(e.mean_r2) else -math.inf),
            e.grid_index,
        )
    )
    return CrossValReport(
        entries=entries,
        n_samples=len(samples),
        mean_temperature_c=float(t.mean()),
        n_folds=k_folds,
        seed=seed,
    )


@dataclass
class GuardResult:
    """Outcome of screening a model against a known-healthy population."""

    passed: bool
    ceiling_c: float
    offending: list[tuple[float, float]]  # (pixel, predicted temperature)


def plausibility_guard(
    model: FittedRegressor,
    screening_pixels: Sequence[float],
    ceiling_c: float = DEFAULT_FEVER_CEILING_C,
) -> GuardResult:
    """Fail a model that predicts above ``ceiling_c`` for any screening pixel.

    The screening pixels should be max-ROI intensities from a population
    known to be afebrile, so any prediction above the ceiling is a model
    artifact, not a detection. A ceiling that is not finite is an error.
    """
    if not is_finite(ceiling_c):
        raise ValueError(f"ceiling_c must be finite, got {ceiling_c}")
    pixels = np.asarray(list(screening_pixels), dtype=np.float64)
    if not pixels.size:
        raise ValueError("screening set must be nonempty")
    preds = model.predict_batch(pixels)
    offending = [(float(pixels[i]), float(preds[i])) for i in np.flatnonzero(preds > ceiling_c)]
    return GuardResult(passed=not offending, ceiling_c=ceiling_c, offending=offending)


def select_model(
    samples: Sequence[CalibrationSample],
    report: CrossValReport,
    screening_pixels: Sequence[float] | None = None,
    ceiling_c: float = DEFAULT_FEVER_CEILING_C,
) -> FittedRegressor:
    """Refit ranked candidates on the full sample set and return the first
    that passes the plausibility guard, with full provenance attached.

    With ``screening_pixels=None`` the guard is skipped and the top-ranked
    candidate wins. Raises NoViableModelError when no candidate passes.
    """
    if not is_finite(ceiling_c):
        raise ValueError(f"ceiling_c must be finite, got {ceiling_c}")
    rejected: list[dict] = []
    for rank, entry in enumerate(report.entries):
        model = entry.spec.fit(list(samples))
        if screening_pixels is None:
            guard_record: dict = {"screened": False, "passed": True}
        else:
            result = plausibility_guard(model, screening_pixels, ceiling_c)
            guard_record = {
                "screened": True,
                "passed": result.passed,
                "ceiling_c": result.ceiling_c,
                "offending": [[px, pred] for px, pred in result.offending],
            }
            if not result.passed:
                rejected.append(
                    {
                        "kind": entry.spec.kind,
                        "hyperparams": dict(entry.spec.hyperparams),
                        "rank": rank,
                        "offending_count": len(result.offending),
                    }
                )
                continue
        model.provenance = {
            "rank": rank,
            "grid_index": entry.grid_index,
            "cv_mean_mse": entry.mean_mse,
            "cv_mean_r2": entry.mean_r2,
            "n_folds": entry.n_folds,
            "seed": report.seed,
            "guard": guard_record,
            "rejected_before": rejected,
        }
        return model
    raise NoViableModelError("no candidate passed the plausibility guard")


def save_model(model: FittedRegressor, path: str | Path) -> None:
    """Persist a model as a versioned JSON text document.

    Floats are serialized through their shortest round-trip representation,
    so a reloaded linear-family model predicts bit-identically.
    """
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "hyperparams": model.hyperparams,
        "params": model.params,
        "train_mse": model.train_mse,
        "train_r2": model.train_r2,
        "training_digest": model.training_digest,
        "provenance": model.provenance,
    }
    atomic_write_text(Path(path), json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _params_problem(kind: str, params) -> str | None:
    """Why ``params`` cannot drive a ``kind`` model's predict, or None."""
    if not isinstance(params, dict):
        return "params must be an object"
    if kind in LINEAR_KINDS:
        for name in ("intercept", "slope"):
            if not is_finite(params.get(name)):
                return f"{name} must be a finite number, got {params.get(name)!r}"
    elif kind == "knn":
        pixels, temps, k = params.get("pixels"), params.get("temps"), params.get("k")
        if not (isinstance(pixels, list) and isinstance(temps, list) and len(pixels) == len(temps)):
            return "knn pixels and temps must be lists of equal length"
        if not all(is_finite(v) for v in pixels + temps):
            return "knn pixels and temps must be finite numbers"
        if not _is_int(k) or not 1 <= k <= len(pixels):
            return f"knn k must be an integer in [1, {len(pixels)}], got {k!r}"
    elif kind == "decision_tree":
        try:
            _forest.tree_levels(params.get("tree"))
        except ValueError as exc:
            return str(exc)
    return None


def load_model(path: str | Path) -> FittedRegressor:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {doc.get('version')!r}")
    if doc.get("kind") not in MODEL_KINDS:
        raise ValueError(f"{path}: unknown model kind {doc.get('kind')!r}")
    problem = _params_problem(doc["kind"], doc.get("params"))
    if problem:
        raise ValueError(f"{path}: {problem}")
    return FittedRegressor(
        kind=doc["kind"],
        params=doc["params"],
        hyperparams=doc.get("hyperparams", {}),
        train_mse=doc.get("train_mse", float("nan")),
        train_r2=doc.get("train_r2", float("nan")),
        training_digest=doc.get("training_digest", ""),
        provenance=doc.get("provenance"),
    )


CALIBRATION_CSV_HEADER = ["max_pixel", "temperature_c"]


def load_calibration_csv(path: str | Path) -> list[CalibrationSample]:
    """Read calibration pairs from a ``max_pixel,temperature_c`` CSV."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty calibration file") from None
        if [h.strip() for h in header] != CALIBRATION_CSV_HEADER:
            raise ValueError(
                f"{path}: header must be {','.join(CALIBRATION_CSV_HEADER)}, got {header}"
            )
        samples = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                samples.append(CalibrationSample(float(row[0]), float(row[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return samples


def save_calibration_csv(samples: Sequence[CalibrationSample], path: str | Path) -> None:
    lines = [",".join(CALIBRATION_CSV_HEADER)]
    lines += [f"{s.max_pixel!r},{s.temperature_c!r}" for s in samples]
    atomic_write_text(Path(path), "\n".join(lines) + "\n")
