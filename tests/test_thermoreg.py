import contextlib
import hashlib
import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from _oracles import walk_tree
from conftest import pinned_models, traced_call
from thermotrack import _forest, thermoreg
from thermotrack.synthscene import generate_calibration_set
from thermotrack.thermoreg import (
    DEFAULT_GRIDS,
    LINEAR_KINDS,
    MODEL_KINDS,
    CalibrationSample,
    CrossValReport,
    FittedRegressor,
    ModelSpec,
    NoViableModelError,
    grid_search,
    k_fold_cv,
    kfold_partition,
    load_calibration_csv,
    load_model,
    mse,
    plausibility_guard,
    r2,
    save_calibration_csv,
    save_model,
    select_model,
)

TWO_POINTS = [CalibrationSample(50.0, 30.0), CalibrationSample(150.0, 40.0)]


def _noiseless_line(n=30, b0=21.0, b1=0.08, seed=3):
    rng = np.random.default_rng(seed)
    pixels = rng.uniform(10, 250, n)
    return [CalibrationSample(float(p), float(b0 + b1 * p)) for p in pixels]


def _noisy_line(n=60, b0=20.0, b1=0.1, noise=0.3, seed=9):
    rng = np.random.default_rng(seed)
    pixels = rng.uniform(20, 240, n)
    temps = b0 + b1 * pixels + rng.normal(0, noise, n)
    return [CalibrationSample(float(p), float(t)) for p, t in zip(pixels, temps)]


@contextlib.contextmanager
def scorers_spied():
    """Wrap the routine that scores each model family in cross-validation:
    the forest grower, the kNN predictor and the linear coefficient step.
    Yields the list of their names, one entry a call, in call order."""
    called: list[str] = []
    with contextlib.ExitStack() as stack:
        for owner, name in ((_forest, "grow_forest"), (thermoreg, "_knn_batch"), (thermoreg, "_linear_coef")):

            def spy(*args, _name=name, _original=getattr(owner, name), **kwargs):
                called.append(_name)
                return _original(*args, **kwargs)

            stack.enter_context(mock.patch.object(owner, name, spy))
        yield called


class TestOls:
    def test_line_through_two_points(self):
        model = ModelSpec("linear", {}).fit(TWO_POINTS)
        assert model.params["intercept"] == pytest.approx(25.0, abs=1e-12)
        assert model.params["slope"] == pytest.approx(0.1, abs=1e-12)

    def test_constant_temperatures(self):
        samples = [CalibrationSample(float(p), 37.0) for p in (10, 60, 110, 200)]
        model = ModelSpec("linear", {}).fit(samples)
        assert model.params["slope"] == 0.0
        assert model.params["intercept"] == 37.0

    def test_recovers_generating_law(self):
        rng = np.random.default_rng(1)
        pixels = rng.uniform(0, 255, 200)
        temps = 20.0 + 0.1 * pixels + rng.normal(0, 0.1, 200)
        samples = [CalibrationSample(float(p), float(t)) for p, t in zip(pixels, temps)]
        model = ModelSpec("linear", {}).fit(samples)
        assert model.params["intercept"] == pytest.approx(20.0, abs=0.01)
        assert model.params["slope"] == pytest.approx(0.1, abs=0.01)

    def test_identical_pixels_singular(self):
        with pytest.raises(ValueError):
            ModelSpec("linear", {}).fit(
                [CalibrationSample(100.0, 36.0), CalibrationSample(100.0, 37.0)]
            )

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            ModelSpec("linear", {}).fit([CalibrationSample(100.0, 36.0)])

    def test_train_r2_in_unit_interval(self):
        model = ModelSpec("linear", {}).fit(_noisy_line())
        assert 0.0 <= model.train_r2 <= 1.0
        assert model.train_mse >= 0.0

    def test_prediction_is_exactly_the_line(self):
        # No residual term sneaks into inference: predict is bit-identical to
        # intercept + slope * pixel, so differences are affine to rounding.
        model = ModelSpec("linear", {}).fit(_noisy_line())
        b0, b1 = model.params["intercept"], model.params["slope"]
        for p in (0.0, 30.0, 150.0, 255.0):
            assert model.predict(p) == b0 + b1 * p
        diff = model.predict(150.0) - model.predict(30.0)
        assert diff == pytest.approx(b1 * 120.0, rel=1e-12)


class TestRidge:
    def test_lambda_zero_is_ols(self):
        ridge = ModelSpec("ridge", {"lambda": 0.0}).fit(TWO_POINTS)
        ols = ModelSpec("linear", {}).fit(TWO_POINTS)
        assert ridge.params["intercept"] == ols.params["intercept"]
        assert ridge.params["slope"] == ols.params["slope"]

    def test_huge_lambda_shrinks_to_mean(self):
        model = ModelSpec("ridge", {"lambda": 1e12}).fit(TWO_POINTS)
        assert model.params["slope"] == pytest.approx(0.0, abs=1e-8)
        assert model.params["intercept"] == pytest.approx(35.0, abs=1e-3)

    def test_lambda_ten_two_points(self):
        model = ModelSpec("ridge", {"lambda": 10.0}).fit(TWO_POINTS)
        # Sxy = 500, Sxx = 5000, so slope = 500 / 5010
        assert model.params["slope"] == pytest.approx(500 / 5010, abs=1e-15)
        assert 0 < model.params["slope"] < 0.1

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("ridge", {"lambda": -1.0}).fit(TWO_POINTS)

    @pytest.mark.parametrize(
        "lam", [10**400, 2**1024, math.inf, math.nan], ids=["401-digits", "2^1024", "inf", "nan"]
    )
    def test_lambda_beyond_float_range_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda must be a finite number >= 0"):
            ModelSpec("ridge", {"lambda": lam})

    def test_largest_float_lambda_accepted(self):
        # The largest int that converts to a float is still in range.
        ModelSpec("ridge", {"lambda": int(sys.float_info.max)})

    def test_slope_magnitude_nonincreasing_in_lambda(self):
        samples = _noisy_line()
        lambdas = [0.0, 0.5, 2.0, 10.0, 100.0, 1e4]
        fits = [ModelSpec("ridge", {"lambda": lam}).fit(samples) for lam in lambdas]
        slopes = [abs(model.params["slope"]) for model in fits]
        assert all(a >= b - 1e-15 for a, b in zip(slopes, slopes[1:]))


class TestLassoElasticNet:
    def test_lambda_zero_matches_ols(self):
        ols = ModelSpec("linear", {}).fit(TWO_POINTS)
        specs = [ModelSpec("lasso", {"lambda": 0.0}), ModelSpec("elastic_net", {"lambda": 0.0, "mix": 0.5})]
        for spec in specs:
            model = spec.fit(TWO_POINTS)
            assert model.params["slope"] == ols.params["slope"]
            assert model.params["intercept"] == ols.params["intercept"]

    def test_soft_threshold_kills_slope(self):
        # |Sxy| = 500 for the two-point set, so lambda >= 500 zeroes it.
        model = ModelSpec("lasso", {"lambda": 500.0}).fit(TWO_POINTS)
        assert model.params["slope"] == 0.0
        assert model.params["intercept"] == 35.0

    def test_elastic_net_mix_zero_equals_ridge(self, rng):
        for _ in range(20):
            samples = _noisy_line(n=25, seed=int(rng.integers(1_000_000)))
            lam = float(rng.uniform(0, 50))
            enet = ModelSpec("elastic_net", {"lambda": lam, "mix": 0.0}).fit(samples)
            ridge = ModelSpec("ridge", {"lambda": lam}).fit(samples)
            assert enet.params["slope"] == ridge.params["slope"]
            assert enet.params["intercept"] == ridge.params["intercept"]

    def test_elastic_net_mix_one_equals_lasso(self, rng):
        for _ in range(20):
            samples = _noisy_line(n=25, seed=int(rng.integers(1_000_000)))
            lam = float(rng.uniform(0, 50))
            enet = ModelSpec("elastic_net", {"lambda": lam, "mix": 1.0}).fit(samples)
            lasso = ModelSpec("lasso", {"lambda": lam}).fit(samples)
            assert enet.params["slope"] == lasso.params["slope"]
            assert enet.params["intercept"] == lasso.params["intercept"]

    def test_mix_out_of_range(self):
        with pytest.raises(ValueError):
            ModelSpec("elastic_net", {"lambda": 1.0, "mix": 1.5}).fit(TWO_POINTS)


def _linear_pin_fits():
    """Each public linear fitter over a small (lambda, mix) grid on two seeded
    sets, plus a slope zeroed by the soft threshold and lasso on identical
    pixels (zero denominator), as exact reprs of the fitted numbers."""
    fits = {}
    seeded = {
        "noisy": _noisy_line(n=40, seed=5),
        "calib": generate_calibration_set(50, 20.0, 0.1, seed=21),
    }
    for name, samples in seeded.items():
        fits[f"{name}/linear"] = ModelSpec("linear", {}).fit(samples)
        for lam in (0.0, 0.5, 10.0, 1e4):
            fits[f"{name}/ridge/{lam!r}"] = ModelSpec("ridge", {"lambda": lam}).fit(samples)
            fits[f"{name}/lasso/{lam!r}"] = ModelSpec("lasso", {"lambda": lam}).fit(samples)
            for mix in (0.0, 0.3, 1.0):
                spec = ModelSpec("elastic_net", {"lambda": lam, "mix": mix})
                fits[f"{name}/elastic_net/{lam!r}/{mix!r}"] = spec.fit(samples)
    # |Sxy| = 500 on TWO_POINTS, so lambda * mix >= 500 zeroes the slope.
    fits["two/lasso/500.0"] = ModelSpec("lasso", {"lambda": 500.0}).fit(TWO_POINTS)
    spec = ModelSpec("elastic_net", {"lambda": 1000.0, "mix": 0.5})
    fits["two/elastic_net/1000.0/0.5"] = spec.fit(TWO_POINTS)
    same = [CalibrationSample(100.0, 36.0), CalibrationSample(100.0, 37.0)]
    fits["same/lasso/1.0"] = ModelSpec("lasso", {"lambda": 1.0}).fit(same)
    return {
        key: [
            json.dumps(m.hyperparams, sort_keys=True),
            repr(m.params["intercept"]),
            repr(m.params["slope"]),
            repr(m.train_mse),
            repr(m.train_r2),
        ]
        for key, m in fits.items()
    }


class TestLinearPins:
    """Linear-family fits recorded from the coordinate-descent fitters; the
    closed form must reproduce them bit for bit."""

    def test_fits_unchanged(self):
        pinned = json.loads((Path(__file__).parent / "data" / "linear_fit_pins.json").read_text())
        assert _linear_pin_fits() == pinned


class TestKnn:
    SAMPLES = [CalibrationSample(1.0, 10.0), CalibrationSample(2.0, 20.0), CalibrationSample(3.0, 30.0)]

    def test_mean_of_two_nearest(self):
        model = ModelSpec("knn", {"k": 2}).fit(self.SAMPLES)
        assert model.predict(1.5) == 15.0

    def test_k_equals_n_predicts_global_mean(self):
        model = ModelSpec("knn", {"k": 3}).fit(self.SAMPLES)
        for query in (0.0, 1.7, 255.0):
            assert model.predict(query) == pytest.approx(20.0, abs=1e-12)

    def test_exact_hit_with_k_one(self):
        model = ModelSpec("knn", {"k": 1}).fit(self.SAMPLES)
        assert model.predict(2.0) == 20.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            ModelSpec("knn", {"k": 0}).fit(self.SAMPLES)
        with pytest.raises(ValueError):
            ModelSpec("knn", {"k": 4}).fit(self.SAMPLES)

    def test_distance_tie_prefers_lower_pixel(self):
        model = ModelSpec("knn", {"k": 1}).fit(self.SAMPLES)
        # query 1.5 is equidistant from pixels 1 and 2
        assert model.predict(1.5) == 10.0

    def test_rounded_distance_tie_prefers_lower_pixel(self):
        # 5 - 1.0000000000000002 rounds to 4.0 = 5 - 1.0: the farther, lower
        # pixel wins the tie although it lies outside a k = 1 window.
        samples = [CalibrationSample(1.0, 10.0), CalibrationSample(1.0000000000000002, 20.0)]
        model = ModelSpec("knn", {"k": 1}).fit(samples)
        assert model.predict(5.0) == 10.0
        assert model.predict_batch([5.0, 0.5]).tolist() == [10.0, 10.0]

    def test_duplicates_fill_slots_in_insertion_order(self):
        samples = [
            CalibrationSample(9.0, 1.0),
            CalibrationSample(5.0, 2.0),
            CalibrationSample(5.0, 4.0),
            CalibrationSample(5.0, 8.0),
        ]
        model = ModelSpec("knn", {"k": 2}).fit(samples)
        assert model.predict(5.0) == 3.0
        assert model.predict(8.0) == 1.5  # pixel 9 at distance 1, then the first 5

    def test_k1_zero_training_error_on_distinct_pixels(self, rng):
        pixels = rng.choice(np.arange(256), size=20, replace=False).astype(float)
        temps = rng.uniform(30, 40, 20)
        samples = [CalibrationSample(float(p), float(t)) for p, t in zip(pixels, temps)]
        model = ModelSpec("knn", {"k": 1}).fit(samples)
        for s in samples:
            assert model.predict(s.max_pixel) == s.temperature_c


class TestTree:
    def test_two_cluster_split(self):
        samples = [CalibrationSample(10.0, 30.0)] * 5 + [CalibrationSample(200.0, 38.0)] * 5
        model = ModelSpec("decision_tree", {"max_depth": 1, "min_samples_leaf": 1}).fit(samples)
        tree = model.params["tree"]
        assert tree["kind"] == "split"
        assert 10.0 < tree["threshold"] < 200.0
        assert model.predict(10.0) == 30.0
        assert model.predict(200.0) == 38.0

    def test_depth_zero_single_leaf(self):
        samples = [CalibrationSample(10.0, 30.0), CalibrationSample(200.0, 38.0)]
        model = ModelSpec("decision_tree", {"max_depth": 0, "min_samples_leaf": 1}).fit(samples)
        assert model.params["tree"]["kind"] == "leaf"
        assert model.predict(123.0) == pytest.approx(34.0, abs=1e-12)

    def test_zero_variance_is_single_leaf(self):
        samples = [CalibrationSample(float(p), 36.6) for p in (5, 50, 100, 150)]
        model = ModelSpec("decision_tree", {"max_depth": 4, "min_samples_leaf": 1}).fit(samples)
        assert model.params["tree"]["kind"] == "leaf"

    def test_min_samples_leaf_respected(self):
        samples = [CalibrationSample(float(p), float(p)) for p in range(6)]
        model = ModelSpec("decision_tree", {"max_depth": 5, "min_samples_leaf": 3}).fit(samples)

        def leaf_sizes(node, pixels):
            if node["kind"] == "leaf":
                return [len(pixels)]
            left = [p for p in pixels if p <= node["threshold"]]
            right = [p for p in pixels if p > node["threshold"]]
            return leaf_sizes(node["left"], left) + leaf_sizes(node["right"], right)

        assert all(size >= 3 for size in leaf_sizes(model.params["tree"], list(range(6))))

    def test_split_matches_exhaustive_search(self, rng):
        # oracle: try every midpoint split directly
        for _ in range(30):
            n = int(rng.integers(4, 20))
            pixels = np.sort(rng.choice(np.arange(256), size=n, replace=False)).astype(float)
            temps = rng.uniform(25, 40, n)
            samples = [CalibrationSample(float(p), float(t)) for p, t in zip(pixels, temps)]
            model = ModelSpec("decision_tree", {"max_depth": 1, "min_samples_leaf": 1}).fit(samples)

            best_cost, best_thr = math.inf, None
            for i in range(n - 1):
                thr = (pixels[i] + pixels[i + 1]) / 2
                left, right = temps[: i + 1], temps[i + 1 :]
                cost = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
                if cost < best_cost - 1e-12:
                    best_cost, best_thr = cost, thr
            assert model.params["tree"]["threshold"] == pytest.approx(best_thr, abs=1e-9)

    def test_preconditions(self):
        spec = ModelSpec("decision_tree", {"max_depth": 1, "min_samples_leaf": 1})
        with pytest.raises(ValueError):
            spec.fit([CalibrationSample(1.0, 30.0)])
        with pytest.raises(ValueError):
            ModelSpec("decision_tree", {"max_depth": -1, "min_samples_leaf": 1})


class TestScores:
    def test_mse_identical_vectors(self):
        assert mse([36.0, 37.0], [36.0, 37.0]) == 0.0

    def test_mse_hand_case(self):
        assert mse([36.0, 37.0], [36.5, 36.5]) == pytest.approx(0.25, abs=1e-15)

    def test_mse_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mse([], [])

    def test_r2_perfect(self):
        assert r2([36.0, 37.0, 38.0], [36.0, 37.0, 38.0]) == 1.0

    def test_r2_mean_predictor_is_zero(self):
        truth = [35.0, 36.0, 37.0, 38.0]
        mean = sum(truth) / len(truth)
        assert r2(truth, [mean] * 4) == 0.0

    def test_r2_constant_truth_errors(self):
        with pytest.raises(ValueError):
            r2([36.6, 36.6], [36.0, 37.0])


class TestCrossValidation:
    def test_partition_is_disjoint_cover(self):
        folds = kfold_partition(23, 5, seed=7)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        combined = sorted(int(i) for fold in folds for i in fold)
        assert combined == list(range(23))

    def test_leave_one_out_on_five_samples(self):
        samples = _noiseless_line(n=5)
        folds = kfold_partition(5, 5, seed=0)
        assert [len(f) for f in folds] == [1, 1, 1, 1, 1]
        entry = k_fold_cv(samples, ModelSpec("linear", {}), k_folds=5, seed=0)
        assert entry.n_folds == 5
        assert math.isnan(entry.mean_r2)  # single-sample folds have no defined R2

    def test_same_seed_is_bit_identical(self):
        samples = _noisy_line()
        a = k_fold_cv(samples, ModelSpec("ridge", {"lambda": 1.0}), 5, seed=42)
        b = k_fold_cv(samples, ModelSpec("ridge", {"lambda": 1.0}), 5, seed=42)
        assert a.fold_mses == b.fold_mses
        assert a.fold_r2s == b.fold_r2s

    def test_noiseless_line_has_vanishing_cv_mse(self):
        entry = k_fold_cv(_noiseless_line(), ModelSpec("linear", {}), 5, seed=0)
        assert entry.mean_mse < 1e-12

    def test_fold_underflow_reported(self):
        samples = _noisy_line(n=6)
        with pytest.raises(ValueError, match="fold underflow"):
            k_fold_cv(samples, ModelSpec("knn", {"k": 5}), k_folds=3, seed=0)

    def test_tree_underflow_raises_at_first_point_that_needs_it(self):
        # 60 samples in 5 folds leave 48 to train on: min_samples_leaf 40
        # underflows every fold, 1 none. Every point is checked before the
        # forest is grown, so the leaf-40 point raises and no tree is grown.
        leaf_one = [{"max_depth": d, "min_samples_leaf": 1} for d in (3, 0, 2)]
        grids = {"decision_tree": leaf_one + [{"max_depth": 1, "min_samples_leaf": 40}] + leaf_one}
        with scorers_spied() as called, pytest.raises(ValueError) as raised:
            grid_search(_noisy_line(n=60), grids, k_folds=5, seed=0)
        assert str(raised.value) == (
            "fold underflow for decision_tree: need at least 80 samples for min_samples_leaf=40"
        )
        assert called == []
        # The leaf-one points around it score on their own.
        report = grid_search(_noisy_line(n=60), {"decision_tree": leaf_one}, k_folds=5, seed=0)
        assert all(math.isfinite(e.mean_mse) for e in report.entries)

    def test_bad_fold_counts(self):
        with pytest.raises(ValueError):
            kfold_partition(10, 1, seed=0)
        with pytest.raises(ValueError):
            kfold_partition(4, 5, seed=0)


class TestModelSpec:
    def test_kinds_in_order(self):
        assert LINEAR_KINDS == ("linear", "ridge", "lasso", "elastic_net")
        assert MODEL_KINDS == LINEAR_KINDS + ("knn", "decision_tree")

    @pytest.mark.parametrize(
        "kind, names",
        [
            ("linear", []),
            ("ridge", ["lambda"]),
            ("lasso", ["lambda"]),
            ("elastic_net", ["lambda", "mix"]),
            ("knn", ["k"]),
            ("decision_tree", ["max_depth", "min_samples_leaf"]),
        ],
    )
    def test_unknown_hyperparameter_names_the_kinds_own(self, kind, names):
        with pytest.raises(ValueError) as info:
            ModelSpec(kind, {"bogus": 1})
        assert str(info.value) == f"{kind} takes hyperparameters {names}, got ['bogus']"


class TestGridSearch:
    def test_noiseless_ridge_grid_prefers_zero_lambda(self):
        report = grid_search(
            _noiseless_line(),
            {"ridge": [{"lambda": lam} for lam in (0.0, 0.1, 1.0, 10.0)]},
            k_folds=5,
            seed=0,
        )
        assert report.entries[0].spec.hyperparams["lambda"] == 0.0

    def test_single_point_grid(self):
        report = grid_search(_noisy_line(), {"linear": [{}]}, k_folds=4, seed=0)
        assert len(report.entries) == 1

    def test_default_grids_smoke(self):
        report = grid_search(_noisy_line(n=40), k_folds=5, seed=0)
        expected_points = sum(len(points) for points in DEFAULT_GRIDS.values())
        assert len(report.entries) == expected_points
        for entry in report.entries:
            assert math.isfinite(entry.mean_mse)
            assert math.isfinite(entry.mean_r2)

    def test_ranked_by_mse(self):
        report = grid_search(_noisy_line(), k_folds=5, seed=0)
        mses = [entry.mean_mse for entry in report.entries]
        assert mses == sorted(mses)

    def test_report_text_has_ranking(self):
        report = grid_search(_noisy_line(), {"linear": [{}], "knn": [{"k": 1}]}, 5, 0)
        text = report.to_text()
        assert "rank" in text
        assert "linear" in text and "knn" in text

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search(_noisy_line(), {"ridge": []}, 5, 0)

    def test_empty_grids_mapping_rejected(self):
        with pytest.raises(ValueError, match="empty grids"):
            grid_search(_noisy_line(), {}, 5, 0)

    def test_default_grids_share_one_partition_and_nested_trees(self, monkeypatch):
        # One partition for all 47 points; one forest growth of one tree per
        # (min_samples_leaf, fold), each grown once to the deepest max_depth:
        # 3 x 5 trees, not 60, and no growth per depth; one kNN prediction
        # for all five folds and all four k (1 call, not 20); one set of
        # linear statistics per fold and one coefficient step for all 31
        # linear points of the four linear kinds.
        calls = {}
        forest_trees = []
        patched = (
            (thermoreg, "kfold_partition"), (_forest, "grow_forest"),
            (thermoreg, "_knn_batch"), (thermoreg, "_linear_stats"), (thermoreg, "_linear_coef"),
        )
        for module, name in patched:
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                if _name == "grow_forest":
                    _, sizes, min_leaf, max_depth = args[2:]
                    forest_trees.extend(zip(sizes.tolist(), min_leaf.tolist(), max_depth.tolist()))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        grid_search(_noisy_line(), DEFAULT_GRIDS, k_folds=5, seed=0)
        leaf_sizes = sorted({point["min_samples_leaf"] for point in DEFAULT_GRIDS["decision_tree"]})
        deepest = max(point["max_depth"] for point in DEFAULT_GRIDS["decision_tree"])
        assert calls == {
            "kfold_partition": 1, "grow_forest": 1, "_knn_batch": 1, "_linear_stats": 5, "_linear_coef": 1,
        }
        # _noisy_line() has 60 samples: every training fold holds 48.
        assert forest_trees == [(48, leaf, deepest) for leaf in leaf_sizes for _ in range(5)]

    def test_knn_folds_over_several_calls_score_as_one_call(self, monkeypatch):
        # Leave-one-out on 60 samples holds 60 x 59 stored samples; a call
        # cap of 150 splits it into calls of 2 folds, with the same scores.
        samples = _noisy_line()
        grids = {"knn": DEFAULT_GRIDS["knn"]}
        whole = grid_search(samples, grids, k_folds=60, seed=0)
        calls = []
        original = thermoreg._knn_batch
        monkeypatch.setattr(thermoreg, "_CV_CALL_SAMPLES", 150)
        monkeypatch.setattr(thermoreg, "_knn_batch", lambda *a: calls.append(a[3].size) or original(*a))
        split = grid_search(samples, grids, k_folds=60, seed=0)
        assert calls == [2] * 30
        assert repr(split.entries) == repr(whole.entries)

    def test_tree_folds_over_several_forests_score_as_one_forest(self, monkeypatch):
        # Leave-one-out on 60 samples trains on 60 x 59 samples: one forest
        # under the default cap, 30 forests of 2 folds (times 3 leaf sizes)
        # under a cap of 150, with the same scores.
        samples = _noisy_line()
        grids = {"decision_tree": DEFAULT_GRIDS["decision_tree"]}
        forests = []
        original = _forest.grow_forest
        monkeypatch.setattr(_forest, "grow_forest", lambda *a: forests.append(a[2].size) or original(*a))
        whole = grid_search(samples, grids, k_folds=60, seed=0)
        assert forests == [60 * 3]
        forests.clear()
        monkeypatch.setattr(thermoreg, "_CV_CALL_SAMPLES", 150)
        split = grid_search(samples, grids, k_folds=60, seed=0)
        assert forests == [2 * 3] * 30
        assert repr(split.entries) == repr(whole.entries)

    def test_leave_one_out_memory_is_linear_in_n(self):
        # 1 000 folds of 999 training samples. Keeping every fold's training
        # copy peaked at 54 MiB; the entries' repr digest was recorded then.
        samples = generate_calibration_set(1000, 20.0, 0.1, seed=5)
        report, peak = traced_call(grid_search, samples, DEFAULT_GRIDS, 1000, 5)
        assert peak < 16 * 2**20
        assert hashlib.sha256(repr(report.entries).encode()).hexdigest() == (
            "63e1aab2c5e5ef6842632a08ed32853f1e561aa9660c366bfe3f1dbeb85c43f4"
        )

    @pytest.mark.parametrize(
        "samples, grids, message",
        [
            (
                _noisy_line(),
                {"knn": [{"k": 1}, {"k": 10**6}]},
                "fold underflow for knn: k must be in [1, 48], got 1000000",
            ),
            (
                [CalibrationSample(100.0, 36.0 + i / 10) for i in range(10)],
                {"ridge": [{"lambda": 1.0}, {"lambda": 0.0}]},
                "fold underflow for ridge: need at least 2 distinct pixel values when lambda is 0",
            ),
        ],
        ids=["knn-k-too-large", "ridge-lambda-zero-constant-pixels"],
    )
    def test_mixed_grid_fails_at_its_failing_point(self, samples, grids, message):
        # The point that cannot be fitted raises before its family is
        # scored; the point ahead of it scores on its own.
        with scorers_spied() as called, pytest.raises(ValueError) as raised:
            grid_search(samples, grids, k_folds=5, seed=0)
        assert str(raised.value) == message
        assert called == []
        (kind, points), = grids.items()
        report = grid_search(samples, {kind: points[:1]}, k_folds=5, seed=0)
        assert math.isfinite(report.entries[0].mean_mse)

    def test_failing_point_raises_before_an_earlier_family_is_scored(self):
        grids = {"decision_tree": [{"max_depth": 2, "min_samples_leaf": 1}], "knn": [{"k": 10**6}]}
        with scorers_spied() as called, pytest.raises(ValueError) as raised:
            grid_search(_noisy_line(), grids, k_folds=5, seed=0)
        assert str(raised.value) == "fold underflow for knn: k must be in [1, 48], got 1000000"
        assert called == []

    def test_default_grids_check_each_point_once(self, monkeypatch):
        # Fold 0 trains on the fewest samples, so one check a point covers
        # every fold: 47 checks, not one per (point, fold).
        checked = []
        original = ModelSpec._check_fit

        def counted(spec, n, stats):
            checked.append(n)
            return original(spec, n, stats)

        monkeypatch.setattr(ModelSpec, "_check_fit", counted)
        grid_search(_noisy_line(n=63), DEFAULT_GRIDS, k_folds=5, seed=0)
        assert checked == [50] * 47  # 63 samples less the largest test fold of 13


def _integer_pixel_set():
    """Rounded pixels with many duplicates, 22 of them saturated at 255."""
    return [
        CalibrationSample(float(min(255, round(s.max_pixel))), s.temperature_c)
        for s in generate_calibration_set(200, 20.0, 0.07, seed=7)
    ]


# The sample sets the pin files are recorded on.
_PIN_SETS = [
    ("n200", lambda: generate_calibration_set(200, 20.0, 0.1, seed=11)),
    ("integer_dups", _integer_pixel_set),
]


class TestGridSearchPins:
    """grid_search output recorded from the scalar (sort-per-query) kNN and
    per-sample fold fitting; the array path must reproduce it bit for bit."""

    PINS = json.loads((Path(__file__).parent / "data" / "grid_search_pins.json").read_text())

    @pytest.mark.parametrize("name, make", _PIN_SETS)
    def test_report_and_fold_scores_unchanged(self, name, make):
        report = grid_search(make(), seed=0)
        pinned = self.PINS[name]
        assert report.to_text() == pinned["text"]
        assert [
            {
                "kind": e.spec.kind,
                "grid_index": e.grid_index,
                "fold_mses": e.fold_mses,
                "fold_r2s": e.fold_r2s,
            }
            for e in report.entries
        ] == pinned["entries"]

    @pytest.mark.parametrize("name, make", _PIN_SETS)
    def test_each_point_alone_matches_its_grid_entry(self, name, make):
        # A standalone k_fold_cv is grid_search of its one point, a family
        # block of one row; the full grid scores the point with the rest of
        # its family.
        samples = make()
        entries = {e.grid_index: e for e in grid_search(samples, seed=0).entries}
        specs = [ModelSpec(kind, dict(point)) for kind, points in DEFAULT_GRIDS.items() for point in points]
        assert len(specs) == len(entries) == 47
        for grid_index, spec in enumerate(specs):
            alone = k_fold_cv(samples, spec, 5, 0)
            alone.grid_index = grid_index
            assert repr(alone) == repr(entries[grid_index])


def _model_docs(samples, specs, tmp_path):
    """The ``save_model`` text of each spec in ``specs`` fitted on ``samples``,
    under the same key."""
    docs = {}
    for key, spec in specs.items():
        path = tmp_path / "model.json"
        save_model(spec.fit(samples), path)
        docs[key] = path.read_text()
    return docs


def _tree_model_docs(samples, tmp_path):
    """The ``save_model`` text of a decision tree fitted at every max_depth
    0..6 and min_samples_leaf 1, 3, 5, keyed ``"<depth>/<leaf>"``."""
    specs = {
        f"{depth}/{leaf}": ModelSpec("decision_tree", {"max_depth": depth, "min_samples_leaf": leaf})
        for depth in range(7)
        for leaf in (1, 3, 5)
    }
    return _model_docs(samples, specs, tmp_path)


def _grid_model_docs(samples, kind, tmp_path):
    """The ``save_model`` text of a ``kind`` model fitted at each of its
    ``DEFAULT_GRIDS`` points, keyed by the point's sorted JSON."""
    specs = {json.dumps(point, sort_keys=True): ModelSpec(kind, point) for point in DEFAULT_GRIDS[kind]}
    return _model_docs(samples, specs, tmp_path)


class TestTreePins:
    """Decision-tree model JSON recorded from the recursive tree builder on
    the ``TestGridSearchPins`` sets; it must stay byte for byte the same."""

    PINS = json.loads((Path(__file__).parent / "data" / "tree_model_pins.json").read_text())

    @pytest.mark.parametrize("name, make", _PIN_SETS)
    def test_model_json_unchanged(self, name, make, tmp_path):
        assert _tree_model_docs(make(), tmp_path) == self.PINS[name]


class TestLinearKnnPins:
    """Linear-family and kNN model JSON at every ``DEFAULT_GRIDS`` point,
    recorded from the per-kind fitters on the ``TestGridSearchPins`` sets; it
    must stay byte for byte the same."""

    PINS = json.loads((Path(__file__).parent / "data" / "linear_knn_model_pins.json").read_text())

    @pytest.mark.parametrize("kind", LINEAR_KINDS + ("knn",))
    @pytest.mark.parametrize("name, make", _PIN_SETS)
    def test_model_json_unchanged(self, name, make, kind, tmp_path):
        assert _grid_model_docs(make(), kind, tmp_path) == self.PINS[name][kind]


def _thresholds(node):
    return [] if node["kind"] == "leaf" else [
        node["threshold"], *_thresholds(node["left"]), *_thresholds(node["right"])
    ]


class TestAllPixels:
    """Every pinned model answers all 256 pixels of a uint8 frame from one
    ``predict_batch`` call as ``predict`` answers them one at a time; a tree
    routes as the recursive walker of its saved dict."""

    @pytest.mark.parametrize("name", [name for name, _ in _PIN_SETS])
    def test_batch_equals_scalar_predict(self, name, tmp_path):
        models = pinned_models(tmp_path, name)
        assert {model.kind for model in models} == set(MODEL_KINDS)
        for model in models:
            table = model.predict_batch(np.arange(256.0)).tolist()
            assert repr(table) == repr([model.predict(p) for p in range(256)])

    @pytest.mark.parametrize("name", [name for name, _ in _PIN_SETS])
    def test_tree_routes_as_dict_walker(self, name, tmp_path):
        for model in pinned_models(tmp_path, name):
            if model.kind != "decision_tree":
                continue
            tree = model.params["tree"]
            cuts = np.array(_thresholds(tree))
            q = np.concatenate([np.arange(256.0), cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)])
            assert repr(model.predict_batch(q).tolist()) == repr(walk_tree(tree, q).tolist())


class TestNonFinitePixels:
    SAMPLES = generate_calibration_set(200, 20.0, 0.1, seed=5)
    POINTS = {
        "linear": {},
        "ridge": {"lambda": 1.0},
        "lasso": {"lambda": 1.0},
        "elastic_net": {"lambda": 1.0, "mix": 0.5},
        "knn": {"k": 3},
        "decision_tree": {"max_depth": 4, "min_samples_leaf": 5},
    }

    @pytest.mark.parametrize("pixel", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_value_error_for_every_kind(self, kind, pixel):
        # No kind has a meaningful answer here: kNN would average the lowest
        # pixels' neighbours for +inf, and a tree would route NaN by whichever
        # way its comparison fails.
        model = ModelSpec(kind, self.POINTS[kind]).fit(self.SAMPLES)
        with pytest.raises(ValueError, match="max_pixel must be finite"):
            model.predict(pixel)
        for pixels in ([100.0, pixel], np.array([pixel, 100.0])):
            with pytest.raises(ValueError, match="pixels must be finite"):
                model.predict_batch(pixels)
        assert math.isfinite(model.predict(300.0))


class TestGuardAndSelection:
    def test_hot_prediction_fails(self):
        model = ModelSpec("linear", {}).fit(TWO_POINTS)  # predicts 25 + 0.1 p
        result = plausibility_guard(model, [145.0], ceiling_c=38.0)
        assert not result.passed
        assert result.offending[0][0] == 145.0
        assert result.offending[0][1] == pytest.approx(39.5, abs=1e-12)

    def test_constant_normal_model_passes(self):
        samples = [CalibrationSample(float(p), 36.6) for p in (10, 100, 200)]
        model = ModelSpec("linear", {}).fit(samples)
        assert plausibility_guard(model, [0.0, 128.0, 255.0]).passed

    def test_vacuous_ceiling_passes(self):
        model = ModelSpec("linear", {}).fit(TWO_POINTS)
        assert plausibility_guard(model, [255.0], ceiling_c=100.0).passed

    def test_empty_screening_set_rejected(self):
        with pytest.raises(ValueError):
            plausibility_guard(ModelSpec("linear", {}).fit(TWO_POINTS), [])

    @pytest.mark.parametrize("ceiling", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "1e400"])
    def test_non_finite_ceiling_rejected(self, ceiling):
        # `pred > nan` is always False: a NaN ceiling would pass any model.
        samples = _noisy_line(n=20)
        model = ModelSpec("linear", {}).fit(samples)
        with pytest.raises(ValueError, match="ceiling_c must be finite"):
            plausibility_guard(model, [250.0], ceiling)
        report = grid_search(samples, {"linear": [{}]}, 4, 0)
        for screening in ([250.0], None):
            with pytest.raises(ValueError, match="ceiling_c must be finite"):
                select_model(samples, report, screening, ceiling)

    def _overfit_vs_shrunk_report(self, samples):
        # Rank a flexible memorizer above a heavily shrunk line, as a CV
        # ranking would on wiggly data.
        knn_entry = k_fold_cv(samples, ModelSpec("knn", {"k": 1}), 4, seed=0)
        knn_entry.grid_index = 0
        ridge_entry = k_fold_cv(samples, ModelSpec("ridge", {"lambda": 20000.0}), 4, seed=0)
        ridge_entry.grid_index = 1
        return CrossValReport(
            entries=[knn_entry, ridge_entry],
            n_samples=len(samples),
            mean_temperature_c=float(np.mean([s.temperature_c for s in samples])),
            n_folds=4,
            seed=0,
        )

    def test_guard_failure_promotes_runner_up(self):
        samples = [
            CalibrationSample(40.0, 34.0),
            CalibrationSample(80.0, 35.0),
            CalibrationSample(120.0, 36.0),
            CalibrationSample(160.0, 36.5),
            CalibrationSample(200.0, 37.0),
            CalibrationSample(250.0, 39.5),  # one hot outlier the memorizer reproduces
        ]
        report = self._overfit_vs_shrunk_report(samples)
        selected = select_model(samples, report, screening_pixels=[250.0], ceiling_c=38.0)
        assert selected.kind == "ridge"
        assert selected.provenance is not None
        assert selected.provenance["rank"] == 1
        assert selected.provenance["rejected_before"][0]["kind"] == "knn"
        assert selected.provenance["guard"]["passed"] is True

    def test_all_pass_takes_top_rank(self):
        samples = _noisy_line(n=20)
        report = grid_search(samples, {"linear": [{}], "knn": [{"k": 3}]}, 4, 0)
        selected = select_model(samples, report, screening_pixels=[50.0], ceiling_c=60.0)
        assert selected.kind == report.entries[0].spec.kind
        assert selected.provenance["rank"] == 0

    def test_all_fail_raises(self):
        # A steep line: predict(200) = 45, over any 38-degree ceiling.
        samples = [
            CalibrationSample(50.0, 30.0),
            CalibrationSample(100.0, 35.0),
            CalibrationSample(125.0, 37.5),
            CalibrationSample(150.0, 40.0),
        ]
        report = grid_search(samples, {"linear": [{}]}, 2, 0)
        with pytest.raises(NoViableModelError):
            select_model(samples, report, screening_pixels=[200.0], ceiling_c=38.0)

    def test_none_screening_skips_guard(self):
        samples = _noisy_line(n=20)
        report = grid_search(samples, {"linear": [{}]}, 4, 0)
        selected = select_model(samples, report, screening_pixels=None)
        assert selected.provenance["guard"] == {"screened": False, "passed": True}


class TestPersistence:
    def test_linear_family_round_trip_is_bit_exact(self, tmp_path, rng):
        for fit in (
            lambda s: ModelSpec("linear", {}).fit(s),
            lambda s: ModelSpec("ridge", {"lambda": 2.5}).fit(s),
            lambda s: ModelSpec("lasso", {"lambda": 0.7}).fit(s),
            lambda s: ModelSpec("elastic_net", {"lambda": 1.3, "mix": 0.5}).fit(s),
        ):
            samples = _noisy_line(n=30, seed=int(rng.integers(1_000_000)))
            model = fit(samples)
            path = tmp_path / f"{model.kind}.json"
            save_model(model, path)
            loaded = load_model(path)
            pixels = rng.uniform(0, 255, 1000)
            for p in pixels:
                assert loaded.predict(float(p)) == model.predict(float(p))

    @pytest.mark.parametrize("kind", sorted(LINEAR_KINDS))
    def test_integer_params_predict_floats(self, tmp_path, kind):
        # A hand-written model file may hold JSON integers; the reading log
        # writes repr(temperature), so predict must not answer 220 where
        # predict_batch answers 220.0.
        path = tmp_path / "model.json"
        save_model(FittedRegressor(kind, {"intercept": 20, "slope": 1}), path)
        loaded = load_model(path)
        assert repr(loaded.predict(200)) == repr(loaded.predict_batch([200]).tolist()[0]) == "220.0"
        table = loaded.predict_batch(np.arange(256.0)).tolist()
        assert repr([loaded.predict(p) for p in range(256)]) == repr(table)

    def test_knn_and_tree_round_trip(self, tmp_path, rng):
        samples = _noisy_line(n=25)
        specs = [ModelSpec("knn", {"k": 3}), ModelSpec("decision_tree", {"max_depth": 3, "min_samples_leaf": 2})]
        for spec in specs:
            model = spec.fit(samples)
            path = tmp_path / f"{model.kind}.json"
            save_model(model, path)
            loaded = load_model(path)
            for p in rng.uniform(0, 255, 200):
                assert loaded.predict(float(p)) == model.predict(float(p))

    def test_document_is_versioned_json(self, tmp_path):
        model = ModelSpec("linear", {}).fit(TWO_POINTS)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "thermotrack-model"
        assert doc["version"] == 1
        assert doc["training_digest"].startswith("sha256:")

    def test_undefined_scores_are_written_as_null(self, tmp_path):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        samples = _noisy_line(n=20)
        report = grid_search(samples, {"ridge": [{"lambda": 0.1}]}, k_folds=20, seed=0)
        model = select_model(samples, report)
        assert math.isnan(model.provenance["cv_mean_r2"])  # leave-one-out folds have no R2
        path = tmp_path / "loo.json"
        save_model(model, path)
        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc["provenance"]["cv_mean_r2"] is None
        assert doc["train_r2"] == model.train_r2

    def test_constant_temperatures_load_with_nan_r2(self, tmp_path):
        model = ModelSpec("linear", {}).fit([CalibrationSample(p, 36.0) for p in (50.0, 100.0, 150.0)])
        path = tmp_path / "flat.json"
        save_model(model, path)
        assert json.loads(path.read_text())["train_r2"] is None
        loaded = load_model(path)
        assert math.isnan(loaded.train_r2)
        assert loaded.train_mse == model.train_mse

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("knn", {"pixels": [1.0, 2.0, 3.0], "temps": [10.0, 20.0, 30.0], "k": 5}),
            ("knn", {"pixels": [1.0, 2.0, 3.0], "temps": [10.0, 20.0, 30.0], "k": 0}),
            ("knn", {"pixels": [1.0, 2.0, 3.0], "temps": [10.0, 20.0, 30.0], "k": 2.0}),
            ("knn", {"pixels": [1.0, 2.0, 3.0], "temps": [10.0, 20.0], "k": 1}),
            ("knn", {"pixels": [1.0, float("nan")], "temps": [10.0, 20.0], "k": 1}),
            ("knn", {"pixels": [1.0, "2"], "temps": [10.0, 20.0], "k": 1}),
            ("linear", {"intercept": float("inf"), "slope": 0.1}),
            ("ridge", {"intercept": 20.0, "slope": None}),
            ("decision_tree", {"tree": {"kind": "split", "threshold": 100.0}}),
            ("decision_tree", {"tree": {"kind": "leaf"}}),
            ("decision_tree", {"tree": {"kind": "stump", "value": 36.0}}),
            ("decision_tree", {"tree": {"kind": "leaf", "value": "36"}}),
            (
                "decision_tree",
                {
                    "tree": {
                        "kind": "split",
                        "threshold": float("nan"),
                        "left": {"kind": "leaf", "value": 35.0},
                        "right": {"kind": "leaf", "value": 37.0},
                    }
                },
            ),
            (
                "decision_tree",
                {
                    "tree": {
                        "kind": "split",
                        "threshold": 100.0,
                        "left": {"kind": "leaf", "value": 35.0},
                        "right": [37.0],
                    }
                },
            ),
            ("decision_tree", {}),
            ("ridge", {"intercept": 10**400, "slope": 0.1}),
            ("knn", {"pixels": [1.0, 10**400], "temps": [10.0, 20.0], "k": 1}),
            ("decision_tree", {"tree": {"kind": "leaf", "value": 10**400}}),
            (
                "decision_tree",
                {
                    "tree": {
                        "kind": "split",
                        "threshold": 10**400,
                        "left": {"kind": "leaf", "value": 35.0},
                        "right": {"kind": "leaf", "value": 37.0},
                    }
                },
            ),
        ],
        ids=[
            "knn-k-above-n",
            "knn-k-zero",
            "knn-k-not-int",
            "knn-length-mismatch",
            "knn-nonfinite-pixel",
            "knn-non-number-pixel",
            "linear-nonfinite-intercept",
            "ridge-missing-slope",
            "tree-split-without-children",
            "tree-leaf-without-value",
            "tree-unknown-node-kind",
            "tree-non-number-value",
            "tree-nonfinite-threshold",
            "tree-child-not-object",
            "tree-missing",
            "ridge-huge-intercept",
            "knn-huge-pixel",
            "tree-huge-leaf",
            "tree-huge-threshold",
        ],
    )
    def test_unusable_params_rejected(self, tmp_path, kind, params):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "thermotrack-model", "version": 1, "kind": kind, "params": params}))
        with pytest.raises(ValueError, match="bad.json"):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("doc", [[1, 2], "x", None, 3.5], ids=["list", "string", "null", "number"])
    def test_non_object_document_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="bad.json: not a thermotrack-model document"):
            load_model(path)


class TestCalibrationCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cal.csv"
        save_calibration_csv(TWO_POINTS, path)
        assert load_calibration_csv(path) == TWO_POINTS

    def test_header_required(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("pixel,temp\n100,36.5\n")
        with pytest.raises(ValueError, match="header"):
            load_calibration_csv(path)

    def test_out_of_range_sample_rejected(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("max_pixel,temperature_c\n300,36.5\n")
        with pytest.raises(ValueError):
            load_calibration_csv(path)

    def test_sample_bounds(self):
        with pytest.raises(ValueError):
            CalibrationSample(-1.0, 36.0)
        with pytest.raises(ValueError):
            CalibrationSample(100.0, 80.0)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400, -(10**400)], ids=["nan", "inf", "-inf", "1e400", "-1e400"]
    )
    def test_non_finite_sample_is_value_error(self, value):
        with pytest.raises(ValueError, match="max_pixel"):
            CalibrationSample(value, 36.0)
        with pytest.raises(ValueError, match="temperature_c"):
            CalibrationSample(100.0, value)
