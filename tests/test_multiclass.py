import inspect
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cdfeat import core, multiclass
from cdfeat.model import FEATURE_MODES, CdfConfig, Dataset, model_from_json, model_to_json
from cdfeat.multiclass import (
    VoteRecord,
    pipeline_trainer,
    predict,
    predict_batch,
    resolve_winner,
    train,
)
from cdfeat.svm import (
    GridCell, KernelSpec, SvmForm, SvmModel, cross_validate, decision, decision_batch,
    decision_forms, monomial_exponents,
)

import cv_oracle
import pair_loop_oracle
import scalar_oracle
from conftest import gaussian_blobs

POLY2 = KernelSpec(kind="polynomial", degree=2)
KERNELS = {
    "linear": KernelSpec(kind="linear"),
    "polynomial": POLY2,
    "rbf": KernelSpec(kind="rbf"),
}


def two_class_dataset(seed=0):
    x, y = gaussian_blobs(20, seed=seed, dims=10, classes=2)
    return Dataset.from_arrays(x, y)


class TestTrain:
    def test_two_classes_single_pair(self):
        model = train(two_class_dataset(), CdfConfig(), kernel=POLY2)
        assert len(model.pairs) == 1

    def test_pair_count_formula(self):
        x, y = gaussian_blobs(8, seed=2, dims=15, classes=5)
        model = train(Dataset.from_arrays(x, y), CdfConfig(), kernel=POLY2)
        assert len(model.pairs) == 10  # 5*4/2

    def test_identical_classes_degenerate_no_crash(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(0, 4, size=(12, 6))
        x = np.vstack([base, base])
        y = [0] * 12 + [1] * 12
        model = train(Dataset.from_arrays(x, y), CdfConfig(), kernel=POLY2)
        ctx, _ = model.pairs[0]
        assert ctx.fallback
        preds = [predict(model, row)[0] for row in base]
        assert set(preds) <= {0, 1}

    def test_invalid_dataset_rejected(self):
        ds = two_class_dataset()
        bad = Dataset(
            samples=ds.samples,
            labels=np.concatenate([[9], ds.labels[1:]]),
            label_names=ds.label_names,
        )
        with pytest.raises(ValueError, match="invalid dataset"):
            train(bad, CdfConfig(), kernel=POLY2)

    def test_label_outside_names_refused_before_fitting(self, monkeypatch):
        # Three classes of rows but two label names: refused before any solve.
        x, y = gaussian_blobs(6, seed=4, dims=5, classes=3)
        bad = Dataset(samples=x, labels=y, label_names=("a", "b"))
        calls, smo_train = [], multiclass.smo_train
        monkeypatch.setattr(
            multiclass, "smo_train", lambda *a, **k: calls.append(a) or smo_train(*a, **k)
        )
        with pytest.raises(ValueError, match=r"invalid dataset: .*class id 2 outside \[0, 2\)"):
            train(bad, CdfConfig(), kernel=POLY2)
        assert calls == []

    def test_single_class_rejected(self):
        x = np.abs(np.random.default_rng(0).normal(size=(5, 3)))
        ds = Dataset.from_arrays(x, [0] * 5)
        with pytest.raises(ValueError, match="two classes"):
            train(ds, CdfConfig(), kernel=POLY2)

    @pytest.mark.parametrize("settings", [
        {"c": 0.0}, {"c": float("inf")}, {"tol": 0.0}, {"tol": float("nan")}, {"tol": "0.001"},
        {"max_passes": 0}, {"max_passes": 2.5},
    ])
    def test_bad_svm_settings_refused_before_fitting(self, settings, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a pair SVM was fitted")

        monkeypatch.setattr(multiclass, "fit_pairs", no_fit)
        with pytest.raises(ValueError, match=next(iter(settings))):
            train(two_class_dataset(), CdfConfig(), kernel=POLY2, **settings)

    def test_train_then_predict_separable_zero_errors(self):
        x, y = gaussian_blobs(30, seed=4, dims=20, classes=3)
        ds = Dataset.from_arrays(x, y)
        model = train(ds, CdfConfig(), kernel=POLY2)
        preds = [predict(model, s)[0] for s in ds.samples]
        assert preds == list(ds.labels)


class TestPredict:
    def test_two_votes_beat_one(self):
        x, y = gaussian_blobs(25, seed=6, dims=15, classes=3)
        ds = Dataset.from_arrays(x, y)
        model = train(ds, CdfConfig(), kernel=POLY2)
        sample = ds.class_matrix(0)[0]
        winner, record = predict(model, sample)
        assert sum(record.votes) == 3
        # A clean class-0 sample wins both its pairs; (1,2) cannot outvote it.
        assert record.votes[0] == 2
        assert winner == 0

    def test_m2_winner_is_decision_sign(self):
        ds = two_class_dataset(seed=7)
        model, (svm,) = pair_loop_oracle.train_keeping_svms(ds, CdfConfig(), kernel=POLY2)
        ctx, _ = model.pairs[0]
        for sample in list(ds.samples)[:20]:
            feat = core.sample_feature(
                np.asarray(sample), ctx.mask, ctx.ref_x, ctx.ref_y,
                model.config.feature_mode, model.config.smoothing_eps,
            )
            d = decision(svm, feat)
            expected = 0 if d > 0 else 1
            assert predict(model, sample)[0] == expected

    def test_vote_conservation(self):
        x, y = gaussian_blobs(10, seed=8, dims=16, classes=4)
        ds = Dataset.from_arrays(x, y)
        model = train(ds, CdfConfig(), kernel=POLY2)
        rng = np.random.default_rng(9)
        for _ in range(25):
            sample = rng.uniform(0, 10, size=16)
            _, record = predict(model, sample)
            assert sum(record.votes) == 6  # 4*3/2

    def test_repeated_calls_bit_identical(self):
        ds = two_class_dataset(seed=10)
        model = train(ds, CdfConfig(), kernel=POLY2)
        sample = ds.samples[3]
        first = predict(model, sample)
        for _ in range(5):
            assert predict(model, sample) == first

    def test_dimension_mismatch(self):
        model = train(two_class_dataset(), CdfConfig(), kernel=POLY2)
        with pytest.raises(ValueError, match="does not match model dim"):
            predict(model, np.ones(3))


class TestWinnerResolution:
    def test_margin_breaks_vote_tie(self):
        assert resolve_winner([1, 1, 1], [2.0, 3.0, 5.0]) == 2
        assert resolve_winner([1, 1, 1], [2.0, 5.0, 3.0]) == 1

    def test_class_id_breaks_full_tie(self):
        assert resolve_winner([1, 1, 1], [2.0, 2.0, 2.0]) == 0

    def test_vote_record_checks_total(self):
        with pytest.raises(ValueError, match="vote total"):
            VoteRecord(votes=(4, 1, 1), margin_sums=(0.0, 0.0, 0.0))


# 2 C x 2 b with C outer, as `cdfeat train --grid-c --grid-b` builds it, so
# cross_validate must regroup the cells by (b, b_prime).
CV_GRID = [
    GridCell(c=c, kernel=POLY2, b=b, b_prime=1.0) for c in (1.0, 10.0) for b in (0.5, 2.0)
]


def cv_blobs(seed):
    """Overlapping 3-class blobs, so the cells' accuracies differ."""
    x, y = gaussian_blobs(12, seed=seed, dims=12, classes=3, shift=2.5)
    return x, np.asarray(y)


def recording(trainer, models):
    """Wrap a trainer so that each call's fitted model lands in models[cell]."""

    def wrapped(x_train, y_train, cell):
        predict = trainer(x_train, y_train, cell)
        models.setdefault(cell, []).append(inspect.getclosurevars(predict).nonlocals["model"])
        return predict

    return wrapped


class TestPipelineTrainer:
    def test_grid_b_values_reach_the_masks(self):
        x, y = gaussian_blobs(12, seed=21, dims=18, classes=3)
        trainer = pipeline_trainer(CdfConfig(), seed=0)
        grid = [
            GridCell(c=10.0, kernel=POLY2, b=0.5, b_prime=0.5),
            GridCell(c=10.0, kernel=POLY2, b=2.0, b_prime=2.0),
        ]
        result = cross_validate(x, np.asarray(y), grid, folds=3, seed=0, trainer=trainer)
        assert len(result.table) == 2
        for cell, acc in result.table:
            assert 0.0 <= acc <= 1.0
        # Separable blobs: the winning cell classifies the held-out folds.
        assert dict(result.table)[result.best] == 1.0

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_matches_the_per_cell_oracle(self, mode):
        x, y = cv_blobs(seed=31)
        cfg = CdfConfig(feature_mode=mode)
        models = {}
        result = cross_validate(
            x, y, CV_GRID, folds=3, seed=4, trainer=recording(pipeline_trainer(cfg), models)
        )
        want, want_models = cv_oracle.cross_validate(x, y, CV_GRID, 3, 4, cfg)
        assert result.table == want.table
        assert result.best == want.best
        assert len({acc for _, acc in want.table}) > 1
        for cell, fitted in zip(CV_GRID, want_models):
            assert [model_to_json(m) for m in models[cell]] == list(map(model_to_json, fitted))

    def test_builds_profiles_per_fold_and_selections_per_fold_and_b(self, monkeypatch):
        calls = {"class_sum": 0, "build_pair_context": 0}
        for name in calls:
            def counted(*args, _fn=getattr(core, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(core, name, counted)
        x, y = cv_blobs(seed=32)
        cross_validate(x, y, CV_GRID, folds=3, seed=0, trainer=pipeline_trainer(CdfConfig()))
        # 3 folds x 3 classes, and 3 folds x 2 b x 3 pairs; per cell it
        # would be 36 of each.
        assert calls == {"class_sum": 9, "build_pair_context": 18}

    def test_reused_trainer_follows_the_callers_writes(self):
        x, y = cv_blobs(seed=33)
        other, _ = cv_blobs(seed=34)
        trainer = pipeline_trainer(CdfConfig())
        first = cross_validate(x, y, CV_GRID, folds=3, seed=0, trainer=trainer)
        fresh_first = cross_validate(
            x.copy(), y, CV_GRID, folds=3, seed=0, trainer=pipeline_trainer(CdfConfig())
        )
        x[:] = other
        second = cross_validate(x, y, CV_GRID, folds=3, seed=0, trainer=trainer)
        fresh_second = cross_validate(
            x, y, CV_GRID, folds=3, seed=0, trainer=pipeline_trainer(CdfConfig())
        )
        assert first == fresh_first
        assert second == fresh_second
        assert first.table != second.table

        # Called directly on the caller's own array, written in place between
        # calls: the second model is the one a fresh trainer fits.
        x, y = cv_blobs(seed=35)
        models = {}
        trainer = recording(pipeline_trainer(CdfConfig()), models)
        trainer(x, y, CV_GRID[0])
        x[0, 0] += 1.0
        trainer(x, y, CV_GRID[0])
        want = train(Dataset.from_arrays(x, y), CdfConfig(b=0.5), kernel=POLY2, c=1.0)
        assert model_to_json(models[CV_GRID[0]][1]) == model_to_json(want)
        assert model_to_json(models[CV_GRID[0]][0]) != model_to_json(want)

    def test_errors_keep_their_order(self):
        x, y = cv_blobs(seed=36)
        trainer = pipeline_trainer(CdfConfig())
        bad_x = x.copy()
        bad_x[0, 0] = -1.0
        with pytest.raises(ValueError, match="invalid dataset"):
            trainer(bad_x, y, GridCell(c=0.0, kernel=POLY2))
        with pytest.raises(ValueError, match="c must be"):
            trainer(x, np.zeros_like(y), GridCell(c=0.0, kernel=POLY2))
        with pytest.raises(ValueError, match="two classes"):
            trainer(x, np.zeros_like(y), GridCell(c=1.0, kernel=POLY2))
        # A failed call caches nothing: the next call trains normally.
        trainer(x, y, GridCell(c=1.0, kernel=POLY2))


class TestPredictBatch:
    def test_empty_batch(self):
        model = train(two_class_dataset(), CdfConfig(), kernel=POLY2)
        assert predict_batch(model, []) == []

    def test_batch_of_one_equals_predict(self):
        ds = two_class_dataset(seed=11)
        model = train(ds, CdfConfig(), kernel=POLY2)
        sample = ds.samples[0]
        assert predict_batch(model, [sample]) == [predict(model, sample)]
        # Every row of a 10-class, 784-dim batch: winners and vote records,
        # margins included, must match one-sample predict exactly.
        # The polynomial and linear kernels decide dual_kl and scalar_kl
        # through the decision forms, rbf and elementwise_kl through the
        # kernel expansion.
        x, y = gaussian_blobs(10, seed=11, dims=784, classes=10, shift=2.0)
        for mode in FEATURE_MODES:
            for name, kernel in KERNELS.items():
                cfg = CdfConfig(feature_mode=mode)
                model = train(Dataset.from_arrays(x, y), cfg, kernel=kernel)
                batch = predict_batch(model, x)
                assert len(batch) == x.shape[0]
                for i, row in enumerate(x):
                    assert batch[i] == predict(model, row), f"{mode} {name} row {i}"

    def test_permutation_permutes_output(self):
        ds = two_class_dataset(seed=12)
        model = train(ds, CdfConfig(), kernel=POLY2)
        batch = list(ds.samples)[:8]
        out = predict_batch(model, batch)
        perm = [5, 2, 7, 0, 1, 6, 3, 4]
        permuted = predict_batch(model, [batch[i] for i in perm])
        assert permuted == [out[i] for i in perm]

    def test_invalid_component_reports_sample_index(self):
        # Every component is checked, not only the ones inside a pair's mask.
        ds = two_class_dataset(seed=13)
        model = train(ds, CdfConfig(), kernel=POLY2)
        for bad in (-1.0, np.nan, np.inf):
            batch = ds.samples[:4].copy()
            batch[2, 0] = bad
            with pytest.raises(ValueError, match="sample 2: components must be finite"):
                predict_batch(model, batch)
            with pytest.raises(ValueError, match="sample 0: components must be finite"):
                predict(model, batch[2])

    def test_mismatch_reports_sample_index(self):
        ds = two_class_dataset(seed=13)
        model = train(ds, CdfConfig(), kernel=POLY2)
        batch = [ds.samples[0], np.ones(2)]
        with pytest.raises(ValueError, match="sample 1"):
            predict_batch(model, batch)
        with pytest.raises(ValueError, match="sample 0: length 2 does not match"):
            predict_batch(model, np.ones((3, 2)))


class TestBatchAgainstScalarOracle:
    @pytest.fixture(scope="class")
    def blobs(self):
        x, y = gaussian_blobs(10, seed=11, dims=784, classes=10, shift=2.0)
        ds = Dataset.from_arrays(x, y)
        fits = {
            m: pair_loop_oracle.train_keeping_svms(ds, CdfConfig(feature_mode=m), kernel=POLY2)
            for m in FEATURE_MODES
        }
        return x, {m: model for m, (model, _) in fits.items()}, ds, fits

    def test_winners_match_per_row_oracle(self, blobs):
        x, _, _, fits = blobs
        probes = np.vstack([x, np.random.default_rng(3).uniform(0, 4, size=(20, 784))])
        # Not elementwise_kl: the oracle normalizes each row with a 1-D sum, and
        # these small margins (1e-5) magnify that last-bit difference past 1e-9.
        for mode in ("dual_kl", "scalar_kl"):
            model, svms = fits[mode]
            batch = predict_batch(model, probes)
            for i, row in enumerate(probes):
                winner, record = scalar_oracle.predict(model, row, svms)
                assert batch[i][0] == winner, f"{mode} row {i}"
                assert batch[i][1].votes == record.votes, f"{mode} row {i}"
                np.testing.assert_allclose(
                    batch[i][1].margin_sums, record.margin_sums, rtol=1e-9
                )

    def test_prefix_of_batch_is_unchanged(self, blobs):
        x, models, _, _ = blobs
        for mode, model in models.items():
            full = predict_batch(model, x)
            for k in (1, 2, 3, 17, 64):
                assert predict_batch(model, x[:k]) == full[:k], f"{mode} k={k}"

    def test_reloaded_model_votes_bit_identical(self, blobs):
        x, poly_models, ds, _ = blobs
        for mode in FEATURE_MODES:
            for name, kernel in KERNELS.items():
                model = poly_models[mode] if kernel == POLY2 else train(
                    ds, CdfConfig(feature_mode=mode), kernel=kernel
                )
                loaded = model_from_json(model_to_json(model))
                assert predict_batch(loaded, x) == predict_batch(model, x), (mode, name)


def oracle_dataset(classes, seed):
    """Non-negative rows with about 30% exact zeros; the last class repeats
    the rows of the one before it, so their pair falls back to one index."""
    rng = np.random.default_rng(seed)
    x, y = gaussian_blobs(12, seed=seed, dims=40, classes=classes, shift=6.0)
    x = x * (rng.uniform(size=x.shape) > 0.3)
    if classes > 2:
        y = np.asarray(y)
        x[y == classes - 1] = x[y == classes - 2]
    return Dataset.from_arrays(x, y)


def sparse_dataset(classes, seed, dim=320):
    """Bag-of-words-like counts: each row has 1 to dim / 8 nonzero components,
    most of them in its class's own block of terms, so every row takes the
    sparse path of `core.whole_kl_features`."""
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(classes), 12)
    x = np.zeros((y.size, dim))
    block = np.arange(dim) // (dim // classes)
    for row, c in zip(x, y):
        p = np.where(block == c, 8.0, 1.0)
        k = rng.integers(1, dim // 8 + 1)
        row[rng.choice(dim, size=k, replace=False, p=p / p.sum())] = rng.integers(1, 6, size=k)
    return Dataset.from_arrays(x, y)


def oracle_probes(model, ds, seed):
    """Training rows plus rows that stress the whole-divergence features:
    zero rows, rows zero on one pair's mask, tiny rows, and components up
    to 1e306."""
    rng = np.random.default_rng(seed)
    dim = model.dim
    rows = rng.uniform(0, 8, size=(12, dim)) * (rng.uniform(size=(12, dim)) > 0.3)
    masked_out = []
    for ctx, _ in model.pairs:
        row = rng.uniform(0, 8, size=dim)
        row[ctx.mask] = 0.0
        masked_out.append(row)
    huge = rng.uniform(0, 8, size=(6, dim))
    huge[np.arange(6), rng.integers(0, dim, size=6)] = 1e306
    return np.vstack(
        [ds.samples, rows, np.zeros((2, dim)), masked_out, huge,
         rows[:4] * 1e305 / 8, rows[4:8] * 1e-300]
    )


class TestPredictAgainstPairLoopOracle:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("mode", FEATURE_MODES)
    @pytest.mark.parametrize("classes", (2, 4))
    def test_same_votes_and_features(self, classes, mode, kernel):
        ds = oracle_dataset(classes, seed=31 + classes)
        model, svms = pair_loop_oracle.train_keeping_svms(
            ds, CdfConfig(feature_mode=mode), kernel=KERNELS[kernel]
        )
        if classes > 2:
            assert model.pairs[-1][0].fallback and model.pairs[-1][0].mask.size == 1
        probes = oracle_probes(model, ds, seed=7)
        assert np.any(probes == 0) and probes.max() == 1e306
        got = predict_batch(model, probes)
        want = pair_loop_oracle.predict_batch(model, probes, svms)
        for i, ((gw, gr), (ww, wr)) in enumerate(zip(got, want)):
            assert gw == ww and gr.votes == wr.votes, f"row {i}"
            np.testing.assert_allclose(gr.margin_sums, wr.margin_sums, rtol=1e-9, atol=0)
        if mode != "elementwise_kl":
            feats = core.whole_kl_features(probes, model.kl_weights)
            want_feats = np.stack(pair_loop_oracle.pair_features(model, probes), axis=1)
            assert np.all(np.isfinite(want_feats))
            assert np.all(np.abs(feats - want_feats) <= 1e-12 * (1 + np.abs(want_feats)))


FORM_KERNELS = [KernelSpec(kind="linear")] + [
    KernelSpec(kind="polynomial", degree=d, gamma=g, coef0=c0)
    for d in (1, 2, 3, 4) for g in (None, 0.25) for c0 in (0.0, 1.0, 2.5)
]


def expansion_decisions(model, svms, x):
    """Each pair SVM's `decision_batch` on its dual_kl or scalar_kl features."""
    feats = core.whole_kl_features(x, model.kl_weights).swapaxes(0, 1)
    return np.stack([decision_batch(svm, f) for svm, f in zip(svms, feats)], axis=1)


class TestDecisionForms:
    @pytest.mark.parametrize("kernel", FORM_KERNELS, ids=repr)
    @pytest.mark.parametrize("mode", ("dual_kl", "scalar_kl"))
    @pytest.mark.parametrize("classes", (2, 4))
    def test_forms_match_the_kernel_expansion(self, classes, mode, kernel):
        ds = oracle_dataset(classes, seed=31 + classes)
        model, svms = pair_loop_oracle.train_keeping_svms(
            ds, CdfConfig(feature_mode=mode), kernel=kernel
        )
        probes = oracle_probes(model, ds, seed=7)
        want = expansion_decisions(model, svms, probes)
        got = multiclass.pair_decisions(model, probes)
        assert model.decision_forms is not None
        assert got.shape == want.shape == (probes.shape[0], len(model.pairs))
        assert np.all(np.abs(got - want) <= 1e-9 * (1 + np.abs(want)))
        clear = np.abs(want) > 1e-9
        np.testing.assert_array_equal(got[clear] > 0, want[clear] > 0)

    @pytest.mark.parametrize("kernel", [
        KernelSpec(kind="linear"), POLY2, KernelSpec(kind="polynomial", degree=3),
    ], ids=["linear", "poly2", "poly3"])
    @pytest.mark.parametrize("mode", ("dual_kl", "scalar_kl"))
    def test_stored_forms_decide_as_the_fitted_svms(self, mode, kernel):
        ds = oracle_dataset(4, seed=35)
        model, svms = pair_loop_oracle.train_keeping_svms(
            ds, CdfConfig(feature_mode=mode), kernel=kernel
        )
        x = np.vstack([ds.samples, oracle_probes(model, ds, seed=8)[-16:]])
        want = expansion_decisions(model, svms, x)
        got = multiclass.pair_decisions(model, x)
        assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))
        for (_, form), svm in zip(model.pairs, svms):
            assert isinstance(form, SvmForm) and form.bias == svm.bias
            assert form.support_vectors.shape == (svm.coef.size, 0)
            assert (form.support_count, form.iterations, form.kkt_violation_max) == (
                svm.coef.size, svm.iterations, svm.kkt_violation_max)

    @pytest.mark.parametrize("kernel", sorted(set(KERNELS) - {"rbf"}))
    @pytest.mark.parametrize("mode", ("dual_kl", "scalar_kl"))
    def test_votes_bit_identical_to_forms_derived_at_predict(self, mode, kernel):
        # The forms `decision_forms` derives from the fitted SVMs, evaluated
        # apart from the model, give the bits of the stored forms.
        ds = oracle_dataset(4, seed=37)
        model, svms = pair_loop_oracle.train_keeping_svms(
            ds, CdfConfig(feature_mode=mode), kernel=KERNELS[kernel]
        )
        loaded = model_from_json(model_to_json(model))
        probes = oracle_probes(model, ds, seed=9)
        derived = pair_loop_oracle.form_decisions(model, svms, probes)
        want = multiclass.vote(derived, model.num_classes)
        for m in (model, loaded):
            assert multiclass.pair_decisions(m, probes).tobytes() == derived.tobytes()
            got = predict_batch(m, probes)
            assert got == want
            for (_, g), (_, w) in zip(got, want):
                assert np.array(g.margin_sums).tobytes() == np.array(w.margin_sums).tobytes()
        oracle = pair_loop_oracle.predict_batch(model, probes, svms)
        assert [w for w, _ in got] == [w for w, _ in oracle]

    @pytest.mark.parametrize("width, degree, count", [(1, 1, 2), (1, 4, 5), (2, 1, 3),
                                                      (2, 2, 6), (2, 4, 15)])
    def test_monomial_count(self, width, degree, count):
        exponents = monomial_exponents(width, degree)
        assert len(exponents) == len(set(exponents)) == count
        assert all(len(a) == width and sum(a) <= degree for a in exponents)

    def test_only_linear_and_polynomial_kl_models_have_forms(self):
        ds = oracle_dataset(3, seed=41)
        for mode in FEATURE_MODES:
            for name, kernel in KERNELS.items():
                model = train(ds, CdfConfig(feature_mode=mode), kernel=kernel)
                has = name != "rbf" and mode != "elementwise_kl"
                assert (model.decision_forms is not None) == has, (mode, name)
                kind = SvmForm if has else SvmModel
                assert all(type(svm) is kind for _, svm in model.pairs), (mode, name)

    def test_forms_built_by_training_stacked_on_first_use(self):
        # Training keeps each pair's column of one `decision_forms` call; the
        # model stacks them on first use, which is not compared or serialized.
        ds = oracle_dataset(3, seed=41)
        model, svms = pair_loop_oracle.train_keeping_svms(ds, CdfConfig(), kernel=POLY2)
        text = model_to_json(model)
        loaded = model_from_json(text)
        assert "decision_forms" not in vars(model) and "decision_forms" not in vars(loaded)
        want = decision_forms(svms)
        for m in (model, loaded):
            forms = m.decision_forms
            assert forms.exponents == want.exponents
            assert forms.weights.tobytes() == want.weights.tobytes()
            assert forms.bias.tobytes() == want.bias.tobytes()
            assert "decision_forms" in vars(m)
        assert loaded == model and model_to_json(loaded) == text

    def test_svm_without_support_vectors_decides_its_bias(self):
        spec = KernelSpec(kind="polynomial", degree=3, gamma=0.5)
        fitted = SvmModel(support_vectors=np.array([[1.0, 2.0], [3.0, 1.0]]),
                          coef=np.array([0.5, -0.5]), bias=0.25, kernel=spec, c=1.0,
                          iterations=1, kkt_violation_max=0.0)
        empty = SvmModel(support_vectors=np.empty((0, 2)), coef=np.empty(0), bias=-1.5,
                         kernel=spec, c=1.0, iterations=0, kkt_violation_max=0.0)
        forms = decision_forms([empty, fitted, empty])
        np.testing.assert_array_equal(forms.weights[:, [0, 2]], 0.0)
        np.testing.assert_array_equal(forms.bias, [-1.5, 0.25, -1.5])

    def test_mixed_or_rbf_kernels_refused(self):
        def svm(spec):
            return SvmModel(support_vectors=np.ones((2, 1)), coef=np.array([1.0, -1.0]),
                            bias=0.0, kernel=spec, c=1.0, iterations=1,
                            kkt_violation_max=0.0)

        poly = KernelSpec(kind="polynomial", gamma=1.0)
        with pytest.raises(ValueError, match="one kernel"):
            decision_forms([svm(poly), svm(KernelSpec(kind="linear"))])
        with pytest.raises(ValueError, match="rbf"):
            decision_forms([svm(KernelSpec(kind="rbf", gamma=1.0))])
        with pytest.raises(ValueError, match="unresolved"):
            decision_forms([svm(KernelSpec(kind="polynomial"))])


def training_features(monkeypatch, *args, **kwargs):
    """The model `train(*args, **kwargs)` returns, and each pair's SVM input."""
    seen = {}
    extract = core.extract_pair_features

    def spy(*a):
        features, labels = extract(*a)
        seen[a[2].class_x, a[2].class_y] = features, labels
        return features, labels

    monkeypatch.setattr(core, "extract_pair_features", spy)
    model = train(*args, **kwargs)
    monkeypatch.undo()
    return model, seen


class TestTrainAgainstPairLoopOracle:
    @pytest.mark.parametrize("mode", FEATURE_MODES)
    @pytest.mark.parametrize("classes", (2, 4))
    def test_features_match_the_per_pair_path(self, monkeypatch, classes, mode):
        ds = oracle_dataset(classes, seed=31 + classes)
        cfg = CdfConfig(feature_mode=mode)
        model, seen = training_features(monkeypatch, ds, cfg, kernel=POLY2)
        assert np.mean(ds.samples == 0) > 0.25
        if classes > 2:
            assert model.pairs[-1][0].fallback
        assert list(seen) == [(ctx.class_x, ctx.class_y) for ctx, _ in model.pairs]
        for ctx, _ in model.pairs:
            got, labels = seen[ctx.class_x, ctx.class_y]
            want, want_labels = pair_loop_oracle.pair_training_data(ds, ctx, cfg)
            np.testing.assert_array_equal(labels, want_labels)
            assert got.shape == want.shape
            if mode == "elementwise_kl":
                np.testing.assert_array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))

    @pytest.mark.parametrize("classes", (2, 4))
    def test_elementwise_model_bytes_match_the_per_pair_path(self, classes):
        ds = oracle_dataset(classes, seed=31 + classes)
        cfg = CdfConfig(feature_mode="elementwise_kl")
        model = train(ds, cfg, kernel=POLY2)
        assert model_to_json(model) == model_to_json(pair_loop_oracle.train(ds, cfg, POLY2))

    @pytest.mark.parametrize("mode", ("dual_kl", "scalar_kl"))
    @pytest.mark.parametrize("classes", (2, 4))
    def test_features_are_the_predict_features(self, monkeypatch, classes, mode):
        # Dense rows, then rows that all take the sparse path.
        for ds in (oracle_dataset(classes, seed=31 + classes), sparse_dataset(classes, seed=31)):
            model, seen = training_features(monkeypatch, ds, CdfConfig(feature_mode=mode),
                                            kernel=POLY2)
            for j, (ctx, _) in enumerate(model.pairs):
                rows = np.concatenate([ds.class_matrix(ctx.class_x),
                                       ds.class_matrix(ctx.class_y)])
                want = core.whole_kl_features(rows, model.kl_weights)[:, j]
                np.testing.assert_array_equal(seen[ctx.class_x, ctx.class_y][0], want)


class TestSampleFeatureIsABatchRow:
    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_bits_equal_the_training_rows(self, monkeypatch, mode):
        # Dense rows, then rows that all take the sparse path. With 4 classes
        # a class's training pass runs under the weights of its 3 pairs.
        cfg = CdfConfig(feature_mode=mode)
        for ds in (oracle_dataset(4, seed=35), sparse_dataset(4, seed=36)):
            model, seen = training_features(monkeypatch, ds, cfg, kernel=POLY2)
            for ctx, _ in model.pairs:
                rows = np.concatenate([ds.class_matrix(ctx.class_x),
                                       ds.class_matrix(ctx.class_y)])
                got = np.stack([
                    core.sample_feature(row, ctx.mask, ctx.ref_x, ctx.ref_y, mode,
                                        cfg.smoothing_eps)
                    for row in rows
                ])
                assert got.tobytes() == seen[ctx.class_x, ctx.class_y][0].tobytes(), ctx

    @pytest.mark.parametrize("mode", ("dual_kl", "scalar_kl"))
    def test_bits_equal_the_predict_rows(self, mode):
        cfg = CdfConfig(feature_mode=mode)
        model = train(oracle_dataset(3, seed=37), cfg, kernel=POLY2)
        x = mixed_rows(model.dim, seed=38)
        feats = core.whole_kl_features(x, model.kl_weights)
        for j, (ctx, _) in enumerate(model.pairs):
            for row, want in zip(x, feats[:, j]):
                got = core.sample_feature(row, ctx.mask, ctx.ref_x, ctx.ref_y, mode,
                                          cfg.smoothing_eps)
                assert got.tobytes() == want.tobytes(), (ctx, row)


class TestWeightsOfSomePairs:
    @pytest.mark.parametrize("mode", ("dual_kl", "scalar_kl"))
    def test_some_pairs_give_the_same_bits(self, mode):
        # Training takes each class's features under the weights of its
        # pairs alone. Dense rows, then rows that all take the sparse path.
        for ds in (oracle_dataset(4, seed=35), sparse_dataset(4, seed=35)):
            cfg = CdfConfig(feature_mode=mode)
            model = train(ds, cfg, kernel=POLY2)
            whole = core.whole_kl_features(ds.samples, model.kl_weights)
            contexts = [ctx for ctx, _ in model.pairs]
            for js in ([0], [5, 1, 3], list(range(len(model.pairs)))):
                weights = core.pair_kl_weights(
                    [contexts[j] for j in js], model.dim, mode, cfg.smoothing_eps
                )
                got = core.whole_kl_features(ds.samples[3:], weights)
                np.testing.assert_array_equal(got, whole[3:, js])


def path_rows(monkeypatch):
    """The number of rows each path of `core.whole_kl_features` computes."""
    seen = {"sparse": 0, "dense": 0}
    for name in seen:
        def spy(x, *args, name=name, sums=getattr(core, f"_{name}_sums")):
            seen[name] += len(x)
            return sums(x, *args)

        monkeypatch.setattr(core, f"_{name}_sums", spy)
    return seen


def mixed_rows(dim, seed):
    """Dense rows, sparse rows up to dim / 8 nonzeros, zero rows and rows of
    one nonzero, as they are, at 1e300 and at multiples of 5e-324."""
    rng = np.random.default_rng(seed)
    dense = rng.uniform(0, 8, size=(4, dim))
    sparse = np.zeros((4, dim))
    for row, k in zip(sparse, (2, 5, dim // 8 - 1, dim // 8)):
        row[rng.choice(dim, size=k, replace=False)] = rng.integers(1, 9, size=k)
    one = np.zeros((3, dim))
    one[np.arange(3), [0, rng.integers(1, dim - 1), dim - 1]] = [1.0, 3.0, 7.0]
    counts = np.vstack([np.floor(dense), sparse, np.zeros((2, dim)), one])
    return np.vstack([dense, sparse, np.zeros((2, dim)), one, counts * 1e300, counts * 5e-324])


class TestRowPaths:
    """`core.whole_kl_features` computes a row of at most dim / 8 nonzeros from
    its nonzeros and any other row from all components."""

    @pytest.mark.parametrize("mode", ("dual_kl", "scalar_kl"))
    def test_row_bits_do_not_depend_on_the_batch(self, monkeypatch, mode):
        model = train(sparse_dataset(4, seed=61), CdfConfig(feature_mode=mode), kernel=POLY2)
        x = mixed_rows(model.dim, seed=62)
        seen = path_rows(monkeypatch)
        feats = core.whole_kl_features(x, model.kl_weights)
        assert seen["sparse"] > 0 and seen["dense"] > 0
        for i in range(len(x)):
            np.testing.assert_array_equal(
                core.whole_kl_features(x[i:i + 1], model.kl_weights)[0], feats[i], f"row {i}"
            )
        perm = np.random.default_rng(63).permutation(len(x))
        np.testing.assert_array_equal(core.whole_kl_features(x[perm], model.kl_weights),
                                      feats[perm])
        batch = predict_batch(model, x)
        assert batch == [predict(model, row) for row in x]
        assert predict_batch(model, x[perm]) == [batch[i] for i in perm]

    @pytest.mark.parametrize("mode", ("dual_kl", "scalar_kl"))
    def test_sparse_features_match_kl_features(self, mode):
        cfg = CdfConfig(feature_mode=mode)
        ds = sparse_dataset(4, seed=64)
        model = train(ds, cfg, kernel=POLY2)
        x = np.vstack([ds.samples, mixed_rows(model.dim, seed=65)])
        feats = core.whole_kl_features(x, model.kl_weights)
        for j, (ctx, _) in enumerate(model.pairs):
            want = pair_loop_oracle.kl_features(x, ctx.mask, ctx.ref_x, ctx.ref_y, mode,
                                                cfg.smoothing_eps)
            assert np.all(np.abs(feats[:, j] - want) <= 1e-12 * (1 + np.abs(want))), ctx

    def test_rows_at_the_threshold(self, monkeypatch):
        model = train(sparse_dataset(3, seed=66), CdfConfig(), kernel=POLY2)
        dim = model.dim
        assert dim % 8 == 0
        rng = np.random.default_rng(67)
        x = np.zeros((2, dim))
        for row, k in zip(x, (dim // 8, dim // 8 + 1)):
            row[rng.choice(dim, size=k, replace=False)] = rng.integers(1, 9, size=k)
        seen = path_rows(monkeypatch)
        at = core.whole_kl_features(x[:1], model.kl_weights)
        assert seen == {"sparse": 1, "dense": 0}
        above = core.whole_kl_features(x[1:], model.kl_weights)
        assert seen == {"sparse": 1, "dense": 1}
        got, eps = np.concatenate([at, above]), model.config.smoothing_eps
        for j, (ctx, _) in enumerate(model.pairs):
            want = pair_loop_oracle.kl_features(x, ctx.mask, ctx.ref_x, ctx.ref_y, "dual_kl", eps)
            assert np.all(np.abs(got[:, j] - want) <= 1e-12 * (1 + np.abs(want)))

    def test_transposed_weights_are_built_by_the_first_sparse_row(self):
        ds = oracle_dataset(3, seed=68)
        model = train(ds, CdfConfig(), kernel=POLY2)
        assert np.all(np.count_nonzero(ds.samples, axis=1) > model.dim / 8)
        predict_batch(model, ds.samples)
        assert "wt" not in vars(model.kl_weights)
        predict(model, np.eye(model.dim)[0])
        np.testing.assert_array_equal(vars(model.kl_weights)["wt"], model.kl_weights.w.T)


class TestCachedWeights:
    def test_cache_is_not_part_of_equality_or_the_file(self):
        x, y = gaussian_blobs(8, seed=17, dims=30, classes=3)
        model = train(Dataset.from_arrays(x, y), CdfConfig(), kernel=POLY2)
        text = model_to_json(model)
        fresh = model_from_json(text)
        # Training seeds the cache with the weights it extracted features with.
        cfg = model.config
        assert vars(model)["kl_weights"] == core.pair_kl_weights(
            [ctx for ctx, _ in model.pairs], model.dim, cfg.feature_mode, cfg.smoothing_eps
        )
        # A loaded model builds it on its first predict.
        assert "kl_weights" not in vars(fresh)
        assert predict_batch(fresh, x) == predict_batch(model, x)
        assert "kl_weights" in vars(fresh)
        assert model == fresh and fresh == model
        assert model_to_json(model) == text == model_to_json(fresh)

    def test_threads_racing_on_the_first_predict_agree(self):
        x, y = gaussian_blobs(8, seed=18, dims=30, classes=4)
        text = model_to_json(train(Dataset.from_arrays(x, y), CdfConfig(), kernel=POLY2))
        want = predict_batch(model_from_json(text), x)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                model = model_from_json(text)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(predict_batch, model, x) for _ in range(16)]
                    assert all(f.result(timeout=60) == want for f in futures)
        finally:
            sys.setswitchinterval(interval)
