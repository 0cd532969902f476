import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cdfeat import core
from cdfeat.model import FEATURE_MODES, CdfConfig, Dataset, model_from_json, model_to_json
from cdfeat.multiclass import (
    VoteRecord,
    predict,
    predict_batch,
    resolve_winner,
    train,
)
from cdfeat.svm import KernelSpec, decision

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
            num_classes=ds.num_classes,
            dim=ds.dim,
            label_names=ds.label_names,
        )
        with pytest.raises(ValueError, match="invalid dataset"):
            train(bad, CdfConfig(), kernel=POLY2)

    def test_single_class_rejected(self):
        x = np.abs(np.random.default_rng(0).normal(size=(5, 3)))
        ds = Dataset.from_arrays(x, [0] * 5)
        with pytest.raises(ValueError, match="two classes"):
            train(ds, CdfConfig(), kernel=POLY2)

    def test_jobs_match_sequential(self):
        x, y = gaussian_blobs(10, seed=3, dims=12, classes=3)
        ds = Dataset.from_arrays(x, y)
        sequential = train(ds, CdfConfig(), kernel=POLY2, seed=1, jobs=1)
        threaded = train(ds, CdfConfig(), kernel=POLY2, seed=1, jobs=4)
        assert sequential == threaded

    def test_train_then_predict_separable_zero_errors(self):
        x, y = gaussian_blobs(30, seed=4, dims=20, classes=3)
        ds = Dataset.from_arrays(x, y)
        model = train(ds, CdfConfig(), kernel=POLY2)
        preds = [predict(model, s)[0] for s in ds.samples]
        assert preds == list(ds.labels)

    def test_literal_selection_mode_trains(self):
        x, y = gaussian_blobs(30, seed=14, dims=20, classes=3)
        ds = Dataset.from_arrays(x, y)
        model = train(ds, CdfConfig(selection_mode="literal"), kernel=POLY2)
        assert model.config.selection_mode == "literal"
        preds = [predict(model, s)[0] for s in ds.samples]
        assert preds == list(ds.labels)

    def test_pair_override_reaches_contexts(self):
        x, y = gaussian_blobs(15, seed=15, dims=12, classes=3)
        ds = Dataset.from_arrays(x, y)
        cfg = CdfConfig(b=1.0, b_prime=1.0, pair_overrides={(0, 2): (1.5, 0.5)})
        model = train(ds, cfg, kernel=POLY2)
        contexts = {(ctx.class_x, ctx.class_y): ctx for ctx, _ in model.pairs}
        ctx_01, ctx_02 = contexts[0, 1], contexts[0, 2]
        assert (ctx_01.b, ctx_01.b_prime) == (1.0, 1.0)
        assert (ctx_02.b, ctx_02.b_prime) == (1.5, 0.5)


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
        model = train(ds, CdfConfig(), kernel=POLY2)
        ctx, svm = model.pairs[0]
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

    def test_vote_record_checks_winner(self):
        with pytest.raises(ValueError, match="tie-break"):
            VoteRecord(votes=(1, 1, 1), margin_sums=(0.0, 1.0, 5.0), winner=1)

    def test_vote_record_checks_total(self):
        with pytest.raises(ValueError, match="vote total"):
            VoteRecord(votes=(4, 1, 1), margin_sums=(0.0, 0.0, 0.0), winner=0)


class TestPipelineTrainer:
    def test_grid_b_values_reach_the_masks(self):
        from cdfeat.multiclass import pipeline_trainer
        from cdfeat.svm import GridCell, cross_validate

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
        x, y = gaussian_blobs(10, seed=11, dims=784, classes=10, shift=2.0)
        for mode in FEATURE_MODES:
            cfg = CdfConfig(feature_mode=mode)
            model = train(Dataset.from_arrays(x, y), cfg, kernel=POLY2)
            batch = predict_batch(model, x)
            assert len(batch) == x.shape[0]
            for i, row in enumerate(x):
                assert batch[i] == predict(model, row), f"{mode} row {i}"

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
        models = {m: train(ds, CdfConfig(feature_mode=m), kernel=POLY2) for m in FEATURE_MODES}
        return x, models

    def test_winners_match_per_row_oracle(self, blobs):
        x, models = blobs
        probes = np.vstack([x, np.random.default_rng(3).uniform(0, 4, size=(20, 784))])
        # Not elementwise_kl: the oracle normalizes each row with a 1-D sum, and
        # these small margins (1e-5) magnify that last-bit difference past 1e-9.
        for mode in ("dual_kl", "scalar_kl"):
            model = models[mode]
            batch = predict_batch(model, probes)
            for i, row in enumerate(probes):
                winner, record = scalar_oracle.predict(model, row)
                assert batch[i][0] == winner, f"{mode} row {i}"
                assert batch[i][1].votes == record.votes, f"{mode} row {i}"
                np.testing.assert_allclose(
                    batch[i][1].margin_sums, record.margin_sums, rtol=1e-9
                )

    def test_prefix_of_batch_is_unchanged(self, blobs):
        x, models = blobs
        for mode, model in models.items():
            full = predict_batch(model, x)
            for k in (1, 2, 3, 17, 64):
                assert predict_batch(model, x[:k]) == full[:k], f"{mode} k={k}"

    def test_reloaded_model_votes_bit_identical(self, blobs):
        x, models = blobs
        for mode, model in models.items():
            loaded = model_from_json(model_to_json(model))
            assert predict_batch(loaded, x) == predict_batch(model, x), mode


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
        model = train(ds, CdfConfig(feature_mode=mode), kernel=KERNELS[kernel])
        if classes > 2:
            assert model.pairs[-1][0].fallback and model.pairs[-1][0].mask.size == 1
        probes = oracle_probes(model, ds, seed=7)
        assert np.any(probes == 0) and probes.max() == 1e306
        got = predict_batch(model, probes)
        want = pair_loop_oracle.predict_batch(model, probes)
        for i, ((gw, gr), (ww, wr)) in enumerate(zip(got, want)):
            assert gw == ww and gr.votes == wr.votes, f"row {i}"
            np.testing.assert_allclose(gr.margin_sums, wr.margin_sums, rtol=1e-9, atol=0)
        if mode != "elementwise_kl":
            feats = core.whole_kl_features(probes, model.kl_weights)
            want_feats = np.stack(pair_loop_oracle.pair_features(model, probes), axis=1)
            assert np.all(np.isfinite(want_feats))
            assert np.all(np.abs(feats - want_feats) <= 1e-12 * (1 + np.abs(want_feats)))


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
        ds = oracle_dataset(classes, seed=31 + classes)
        model, seen = training_features(monkeypatch, ds, CdfConfig(feature_mode=mode),
                                        kernel=POLY2)
        for j, (ctx, _) in enumerate(model.pairs):
            rows = np.concatenate([ds.class_matrix(ctx.class_x), ds.class_matrix(ctx.class_y)])
            want = core.whole_kl_features(rows, model.kl_weights)[:, j]
            np.testing.assert_array_equal(seen[ctx.class_x, ctx.class_y][0], want)

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_jobs_do_not_change_the_model(self, mode):
        ds = oracle_dataset(4, seed=35)
        cfg = CdfConfig(feature_mode=mode)
        one = train(ds, cfg, kernel=POLY2, jobs=1)
        two = train(ds, cfg, kernel=POLY2, jobs=2)
        assert two == one and model_to_json(two) == model_to_json(one)


class TestSelectPairWeights:
    @pytest.mark.parametrize("mode", ("dual_kl", "scalar_kl"))
    def test_selected_pairs_give_the_same_bits(self, mode):
        ds = oracle_dataset(4, seed=35)
        model = train(ds, CdfConfig(feature_mode=mode), kernel=POLY2)
        whole = core.whole_kl_features(ds.samples, model.kl_weights)
        for js in ([0], [5, 1, 3], list(range(len(model.pairs)))):
            got = core.whole_kl_features(ds.samples[3:9],
                                         core.select_pair_weights(model.kl_weights, js))
            np.testing.assert_array_equal(got, whole[3:9, js])


class TestCachedWeights:
    def test_cache_is_not_part_of_equality_or_the_file(self):
        x, y = gaussian_blobs(8, seed=17, dims=30, classes=3)
        model = train(Dataset.from_arrays(x, y), CdfConfig(), kernel=POLY2)
        text = model_to_json(model)
        fresh = model_from_json(text)
        # Training seeds the cache with the weights it extracted features with.
        w, empty = vars(model)["kl_weights"]
        cfg = model.config
        want_w, want_empty = core.pair_kl_weights(
            [ctx for ctx, _ in model.pairs], model.dim, cfg.feature_mode, cfg.smoothing_eps
        )
        np.testing.assert_array_equal(w, want_w)
        np.testing.assert_array_equal(empty, want_empty)
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
