"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria needing the
official MNIST or Reuters-21578 corpora skip with a reason unless
CDF_MNIST_DIR / CDF_REUTERS_DIR point at local copies; the full-scale
MNIST reproduction additionally wants CDF_RUN_FULL_MNIST=1.
"""

import os
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from cdfeat import baseline, core, metrics, multiclass
from cdfeat.cli import main as cli_main
from cdfeat.ingest import (
    build_vocabulary,
    dump_sparse,
    idx_dataset,
    load_idx_images,
    load_idx_labels,
    read_sgml_dir,
    top_topics,
    vectorize_bow,
)
from cdfeat.model import CdfConfig, Dataset, model_from_json, model_to_json
from cdfeat.svm import KernelSpec, decision, smo_train

from conftest import (
    gaussian_blobs,
    gaussian_split,
    mnist_files,
    needs_mnist,
    needs_reuters,
    reuters_dir,
)
from qp_oracle import solve_svm_exact

POLY2 = KernelSpec(kind="polynomial", degree=2)
LINEAR = KernelSpec(kind="linear")


def criterion(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_kl_oracle_equivalence():
    mpmath.mp.dps = 30
    rng = np.random.default_rng(2024)
    eps = 1e-9
    worst = 0.0
    elapsed = 0.0  # only the kl_divergence calls count toward the time bound
    for _ in range(100):
        n = int(rng.integers(2, 513))
        p = rng.random(n) + 1e-3
        q = rng.random(n) + 1e-3
        p /= p.sum()
        q /= q.sum()
        t0 = time.perf_counter()
        got = core.kl_divergence(p, q, eps=eps)
        elapsed += time.perf_counter() - t0
        oracle = mpmath.fsum(
            mpmath.mpf(pi) * mpmath.log(mpmath.mpf(pi) / (mpmath.mpf(qi) + mpmath.mpf(eps)))
            for pi, qi in zip(p, q)
        )
        worst = max(worst, abs(got - float(max(oracle, 0))))
    criterion(
        1, "KL oracle equivalence",
        worst < 1e-9 and elapsed < 1.0,
        f"worst diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_smo_correctness():
    t0 = time.perf_counter()
    # Hand-solved two-point problem: boundary at x=1, alpha=(0.5, 0.5), b=1.
    x2 = np.asarray([[0.0], [2.0]])
    y2 = np.asarray([1.0, -1.0])
    model2 = smo_train(x2, y2, c=1000.0, spec=LINEAR)
    ok = abs(decision(model2, [1.0])) <= 1e-3
    ok &= decision(model2, [0.0]) > 0 and decision(model2, [2.0]) < 0
    oracle2 = solve_svm_exact(x2, y2, 1000.0, LINEAR)
    for probe in ([0.0], [1.0], [2.0]):
        ok &= abs(decision(model2, probe) - oracle2.decision(probe)) <= 1e-3

    x10 = np.asarray(
        [
            [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5],
            [4.0, 4.0], [5.0, 4.0], [4.0, 5.0], [5.0, 5.0], [4.5, 4.5],
        ]
    )
    y10 = np.asarray([1.0] * 5 + [-1.0] * 5)
    model10 = smo_train(x10, y10, c=1000.0, spec=LINEAR)
    oracle10 = solve_svm_exact(x10, y10, 1000.0, LINEAR)
    worst = 0.0
    for row, label in zip(x10, y10):
        d_got = decision(model10, row)
        d_want = oracle10.decision(row)
        ok &= np.sign(d_got) == np.sign(d_want) == label
        worst = max(worst, abs(d_got - d_want))
    ok &= worst <= 1e-3
    elapsed = time.perf_counter() - t0
    criterion(
        2, "SMO matches brute-force dual oracle",
        bool(ok) and elapsed < 5.0,
        f"worst decision diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_pipeline_end_to_end():
    t0 = time.perf_counter()
    train_ds, test_ds = gaussian_split(n_train=100, n_test=100)
    errors = {}
    for mode in ("dual_kl", "scalar_kl", "elementwise_kl"):
        cfg = CdfConfig(feature_mode=mode)
        model = multiclass.train(train_ds, cfg, kernel=POLY2, c=10.0, seed=0)
        preds = [multiclass.predict(model, s)[0] for s in test_ds.samples]
        errors[mode] = sum(1 for p, t in zip(preds, test_ds.labels) if p != t)
    elapsed = time.perf_counter() - t0
    criterion(
        3, "synthetic 3-class pipeline, every feature mode",
        all(e == 0 for e in errors.values()) and elapsed < 30.0,
        f"errors {errors}, {elapsed:.1f}s",
    )


@pytest.mark.mnist
@needs_mnist
def test_criterion_4_mnist_pairwise_desk_scale():
    t0 = time.perf_counter()
    files = mnist_files()
    train_images = load_idx_images(files["train_images"].read_bytes())
    train_labels = load_idx_labels(files["train_labels"].read_bytes())
    train_full = idx_dataset(train_images, train_labels, keep_classes=[0, 1])
    keep = np.sort(np.concatenate(
        [np.flatnonzero(train_full.labels == c)[:500] for c in (0, 1)]
    ))
    train_ds = Dataset.from_arrays(
        train_full.samples[keep], train_full.labels[keep], label_names=train_full.label_names
    )

    test_images = load_idx_images(files["test_images"].read_bytes())
    test_labels = load_idx_labels(files["test_labels"].read_bytes())
    test_ds = idx_dataset(test_images, test_labels, keep_classes=[0, 1])
    assert len(test_ds) == 2115  # official count of 0s and 1s

    model = multiclass.train(train_ds, CdfConfig(), kernel=POLY2, c=10.0, seed=0)
    preds = [multiclass.predict(model, s)[0] for s in test_ds.samples]
    err = metrics.error_rate(preds, list(test_ds.labels))
    elapsed = time.perf_counter() - t0
    criterion(
        4, "MNIST 0-vs-1 desk scale",
        err <= 0.02 and elapsed < 120.0,
        f"error {err:.4f} (bound 0.02), {elapsed:.0f}s",
    )


@pytest.mark.mnist
@pytest.mark.slow
@needs_mnist
@pytest.mark.skipif(
    os.environ.get("CDF_RUN_FULL_MNIST") != "1",
    reason="full 60k/10k reproduction; set CDF_RUN_FULL_MNIST=1",
)
def test_criterion_5_mnist_full_reproduction():
    from cdfeat.svm import GridCell, cross_validate, stratified_folds

    t0 = time.perf_counter()
    files = mnist_files()
    train_images = load_idx_images(files["train_images"].read_bytes())
    train_labels = load_idx_labels(files["train_labels"].read_bytes())
    train_ds = idx_dataset(train_images, train_labels)
    test_images = load_idx_images(files["test_images"].read_bytes())
    test_labels = load_idx_labels(files["test_labels"].read_bytes())
    test_ds = idx_dataset(test_images, test_labels)

    # Documented grids; CV runs on a stratified subsample to fit the clock.
    y_all = np.asarray(train_ds.labels)
    sub_folds = stratified_folds(y_all, 12, seed=0)
    sub = sub_folds[0]
    x_sub = train_ds.samples[sub]
    y_sub = y_all[sub]
    grid = [
        GridCell(c=c, kernel=POLY2, b=b, b_prime=bp)
        for c in (0.1, 1.0, 10.0, 100.0)
        for b in (0.5, 1.0, 1.5, 2.0)
        for bp in (0.5, 1.0, 1.5, 2.0)
    ]
    trainer = multiclass.pipeline_trainer(CdfConfig(), seed=0)
    cv = cross_validate(x_sub, y_sub, grid, folds=3, seed=0, trainer=trainer)
    best = cv.best

    cfg = CdfConfig(b=best.b, b_prime=best.b_prime)
    model = multiclass.train(train_ds, cfg, kernel=POLY2, c=best.c, seed=0)
    preds = [multiclass.predict(model, s)[0] for s in test_ds.samples]
    err = metrics.error_rate(preds, list(test_ds.labels))
    elapsed = time.perf_counter() - t0
    stretch = "met" if err <= 0.0125 else "missed"
    criterion(
        5, "MNIST full 10-class reproduction",
        err <= 0.025 and elapsed <= 3600.0,
        f"error {err:.4f} (target 0.025, stretch 0.0125 {stretch}), "
        f"best cell c={best.c} b={best.b} b'={best.b_prime}, {elapsed:.0f}s",
    )


@pytest.mark.reuters
@needs_reuters
def test_criterion_6_reuters_cdf_beats_tfidf():
    t0 = time.perf_counter()
    docs = read_sgml_dir(reuters_dir())
    categories = top_topics(docs, k=10)
    vocab = build_vocabulary(docs, min_df=3)
    train_docs = [d for d in docs if d.split_tag == "train"]
    test_docs = [d for d in docs if d.split_tag == "test"]
    bow_train = vectorize_bow(train_docs, vocab, categories)
    bow_test = vectorize_bow(test_docs, vocab, categories)
    train_ds, test_ds = bow_train.dataset, bow_test.dataset

    cdf_model = multiclass.train(train_ds, CdfConfig(), kernel=POLY2, c=10.0, seed=0)
    cdf_preds = [multiclass.predict(cdf_model, s)[0] for s in test_ds.samples]
    cm = metrics.confusion(cdf_preds, list(test_ds.labels), 10)
    _, micro_cdf, _ = metrics.macro_micro_f(cm)

    idf = baseline.fit_idf(train_ds.matrix())
    tf_train = baseline.transform(idf, train_ds.matrix())
    tf_test = baseline.transform(idf, test_ds.matrix())
    ovo = baseline.train_ovo(
        tf_train, list(train_ds.labels), 10, kernel=POLY2, c=10.0, seed=0
    )
    tfidf_preds = [baseline.predict_ovo(ovo, row) for row in tf_test]
    cm_b = metrics.confusion(tfidf_preds, list(test_ds.labels), 10)
    _, micro_tfidf, _ = metrics.macro_micro_f(cm_b)

    elapsed = time.perf_counter() - t0
    criterion(
        6, "Reuters: CDF micro-F beats TFxIDF under the same SVM stack",
        micro_cdf > micro_tfidf and elapsed <= 900.0,
        f"micro-F cdf {micro_cdf:.4f} vs tfidf {micro_tfidf:.4f}, {elapsed:.0f}s",
    )


def test_criterion_7_metrics_oracle():
    # Hand calculation for [[8,2],[3,7]]: macro=(16/21+14/19)/2, micro=0.75.
    cm = metrics.ConfusionMatrix(np.asarray([[8, 2], [3, 7]]), 20)
    macro, micro, _ = metrics.macro_micro_f(cm)
    ok = abs(macro - 299.0 / 399.0) <= 1e-9 and abs(micro - 0.75) <= 1e-9

    rng = np.random.default_rng(77)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 120))
        truth = rng.integers(0, m, size=n)
        preds = rng.integers(0, m, size=n)
        conf = metrics.confusion(preds, truth, m)
        _, micro_f, _ = metrics.macro_micro_f(conf)
        ok &= abs(micro_f - (1.0 - metrics.error_rate(preds, truth))) <= 1e-12
    criterion(7, "metrics hand oracle and micro-F identity", bool(ok))


def test_criterion_8_invariant_suite():
    rng = np.random.default_rng(88)
    results = {}

    # Mask monotonicity in b/b' (ratio mode).
    checked = 0
    ok_mono = True
    while checked < 100:
        t_x = rng.uniform(0, 5, size=30)
        t_y = rng.uniform(0, 5, size=30)
        mu_xy = core.pair_mean(core.pair_ratios(t_x, t_y, 1e-9))
        mu_yx = core.pair_mean(core.pair_ratios(t_y, t_x, 1e-9))
        b1, b2 = sorted(rng.uniform(0.3, 2.5, size=2))
        bp1, bp2 = sorted(rng.uniform(0.3, 2.5, size=2))
        lo, fb1 = core.select_indices(t_x, t_y, b1 * mu_xy, bp1 * mu_yx)
        hi, fb2 = core.select_indices(t_x, t_y, b2 * mu_xy, bp2 * mu_yx)
        if fb1 or fb2:
            continue
        ok_mono &= set(hi).issubset(set(lo))
        checked += 1
    results["mask_monotone"] = ok_mono

    # Pair-swap mask symmetry.
    ok_sym = True
    for _ in range(100):
        t_x = rng.uniform(0, 5, size=25)
        t_y = rng.uniform(0, 5, size=25)
        tau = rng.uniform(0.5, 3.0)
        tau_p = rng.uniform(0.5, 3.0)
        fwd, _ = core.select_indices(t_x, t_y, tau, tau_p)
        rev, _ = core.select_indices(t_y, t_x, tau_p, tau)
        ok_sym &= list(fwd) == list(rev)
    results["pair_swap_symmetry"] = ok_sym

    # KL non-negativity.
    ok_kl = True
    for _ in range(100):
        n = int(rng.integers(2, 50))
        p = rng.random(n) + 1e-9
        q = rng.random(n) + 1e-9
        ok_kl &= core.kl_divergence(p / p.sum(), q / q.sum()) >= 0.0
    results["kl_non_negative"] = ok_kl

    # Vote-count conservation over random probes of a trained model.
    x, y = gaussian_blobs(12, seed=5, dims=16, classes=4)
    model = multiclass.train(Dataset.from_arrays(x, y), CdfConfig(), kernel=POLY2)
    ok_votes = True
    for _ in range(100):
        probe = rng.uniform(0, 12, size=16)
        _, record = multiclass.predict(model, probe)
        ok_votes &= sum(record.votes) == 6
    results["vote_conservation"] = ok_votes

    # restrict_normalize sums to one over the mask.
    ok_norm = True
    for _ in range(100):
        n = int(rng.integers(2, 60))
        sample = rng.uniform(0, 10, size=n) * (rng.random(n) > 0.3)
        k = int(rng.integers(1, n + 1))
        mask = np.sort(rng.choice(n, size=k, replace=False))
        vec, _ = core.restrict_normalize(sample, mask)
        ok_norm &= vec.shape == (k,) and abs(float(np.sum(vec)) - 1.0) <= 1e-12
    results["restrict_normalize_sum"] = ok_norm

    # Model serialization round-trip across random tiny models.
    ok_rt = True
    modes = ("dual_kl", "scalar_kl", "elementwise_kl")
    for i in range(100):
        x, y = gaussian_blobs(5, seed=1000 + i, dims=6, classes=2)
        cfg = CdfConfig(b=0.5 + (i % 4) * 0.5, feature_mode=modes[i % 3])
        m = multiclass.train(Dataset.from_arrays(x, y), cfg, kernel=POLY2, c=5.0)
        ok_rt &= model_from_json(model_to_json(m)) == m
    results["serialization_round_trip"] = ok_rt

    criterion(8, "invariant suite", all(results.values()), str(results))


def test_criterion_9_determinism(tmp_path):
    train_ds, _ = gaussian_split(n_train=100, n_test=100)
    data = tmp_path / "train.sparse"
    data.write_text(dump_sparse(train_ds))

    outputs = []
    for run in (1, 2):
        model_path = tmp_path / f"model-{run}.json"
        report_path = tmp_path / f"report-{run}"
        rc = cli_main(
            [
                "train", "--format", "sparse", "--data", str(data), "--dim", "20",
                "--model", str(model_path), "--out", str(report_path), "--seed", "123",
            ]
        )
        assert rc == 0
        outputs.append((model_path.read_bytes(), report_path.read_bytes()))
    same_model = outputs[0][0] == outputs[1][0]
    same_report = outputs[0][1] == outputs[1][1]
    criterion(
        9, "same-seed runs byte-identical",
        same_model and same_report,
        f"model bytes {len(outputs[0][0])}, report bytes {len(outputs[0][1])}",
    )
