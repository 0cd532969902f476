"""The three workloads: generated inputs, setup, and one timed round.

A round is the work a user does after loading the data: fit a model, save and
reload it, predict the test split in one batch and a fixed subset one sample
at a time, then fit and apply the TF-IDF baseline on the same split. Every
call into cdfeat goes through a module attribute (`ingest.load_sparse`,
`multiclass.train`, ...) so that a traced run sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import gen
from cdfeat import baseline, ingest, metrics, multiclass, svm
from cdfeat import model as cmodel
from cdfeat.model import CdfConfig, CdfModel
from cdfeat.svm import GridCell, KernelSpec

POLY2 = KernelSpec(kind="polynomial", degree=2)
C = 10.0
SEED = 0
FOLDS = 3
# Save, load and baseline-training times vary by 10-15% between repeats within
# a run, so each round repeats them to give the run's median more samples;
# loads and the baseline are short, so they are repeated more.
SAVE_REPEATS, LOAD_REPEATS, BASELINE_REPEATS = 3, 9, 3
# C x b x b' for the cv-grid workload, as `cdfeat train --folds` would take it.
# Two values of C and b are enough to repeat profile and feature work across
# cells; a single b' keeps a round short enough for several rounds per run.
GRID = tuple(
    GridCell(c=c, kernel=POLY2, b=b, b_prime=bp)
    for c in (1.0, 10.0) for b in (0.5, 1.0) for bp in (1.0,)
)
clock = time.perf_counter


class NoTrace:
    """Stands in for spans.Tracer in untraced rounds; only holds the phase."""

    phase = ""


class Ledger:
    """Attempted and failed operations per phase, with failure messages.

    A pair solve that stops at the max_passes * n iteration cap still returns
    a model whose outputs are checked like any other, so it is not a failed
    operation: it is tallied in `capped` and reported beside the result.
    """

    def __init__(self):
        self.ops: dict[str, list[int]] = {}
        self.errors: Counter = Counter()  # (phase, what) -> failed ops
        self.capped: Counter = Counter()  # what -> solves that hit the cap

    def add(self, phase: str, attempted: int, failed: int = 0, what: str = "") -> None:
        tally = self.ops.setdefault(phase, [0, 0])
        tally[0] += attempted
        tally[1] += failed
        if failed:
            self.errors[phase, what] += failed

    def check(self, ok: bool, what: str) -> None:
        self.add("check", 1, 0 if ok else 1, what)

    def solves(self, solves: int, capped: int, what: str) -> None:
        self.add("solve", solves)
        self.capped[what] += capped

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.ops.values())

    @property
    def correct(self) -> bool:
        """No output check failed and nothing raised."""
        return not any(self.ops.get(p, (0, 0))[1] for p in ("check", "run"))


@dataclass
class Data:
    train: cmodel.Dataset
    test: cmodel.Dataset
    input_bytes: int

    def digest(self) -> str:
        h = hashlib.sha256()
        for ds in (self.train, self.test):
            h.update(ds.matrix().tobytes())
            h.update(repr((ds.labels, ds.label_names)).encode())
        return h.hexdigest()


@dataclass
class RoundOut:
    times: dict = field(default_factory=dict)
    one_ms: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # compared across rounds
    trainer_calls: int = 0
    # The fitted models, kept only until the caller has read what it needs.
    model_text: str = ""
    model: CdfModel | None = None
    ovo: object = None

    def release(self) -> None:
        self.model_text, self.model, self.ovo = "", None, None


def _generate(kind: str, out: Path, seed: tuple, *sizes: int):
    """Write one draw's input files with gen.py in a child process, so that the
    generator's memory stays out of this process's peak RSS."""
    src = Path(ingest.__file__).resolve().parent.parent
    cmd = [sys.executable, str(Path(gen.__file__).resolve()), kind, str(out),
           *map(str, (*seed, *sizes))]
    done = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": str(src)},
                          stdout=subprocess.PIPE, text=True, check=True)
    return _paths(json.loads(done.stdout.splitlines()[-1]))


def _paths(files):
    """gen.py's JSON file list with its strings turned back into Paths."""
    if isinstance(files, str):
        return Path(files)
    if isinstance(files, list):
        return [_paths(f) for f in files]
    return {k: _paths(f) for k, f in files.items()}


def _read_idx(images: Path, labels: Path, ledger: Ledger) -> cmodel.Dataset:
    ds = ingest.idx_dataset(
        ingest.load_idx_images(images.read_bytes()),
        ingest.load_idx_labels(labels.read_bytes()),
    )
    ledger.add("load", 2)
    return ds


def _solve_caps(model: CdfModel) -> tuple[int, int]:
    """(solves, solves that hit the max_passes * n iteration cap)."""
    sizes = [p.cardinality for p in model.profiles]
    capped = sum(
        s.iterations >= model.max_passes * (sizes[ctx.class_x] + sizes[ctx.class_y])
        for ctx, s in model.pairs
    )
    return len(model.pairs), capped


def _counting_trainer(inner, ledger: Ledger, out: RoundOut):
    """Wrap a cross_validate trainer to count calls and tally its solves."""

    def trainer(x_train, y_train, cell):
        predict = inner(x_train, y_train, cell)
        out.trainer_calls += 1
        # pipeline_trainer hands back only a predict closure; its fitted model
        # is read from the closure, and skipped if a later version hides it.
        fitted = inspect.getclosurevars(predict).nonlocals.get("model")
        if isinstance(fitted, CdfModel):
            ledger.solves(*_solve_caps(fitted), "CV solve")
        return predict

    return trainer


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict  # the reason for each shape is the workload's "why" in BENCHMARK.json
    latency_n: int  # test rows in the one-sample predict loop
    baseline_n: int  # test rows the baseline predicts
    # Test error ceilings (see _check_error), set well above the seed's error
    # and below a constant predictor's (0.9 on the balanced 10-class splits).
    error_ceiling: float | None
    baseline_error_ceiling: float

    def generate(self, out: Path, seed: tuple):
        raise NotImplementedError

    def setup(self, files, ledger: Ledger) -> Data:
        raise NotImplementedError

    def fit(self, data: Data, ledger: Ledger, out: RoundOut) -> CdfModel:
        model = multiclass.train(data.train, CdfConfig(), kernel=POLY2, c=C, seed=SEED, jobs=1)
        ledger.solves(*_solve_caps(model), "pair solve")
        return model


class Digits(Workload):
    def generate(self, out, seed):
        return _generate("digits", out, seed, self.sizes["train"], self.sizes["test"])

    def setup(self, files, ledger):
        train = _read_idx(*files["train"], ledger)
        test = _read_idx(*files["test"], ledger)
        return Data(train, test, sum(p.stat().st_size for f in files.values() for p in f))


class News(Workload):
    def generate(self, out, seed):
        return _generate("news", out, seed, self.sizes["docs"])

    def setup(self, files, ledger):
        docs = ingest.read_sgml_dir(files[0].parent)
        ledger.add("load", len(files))
        categories = ingest.top_topics(docs, k=10)
        vocab = ingest.build_vocabulary(docs, min_df=3)
        split = {
            tag: ingest.vectorize_bow([d for d in docs if d.split_tag == tag], vocab, categories)
            for tag in ("train", "test")
        }
        return Data(
            split["train"].dataset, split["test"].dataset, sum(p.stat().st_size for p in files)
        )


class CvGrid(Workload):
    def generate(self, out, seed):
        return _generate("cv", out, seed, self.sizes["train"], self.sizes["test"])

    def setup(self, files, ledger):
        train = ingest.load_sparse(files["train"].read_text(), dim=gen.SIDE * gen.SIDE)
        ledger.add("load", 1)
        test = _read_idx(*files["test"], ledger)
        size = files["train"].stat().st_size + sum(p.stat().st_size for p in files["test"])
        return Data(train, test, size)

    def fit(self, data, ledger, out):
        trainer = _counting_trainer(multiclass.pipeline_trainer(CdfConfig(), seed=SEED), ledger, out)
        result = svm.cross_validate(
            data.train.matrix(), np.asarray(data.train.labels), GRID, FOLDS, SEED, trainer
        )
        out.outputs["cv_table"] = tuple(
            (cell.c, cell.b, cell.b_prime, acc) for cell, acc in result.table
        )
        best = result.best
        cfg = replace(CdfConfig(), b=best.b, b_prime=best.b_prime)
        model = multiclass.train(data.train, cfg, kernel=POLY2, c=best.c, seed=SEED, jobs=1)
        ledger.solves(*_solve_caps(model), "final solve")
        return model


WORKLOADS = {
    w.name: w
    for w in (
        Digits(
            "digits",
            {"train": 60, "test": 10},
            latency_n=100, baseline_n=60,
            error_ceiling=0.7, baseline_error_ceiling=0.7,
        ),
        News(
            "news",
            {"docs": 700},
            latency_n=100, baseline_n=40,
            # The seed baseline predicts the training majority class for every
            # row (gamma = 1/dim on L2-normalised rows makes the kernel nearly
            # constant), so only the constant-predictor bound applies to it.
            error_ceiling=0.5, baseline_error_ceiling=1.0,
        ),
        CvGrid(
            "cv-grid",
            {"train": 10, "test": 10},
            latency_n=100, baseline_n=100,
            # With smoothing_eps=1e-9, pixels whose class mean is exactly 0 on
            # 10 rows per class collapse the masks and the CDF model is at
            # chance (error 0.87-0.9), so its error is not checked.
            error_ceiling=None, baseline_error_ceiling=0.8,
        ),
    )
}


def _check_votes(ledger: Ledger, preds, m: int, what: str) -> None:
    """Each vote record has m counts summing to m(m-1)/2 and names the winner;
    an inconsistent one is a failed prediction and fails the run's checks."""
    pairs = m * (m - 1) // 2
    bad = sum(
        len(rec.votes) != m or sum(rec.votes) != pairs or w != rec.winner
        for w, rec in preds
    )
    ledger.add("predict", len(preds), bad, f"inconsistent vote record ({what})")
    ledger.check(bad == 0, f"{what}: {bad} inconsistent vote records")


def _check_error(ledger: Ledger, what: str, winners, labels, train_labels, ceiling) -> None:
    """Test error must stay under `ceiling` and must not exceed the error of
    always predicting the training split's most frequent class. A ceiling of
    None skips both: the seed pipeline is at chance there."""
    if ceiling is None:
        return
    wrong = sum(w != y for w, y in zip(winners, labels))
    majority = Counter(train_labels).most_common(1)[0][0]
    constant_wrong = sum(y != majority for y in labels)
    ledger.check(wrong <= ceiling * len(labels) and wrong <= constant_wrong,
                 f"{what} error {wrong}/{len(labels)} over the ceiling {ceiling} "
                 f"or the constant predictor's {constant_wrong}")


def run_round(wl: Workload, data: Data, ledger: Ledger, tracer, timer) -> RoundOut:
    """One pass over the user-visible phases; timings and outputs in RoundOut.

    `timer.seconds(start, end)` turns clock readings into reported seconds.
    """
    out = RoundOut()
    t, o = out.times, out.outputs
    m = data.train.num_classes

    tracer.phase = "train"
    t0 = clock()
    model = wl.fit(data, ledger, out)
    t["train_s"] = [timer.seconds(t0, clock())]

    tracer.phase = "save_load"
    t["model_save_s"], t["model_load_s"] = [], []
    for _ in range(SAVE_REPEATS):
        t0 = clock()
        text = cmodel.model_to_json(model)
        t["model_save_s"].append(timer.seconds(t0, clock()))
    for _ in range(LOAD_REPEATS):
        loaded = None  # one copy at a time, as a single load would hold
        t0 = clock()
        loaded = cmodel.model_from_json(text)
        t["model_load_s"].append(timer.seconds(t0, clock()))
    ledger.check(loaded == model, "model_from_json(model_to_json(m)) != m")
    ledger.check(cmodel.model_to_json(loaded) == text, "reloaded model serializes differently")
    o["model_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    o["model_bytes"] = len(text)
    out.model_text, out.model = text, model

    tracer.phase = "predict_batch"
    samples = data.test.samples
    t0 = clock()
    preds = multiclass.predict_batch(model, samples)
    t["predict_batch_s"] = [timer.seconds(t0, clock())]
    _check_votes(ledger, preds, m, "predict_batch")
    winners = [w for w, _ in preds]
    o["winners"] = tuple(winners)
    o["votes_sha256"] = hashlib.sha256(repr([rec for _, rec in preds]).encode()).hexdigest()
    o["error_rate"] = metrics.error_rate(winners, list(data.test.labels))
    _check_error(ledger, "CDF", winners, data.test.labels, data.train.labels, wl.error_ceiling)

    tracer.phase = "predict_one"
    one = []
    for sample in samples[: wl.latency_n]:
        t0 = clock()
        one.append(multiclass.predict(loaded, sample))
        out.one_ms.append(timer.seconds(t0, clock()) * 1e3)
    _check_votes(ledger, one, m, "one-sample predict")
    ledger.check(one == preds[: wl.latency_n],
                 "one-sample predict on the reloaded model differs from predict_batch")

    tracer.phase = "baseline_train"
    t["baseline_train_s"] = []
    for _ in range(BASELINE_REPEATS):
        raw = idf = ovo = None  # one copy at a time, as a single fit would hold
        t0 = clock()
        raw = data.train.matrix()
        idf = baseline.fit_idf(raw)
        ovo = baseline.train_ovo(
            baseline.transform(idf, raw), list(data.train.labels), m, POLY2, c=C, seed=SEED
        )
        t["baseline_train_s"].append(timer.seconds(t0, clock()))
    labels = np.asarray(data.train.labels)
    capped = sum(  # train_ovo runs with its default max_passes=10
        s.iterations >= 10 * int(np.sum((labels == cx) | (labels == cy)))
        for cx, cy, s in ovo.pairs
    )
    ledger.solves(len(ovo.pairs), capped, "baseline solve")
    out.ovo = ovo

    tracer.phase = "baseline_predict"
    rows = data.test.samples[: wl.baseline_n]
    bpreds, t["baseline_predict_row_s"] = [], []
    for row in baseline.transform(idf, np.stack(rows)):
        t0 = clock()
        bpreds.append(baseline.predict_ovo(ovo, row))
        t["baseline_predict_row_s"].append(timer.seconds(t0, clock()))
    ledger.add("predict", len(bpreds))
    o["baseline_winners"] = tuple(bpreds)
    o["baseline_error_rate"] = metrics.error_rate(bpreds, list(data.test.labels[: len(rows)]))
    _check_error(ledger, "baseline", bpreds, data.test.labels[: len(rows)], data.train.labels,
                 wl.baseline_error_ceiling)
    return out


def derivable_share(model_text: str) -> float:
    """Share of the model JSON held by fields derivable from other fields."""
    doc = json.loads(model_text)
    full = len(json.dumps(doc))
    doc["config"].pop("kl_log_base", None)
    for p in doc["profiles"]:
        p.pop("sum_vec", None)
    for p in doc["pairs"]:
        p.pop("ratios", None)
    return 1.0 - len(json.dumps(doc)) / full


def model_layer_metrics(data: Data, out: RoundOut) -> dict:
    """Per-layer values read from the round's inputs and fitted models."""
    model = out.model
    dims = [ctx.mask.size / model.dim for ctx, _ in model.pairs]
    return {
        "ingest.input_bytes": data.input_bytes,
        "ingest.dense_bytes": (len(data.train) + len(data.test)) * data.train.dim * 8,
        "model.derivable_share": derivable_share(out.model_text),
        "core.mask_fraction_mean": float(np.mean(dims)),
        "core.fallback_pairs": sum(bool(ctx.fallback) for ctx, _ in model.pairs),
        "svm.support_vectors": sum(s.support_vectors.shape[0] for _, s in model.pairs)
        + sum(s.support_vectors.shape[0] for _, _, s in out.ovo.pairs),
        "svm.cv_trainer_calls": out.trainer_calls,
        "baseline.support_vector_bytes": sum(s.support_vectors.nbytes for _, _, s in out.ovo.pairs),
        "multiclass.error_rate": out.outputs["error_rate"],
        "baseline.error_rate": out.outputs["baseline_error_rate"],
    }
