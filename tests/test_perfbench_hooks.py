"""The names `perfbench/spans.py` wraps exist, and its hooks run on them.

The bench skips a hook whose target is gone and then just omits the metrics
that need it, so a renamed function or a dropped attribute (say `ctx.b`)
would otherwise show only as missing per-layer numbers.
"""

import inspect
from pathlib import Path

from cdfeat import baseline, svm
from cdfeat.model import CdfConfig, CdfModel, Dataset, model_from_json, model_to_json
from cdfeat.multiclass import pipeline_trainer, predict, predict_batch, train
from cdfeat.svm import KernelSpec

from conftest import gaussian_blobs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# HOOKS entries for names these modules no longer import: baseline fits its
# pairs through `multiclass.fit_pairs` and decides through `ovo_decisions`,
# and multiclass decides through `decision_batch` and the decision forms.
# Nothing calls through them, so no span is lost; the install skips them.
UNUSED_HOOKS = {"cdfeat.baseline.smo_train", "cdfeat.baseline.decision",
                "cdfeat.multiclass.decision"}


def test_every_hook_is_installed_and_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    missing = {f"{owner.__name__}.{attr}"
               for owner, attr, _ in spans.HOOKS if attr not in owner.__dict__}
    assert missing <= UNUSED_HOOKS
    assert isinstance(svm.FULL_GRAM_LIMIT, int)

    x, y = gaussian_blobs(8, seed=23, dims=10, classes=3)
    originals = [owner.__dict__.get(attr) for owner, attr, _ in spans.HOOKS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        model = train(Dataset.from_arrays(x, y), CdfConfig(b=0.75),
                      kernel=KernelSpec(kind="polynomial", degree=2))
        back = model_from_json(model_to_json(model))
        batch = predict_batch(back, x)
        one = predict(back, x[0])
        metrics = tracer.layer_metrics()
        ovo = baseline.train_ovo(x, y, 3, KernelSpec(kind="polynomial", degree=2))
        solves = tracer.layer_metrics()["svm.smo_calls"] - metrics["svm.smo_calls"]
    finally:
        tracer.remove()

    assert tracer.installed == {name for _, _, name in spans.HOOKS}
    assert one == batch[0]
    # `_on_extract_pair_features` read each pair's context and multipliers.
    assert tracer.counts["feature_rows"] > 0
    assert {key[2:4] for key in tracer.feature_keys} == {(0.75, 1.0)}
    assert {key[:2] for key in tracer.feature_keys} == {(0, 1), (0, 2), (1, 2)}
    assert metrics["svm.smo_calls"] == 3 and "svm.gram_bytes_max" in metrics
    # The baseline's solves run through the same `fit_pairs`, one per pair.
    assert len(ovo.pairs) == solves == 3
    for name in ("core.context_s", "core.features_s", "model.to_json_s",
                 "model.from_json_s", "multiclass.predict_self_s"):
        assert name in metrics, name
    # remove() put every original back.
    assert [owner.__dict__.get(attr) for owner, attr, _ in spans.HOOKS] == originals


def test_cv_solves_are_tallied_from_the_trainers_closure(monkeypatch):
    # perfbench's `_counting_trainer` tallies each CV call's solves from the
    # `model` the predict closure of `pipeline_trainer` holds; if that name
    # went away it would skip the tally without an error.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    x, y = gaussian_blobs(6, seed=29, dims=10, classes=3)
    grid = [svm.GridCell(c=c, kernel=KernelSpec(kind="polynomial", degree=2), b=b)
            for c in (1.0, 10.0) for b in (0.5, 1.0)]
    ledger, out = workloads.Ledger(), workloads.RoundOut()
    trainer = workloads._counting_trainer(pipeline_trainer(CdfConfig()), ledger, out)
    predict_one = pipeline_trainer(CdfConfig())(x, y, grid[0])

    svm.cross_validate(x, y, grid, 3, 0, trainer)

    assert isinstance(inspect.getclosurevars(predict_one).nonlocals["model"], CdfModel)
    assert out.trainer_calls == 12
    assert ledger.ops["solve"] == [12 * 3, 0]
