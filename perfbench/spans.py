"""Span recording at cdfeat's layer boundaries, installed from outside.

`Tracer.install` replaces each boundary function with a wrapper in the
namespace its callers look it up in (a module attribute, or a class attribute
for `Dataset` methods), and `Tracer.remove` puts the originals back. A hook
whose target no longer exists is skipped; the metrics that need it are then
absent from `layer_metrics`.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import Counter

import cdfeat.baseline
import cdfeat.core
import cdfeat.ingest
import cdfeat.model
import cdfeat.multiclass
import cdfeat.svm
from cdfeat.model import Dataset

# (owner, attribute, span name). Names imported into several modules
# (`smo_train`, `decision`, `validate_dataset`) are wrapped in each of them.
HOOKS = (
    (cdfeat.ingest, "load_idx_images", "ingest.load_idx_images"),
    (cdfeat.ingest, "load_idx_labels", "ingest.load_idx_labels"),
    (cdfeat.ingest, "read_sgml_dir", "ingest.read_sgml_dir"),
    (cdfeat.ingest, "load_sparse", "ingest.load_sparse"),
    (cdfeat.ingest, "idx_dataset", "ingest.idx_dataset"),
    (cdfeat.ingest, "top_topics", "ingest.top_topics"),
    (cdfeat.ingest, "build_vocabulary", "ingest.build_vocabulary"),
    (cdfeat.ingest, "vectorize_bow", "ingest.vectorize_bow"),
    (Dataset, "from_arrays", "model.Dataset.from_arrays"),
    (Dataset, "class_matrix", "model.Dataset.class_matrix"),
    (Dataset, "matrix", "model.Dataset.matrix"),
    (cdfeat.model, "validate_dataset", "model.validate_dataset"),
    (cdfeat.multiclass, "validate_dataset", "model.validate_dataset"),
    (cdfeat.model, "model_to_json", "model.model_to_json"),
    (cdfeat.model, "model_from_json", "model.model_from_json"),
    (cdfeat.core, "class_sum", "core.class_sum"),
    (cdfeat.core, "class_mean", "core.class_mean"),
    (cdfeat.core, "build_pair_context", "core.build_pair_context"),
    (cdfeat.core, "extract_pair_features", "core.extract_pair_features"),
    (cdfeat.core, "sample_feature", "core.sample_feature"),
    (cdfeat.core, "kl_divergence", "core.kl_divergence"),
    (cdfeat.svm, "smo_train", "svm.smo_train"),
    (cdfeat.multiclass, "smo_train", "svm.smo_train"),
    (cdfeat.baseline, "smo_train", "svm.smo_train"),
    (cdfeat.svm, "decision", "svm.decision"),
    (cdfeat.multiclass, "decision", "svm.decision"),
    (cdfeat.baseline, "decision", "svm.decision"),
    (cdfeat.svm, "cross_validate", "svm.cross_validate"),
    (cdfeat.multiclass, "train", "multiclass.train"),
    (cdfeat.multiclass, "predict", "multiclass.predict"),
    (cdfeat.multiclass, "predict_batch", "multiclass.predict_batch"),
    (cdfeat.baseline, "fit_idf", "baseline.fit_idf"),
    (cdfeat.baseline, "transform", "baseline.transform"),
    (cdfeat.baseline, "train_ovo", "baseline.train_ovo"),
    (cdfeat.baseline, "predict_ovo", "baseline.predict_ovo"),
)

# Span record fields.
NAME, START, END, PARENT, PHASE, CHILD = range(6)

# Layer metric -> span names whose self time it sums.
SELF_TIME = {
    "ingest.parse_s": ("ingest.load_idx_images", "ingest.load_idx_labels",
                       "ingest.read_sgml_dir", "ingest.load_sparse"),
    "ingest.vectorize_s": ("ingest.idx_dataset", "ingest.top_topics",
                           "ingest.build_vocabulary", "ingest.vectorize_bow"),
    "model.dataset_s": ("model.Dataset.from_arrays", "model.validate_dataset",
                        "model.Dataset.class_matrix", "model.Dataset.matrix"),
    "model.to_json_s": ("model.model_to_json",),
    "model.from_json_s": ("model.model_from_json",),
    "core.profiles_s": ("core.class_sum", "core.class_mean"),
    "core.context_s": ("core.build_pair_context",),
    "svm.smo_s": ("svm.smo_train",),
    "svm.decision_s": ("svm.decision",),
    "multiclass.train_self_s": ("multiclass.train",),
    "multiclass.predict_self_s": ("multiclass.predict", "multiclass.predict_batch"),
    "baseline.tfidf_s": ("baseline.fit_idf", "baseline.transform"),
    "baseline.train_ovo_self_s": ("baseline.train_ovo",),
    "baseline.predict_ovo_self_s": ("baseline.predict_ovo",),
}
_PER_ROW = ("core.sample_feature", "core.kl_divergence")


class Tracer:
    """In-memory spans and counts for one traced round."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.installed: set[str] = set()
        self._saved: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts: Counter = Counter()
        self.smo: list[tuple] = []  # (n, iterations, max_passes, kkt gap)
        self.profile_keys: set[bytes] = set()
        self.feature_keys: set[tuple] = set()

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in HOOKS:
            raw = owner.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            self.installed.add(name)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = getattr(self, "_on_" + name.rsplit(".", 1)[-1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.phase, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # --- counters at the boundaries -----------------------------------------

    def _on_class_sum(self, args, kwargs, result):
        self.profile_keys.add(hashlib.sha1(result.tobytes()).digest())

    def _on_extract_pair_features(self, args, kwargs, result):
        self.counts["feature_rows"] += len(args[0]) + len(args[1])
        ctx, px, py = args[2], args[3], args[4]
        self.feature_keys.add((
            ctx.class_x, ctx.class_y, ctx.b, ctx.b_prime,
            hashlib.sha1(px.sum_vec.tobytes() + py.sum_vec.tobytes()).digest(),
        ))

    def _on_smo_train(self, args, kwargs, result):
        n = len(args[0])
        max_passes = kwargs.get("max_passes", args[5] if len(args) > 5 else 10)
        self.smo.append((n, result.iterations, max_passes, result.kkt_violation_max))

    # --- derived metrics ----------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values for the spans recorded since the last reset."""
        self_time: Counter = Counter()
        calls: Counter = Counter()
        per_row = {"core.features_s": 0.0, "core.predict_features_s": 0.0}
        kl_in_predict = 0
        context = {}  # span index -> nearest extract/predict ancestor name
        for i, rec in enumerate(self.spans):
            name = rec[NAME]
            own = rec[END] - rec[START] - rec[CHILD]
            self_time[name] += own
            calls[name] += 1
            parent = rec[PARENT]
            if name in ("core.extract_pair_features", "multiclass.predict"):
                context[i] = name
            elif parent >= 0 and parent in context:
                context[i] = context[parent]
            if name in _PER_ROW and i in context:
                under_predict = context[i] == "multiclass.predict"
                key = "core.predict_features_s" if under_predict else "core.features_s"
                per_row[key] += own
                kl_in_predict += under_predict and name == "core.kl_divergence"

        out = {}
        for metric, names in SELF_TIME.items():
            if all(n in self.installed for n in names):
                out[metric] = sum(self_time[n] for n in names)
        has = self.installed.__contains__
        if has("core.extract_pair_features") and all(map(has, _PER_ROW)):
            out["core.features_s"] = self_time["core.extract_pair_features"] + per_row["core.features_s"]
            rows = self.counts["feature_rows"]
            out["core.feature_rows"] = rows
            if rows:
                out["core.features_us_per_row"] = out["core.features_s"] / rows * 1e6
            calls_x = calls["core.extract_pair_features"]
            if calls_x:
                out["core.features_useful_share"] = len(self.feature_keys) / calls_x
        if has("multiclass.predict") and all(map(has, _PER_ROW)):
            out["core.predict_features_s"] = per_row["core.predict_features_s"]
            out["core.kl_calls"] = kl_in_predict
        if has("core.class_sum"):
            out["core.profile_calls"] = calls["core.class_sum"]
            if calls["core.class_sum"]:
                out["core.profiles_useful_share"] = (
                    len(self.profile_keys) / calls["core.class_sum"]
                )
        if has("svm.smo_train"):
            iters = sum(s[1] for s in self.smo)
            out["svm.smo_calls"] = len(self.smo)
            out["svm.smo_iterations"] = iters
            if iters:
                out["svm.smo_us_per_iter"] = self_time["svm.smo_train"] / iters * 1e6
            out["svm.smo_unconverged"] = sum(it >= mp * n for n, it, mp, _ in self.smo)
            out["svm.kkt_gap_max"] = max((s[3] for s in self.smo), default=0.0)
            limit = getattr(cdfeat.svm, "FULL_GRAM_LIMIT", None)
            if limit is not None:
                full = [n for n, *_ in self.smo if n <= limit]
                out["svm.gram_bytes_max"] = max(full, default=0) ** 2 * 8
        if has("svm.decision"):
            out["svm.decision_calls"] = calls["svm.decision"]
        return out

    def write_spans(self, path, round_id: int) -> None:
        """Append the recorded spans as tab-separated lines."""
        with open(path, "a", encoding="ascii") as f:
            for i, rec in enumerate(self.spans):
                f.write(
                    f"{round_id}\t{i}\t{rec[PARENT]}\t{rec[PHASE]}\t{rec[NAME]}\t"
                    f"{rec[START]:.7f}\t{rec[END] - rec[START]:.7f}\n"
                )
