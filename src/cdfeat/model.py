"""Shared domain types: datasets, class profiles, pair contexts, trained models.

All types are frozen dataclasses that nothing in cdfeat writes to after
construction, so they are safe to share across threads. The ones holding
numpy arrays are records (`record.Record`): each names its array fields once,
keeps read-only views of them (the caller's arrays stay writable), compares
field by field with arrays by shape and content, and is unhashable.
`CdfConfig` is a plain frozen dataclass. Model serialization is a
versioned JSON document ("cdf-model/3") whose reals carry 17 significant
digits so that save/load round-trips are exact. It stores only what cannot be
derived: the config and SVM settings, each class's sum vector and cardinality,
and each pair's SVM. Loading rebuilds the mean profiles, every pair context
(mask, masked references, ratio means, thresholds) and each SVM's resolved
kernel and C exactly as training computed them. Documents in the older
"cdf-model/1" and "cdf-model/2" formats are refused; retrain to get a /3 file.

`CdfModel.kl_weights`, the one cache, is seeded by `multiclass.train`, which
builds the same weights to extract dual_kl and scalar_kl training features.
A loaded model builds it lazily on its first predict, from frozen fields only,
so threads that race to build it at worst build it twice, with equal results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .record import Record
from .report import fmt_float
from .svm import KernelSpec, SvmModel

MODEL_FORMAT = "cdf-model/3"
RETIRED_FORMATS = ("cdf-model/1", "cdf-model/2")

SELECTION_MODES = ("ratio", "literal")
FEATURE_MODES = ("dual_kl", "scalar_kl", "elementwise_kl")


@dataclass(frozen=True)
class CdfConfig:
    """Knobs of the class-dependent feature pipeline.

    `b` and `b_prime` scale the pair-ratio means into the two selection
    thresholds. `pair_overrides` optionally maps a canonical class pair
    (x, y) to its own (b, b_prime).
    """

    b: float = 1.0
    b_prime: float = 1.0
    selection_mode: str = "ratio"
    feature_mode: str = "dual_kl"
    smoothing_eps: float = 1e-9
    # Unhashable, so it takes part in == but not in hash().
    pair_overrides: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if self.b <= 0 or self.b_prime <= 0:
            raise ValueError("b and b_prime must be > 0")
        if self.smoothing_eps <= 0:
            raise ValueError("smoothing_eps must be > 0")
        if self.selection_mode not in SELECTION_MODES:
            raise ValueError(f"unknown selection_mode {self.selection_mode!r}")
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature_mode {self.feature_mode!r}")
        for (x, y), (b, bp) in self.pair_overrides.items():
            if not x < y:
                raise ValueError(f"override pair ({x},{y}) not in canonical order")
            if b <= 0 or bp <= 0:
                raise ValueError(f"override for pair ({x},{y}) must have b, b_prime > 0")

    def multipliers(self, class_x: int, class_y: int) -> tuple[float, float]:
        """The (b, b_prime) in effect for a pair, honoring overrides."""
        return self.pair_overrides.get((class_x, class_y), (self.b, self.b_prime))


def feature_width(feature_mode: str, ctx: "PairContext") -> int:
    """The number of features a pair's SVM sees: 2 in dual_kl, 1 in
    scalar_kl, and one per mask index in elementwise_kl."""
    return {"dual_kl": 2, "scalar_kl": 1}.get(feature_mode, ctx.mask.size)


def class_pairs(num_classes: int) -> list[tuple[int, int]]:
    """Every class pair (x, y), x < y, in lexicographic order: the order of
    `CdfModel.pairs`, of a model file's pairs and of the one-vs-one votes."""
    return list(combinations(range(num_classes), 2))


@dataclass(frozen=True, eq=False)
class Dataset(Record):
    """A labeled sample collection with dense integer class ids.

    `samples` is a read-only (n, dim) float matrix whose row i is a vector of
    non-negative reals, and `labels` a read-only int64 array whose entry i is
    that row's class id in [0, num_classes). `label_names` keeps the original
    label strings as a side table. Construction does not reject invalid data;
    use `validate_dataset`.
    """

    samples: np.ndarray
    labels: np.ndarray
    num_classes: int
    dim: int
    label_names: tuple

    ARRAYS = {"samples": float, "labels": np.int64}

    def __post_init__(self):
        # Labels are small, so they are copied: a later write to the caller's
        # array does not reach the dataset.
        object.__setattr__(self, "labels", np.array(self.labels, dtype=np.int64))
        super().__post_init__()

    @classmethod
    def from_arrays(cls, x, y, label_names=None) -> "Dataset":
        """Build a Dataset from a 2-D sample matrix and dense integer labels."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"sample matrix must be 2-D, got ndim={x.ndim}")
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (x.shape[0],):
            raise ValueError(f"{x.shape[0]} samples but {y.size} labels")
        if label_names is None:
            m = int(y.max()) + 1 if y.size else 0
            label_names = tuple(str(c) for c in range(m))
        return cls(
            samples=x,
            labels=y,
            num_classes=len(label_names),
            dim=x.shape[1],
            label_names=tuple(label_names),
        )

    def __len__(self) -> int:
        return len(self.labels)

    def class_matrix(self, class_id: int) -> np.ndarray:
        """The rows of one class, in storage order."""
        return self.samples[self.labels == class_id]

    def matrix(self) -> np.ndarray:
        """All samples as one 2-D array in storage order (not a copy)."""
        return self.samples


def validate_dataset(dataset: Dataset) -> list[str]:
    """Report every violated Dataset invariant; empty list means valid."""
    x, y, m = dataset.samples, dataset.labels, dataset.num_classes
    if x.shape != (y.size, dataset.dim):
        return [f"sample matrix shape {x.shape} is not ({y.size}, {dataset.dim})"]
    violations = [
        f"sample {i}: components must be finite and >= 0"
        for i in np.flatnonzero(~np.all(np.isfinite(x) & (x >= 0), axis=1))
    ]
    violations += [
        f"sample {i}: class id {y[i]} outside [0, {m})"
        for i in np.flatnonzero((y < 0) | (y >= m))
    ]
    counts = np.bincount(y[(y >= 0) & (y < m)], minlength=m)
    violations += [f"class {c} has no samples" for c in np.flatnonzero(counts == 0)]
    return violations


@dataclass(frozen=True, eq=False)
class ClassProfile(Record):
    """Per-class sum and mean vectors over the class's samples."""

    class_id: int
    sum_vec: np.ndarray
    mean_vec: np.ndarray
    cardinality: int

    ARRAYS = {"sum_vec": float, "mean_vec": float}

    def __post_init__(self):
        super().__post_init__()
        if self.cardinality < 1:
            raise ValueError("cardinality must be >= 1")
        for name, v in (("sum_vec", self.sum_vec), ("mean_vec", self.mean_vec)):
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                raise ValueError(f"{name} entries must be finite and >= 0")
        recon = self.mean_vec * self.cardinality
        scale = np.maximum(np.abs(self.sum_vec), 1.0)
        if np.any(np.abs(recon - self.sum_vec) > 1e-9 * scale):
            raise ValueError("mean_vec * cardinality does not reproduce sum_vec")


@dataclass(frozen=True, eq=False)
class PairContext(Record):
    """Ratio means, thresholds and selected-index mask for one class pair.

    `ref_x` / `ref_y` are the two class mean profiles restricted to the mask
    and normalized to probability vectors; prediction reuses them so train
    and predict see identical references. `b` / `b_prime` are the threshold
    multipliers actually used for this pair (global config or per-pair
    override).
    """

    class_x: int
    class_y: int
    mu_xy: float
    mu_yx: float
    tau: float
    tau_prime: float
    mask: np.ndarray
    b: float
    b_prime: float
    fallback: bool
    ref_x: np.ndarray
    ref_y: np.ndarray

    ARRAYS = {"mask": np.int64, "ref_x": float, "ref_y": float}

    def __post_init__(self):
        super().__post_init__()
        if not self.class_x < self.class_y:
            raise ValueError("pair must be in canonical order class_x < class_y")
        if self.tau != self.b * self.mu_xy or self.tau_prime != self.b_prime * self.mu_yx:
            raise ValueError("thresholds do not recompute from b * mu")
        if self.mask.size == 0:
            raise ValueError("mask must be non-empty")
        if np.any(np.diff(self.mask) <= 0):
            raise ValueError("mask must be strictly increasing")
        if self.mask[0] < 0:
            raise ValueError("mask indices must be >= 0")


@dataclass(frozen=True, eq=False)
class CdfModel(Record):
    """The serializable artifact of training: per-pair contexts plus SVMs."""

    config: CdfConfig
    kernel: KernelSpec
    c: float
    tol: float
    max_passes: int
    seed: int
    num_classes: int
    dim: int
    label_names: tuple
    profiles: tuple
    pairs: tuple  # ((PairContext, SvmModel), ...) in (x, y) lexicographic order

    def __post_init__(self):
        super().__post_init__()
        m = self.num_classes
        expected = m * (m - 1) // 2
        if len(self.pairs) != expected:
            raise ValueError(f"expected {expected} pairs for {m} classes, got {len(self.pairs)}")
        for ctx, _ in self.pairs:
            if np.any(ctx.mask >= self.dim):
                raise ValueError(
                    f"pair ({ctx.class_x},{ctx.class_y}) mask exceeds dim {self.dim}"
                )

    @cached_property
    def kl_weights(self) -> tuple:
        """`core.pair_kl_weights` of this model's pair contexts.

        Training seeds it with the weights it extracted its features with; a
        loaded model builds it on first use. Derived from frozen fields, so it
        is not part of `==` and not serialized. Used by dual_kl and scalar_kl
        prediction only.
        """
        from . import core  # core imports this module

        cfg = self.config
        contexts = [ctx for ctx, _ in self.pairs]
        return core.pair_kl_weights(contexts, self.dim, cfg.feature_mode, cfg.smoothing_eps)


# --- serialization ---------------------------------------------------------

def _emit(value, out: list) -> None:
    # Deterministic JSON emitter; floats carry 17 significant digits.
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(fmt_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, dict):
        out.append("{")
        for k, (key, item) in enumerate(value.items()):
            if k:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(item, out)
        out.append("}")
    elif isinstance(value, np.ndarray) and value.ndim and value.dtype.kind in "fiu":
        real = value.dtype.kind == "f"
        if real and not np.all(np.isfinite(value)):
            raise ValueError("non-finite real cannot be formatted")
        # + 0.0 writes -0.0 as 0, as fmt_float does.
        out.append(_array_text((value + 0.0 if real else value).tolist(), value.ndim, real))
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        for k, item in enumerate(value):
            if k:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _array_text(items: list, ndim: int, real: bool) -> str:
    # The bytes `_emit` writes element by element, from a numpy array's tolist().
    if ndim > 1:
        return "[" + ",".join([_array_text(row, ndim - 1, real) for row in items]) + "]"
    if real:
        return "[" + ",".join([format(v, ".17g") for v in items]) + "]"
    return "[" + ",".join(map(str, items)) + "]"


def _dumps(value) -> str:
    out: list = []
    _emit(value, out)
    return "".join(out)


def _kernel_doc(k: KernelSpec) -> dict:
    return {"kind": k.kind, "degree": k.degree, "gamma": k.gamma, "coef0": k.coef0}


def _kernel_from(doc: dict) -> KernelSpec:
    return KernelSpec(
        kind=doc["kind"], degree=doc["degree"], gamma=doc["gamma"], coef0=doc["coef0"]
    )


def model_to_json(model: CdfModel) -> str:
    """Serialize a trained model to the cdf-model/3 JSON document."""
    cfg = model.config
    doc = {
        "format": MODEL_FORMAT,
        "config": {
            "b": cfg.b,
            "b_prime": cfg.b_prime,
            "selection_mode": cfg.selection_mode,
            "feature_mode": cfg.feature_mode,
            "smoothing_eps": cfg.smoothing_eps,
            "pair_overrides": [
                [x, y, b, bp] for (x, y), (b, bp) in sorted(cfg.pair_overrides.items())
            ],
        },
        "kernel": _kernel_doc(model.kernel),
        "c": model.c,
        "tol": model.tol,
        "max_passes": model.max_passes,
        "seed": model.seed,
        "num_classes": model.num_classes,
        "dim": model.dim,
        "label_names": list(model.label_names),
        "profiles": [
            {"class_id": p.class_id, "cardinality": p.cardinality, "sum_vec": p.sum_vec}
            for p in model.profiles
        ],
        "pairs": [
            {
                "class_x": ctx.class_x,
                "class_y": ctx.class_y,
                "svm": {
                    "support_vectors": svm.support_vectors,
                    "coef": svm.coef,
                    "bias": svm.bias,
                    "iterations": svm.iterations,
                    "kkt_violation_max": svm.kkt_violation_max,
                },
            }
            for ctx, svm in model.pairs
        ],
    }
    return _dumps(doc)


def model_from_json(text: str) -> CdfModel:
    """Parse a cdf-model/3 JSON document and rebuild what training derived.

    Mean profiles, pair contexts and each SVM's kernel and C are recomputed
    the way `multiclass.train` computes them, so a loaded model equals the
    trained one. Older formats raise ValueError.
    """
    from . import core  # core imports this module

    doc = json.loads(text)
    fmt = doc.get("format")
    if fmt in RETIRED_FORMATS:
        raise ValueError(
            f"model format {fmt!r} is no longer read; retrain to write {MODEL_FORMAT!r}"
        )
    if fmt != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {fmt!r}")
    cdoc = doc["config"]
    cfg = CdfConfig(
        b=cdoc["b"],
        b_prime=cdoc["b_prime"],
        selection_mode=cdoc["selection_mode"],
        feature_mode=cdoc["feature_mode"],
        smoothing_eps=cdoc["smoothing_eps"],
        pair_overrides={
            (int(x), int(y)): (float(b), float(bp))
            for x, y, b, bp in cdoc["pair_overrides"]
        },
    )
    kernel = _kernel_from(doc["kernel"])
    m, dim = doc["num_classes"], doc["dim"]
    if len(doc["profiles"]) != m:
        raise ValueError(f"expected {m} class profiles, got {len(doc['profiles'])}")
    profiles = []
    for cid, p in enumerate(doc["profiles"]):
        sum_vec = np.asarray(p["sum_vec"], dtype=float)
        if p["class_id"] != cid or sum_vec.shape != (dim,):
            raise ValueError(f"profile {cid}: expected class {cid} with {dim} sums")
        profiles.append(
            ClassProfile(
                class_id=cid,
                sum_vec=sum_vec,
                mean_vec=core.class_mean(sum_vec, p["cardinality"]),
                cardinality=p["cardinality"],
            )
        )
    pair_ids = class_pairs(m)
    if [(e["class_x"], e["class_y"]) for e in doc["pairs"]] != pair_ids:
        raise ValueError("pairs must list every class pair (x, y), x < y, in order")
    pairs = []
    for (x, y), e in zip(pair_ids, doc["pairs"]):
        ctx = core.build_pair_context(profiles[x], profiles[y], cfg)
        width = feature_width(cfg.feature_mode, ctx)
        s = e["svm"]
        sv = np.asarray(s["support_vectors"], dtype=float)
        if sv.ndim != 2 or sv.shape[1] != width:
            raise ValueError(f"pair ({x},{y}): support vectors must be rows of {width} features")
        if not np.all(np.isfinite(sv)):
            raise ValueError(f"pair ({x},{y}): support vectors must be finite")
        svm = SvmModel(
            support_vectors=sv,
            coef=np.asarray(s["coef"], dtype=float),
            bias=s["bias"],
            kernel=kernel.resolve(width),
            c=doc["c"],
            iterations=s["iterations"],
            kkt_violation_max=s["kkt_violation_max"],
        )
        pairs.append((ctx, svm))
    return CdfModel(
        config=cfg,
        kernel=kernel,
        c=doc["c"],
        tol=doc["tol"],
        max_passes=doc["max_passes"],
        seed=doc["seed"],
        num_classes=m,
        dim=dim,
        label_names=tuple(doc["label_names"]),
        profiles=tuple(profiles),
        pairs=tuple(pairs),
    )
