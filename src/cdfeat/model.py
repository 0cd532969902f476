"""Shared domain types: datasets, class profiles, pair contexts, trained models.

All types are frozen dataclasses that nothing in cdfeat writes to after
construction, so they are safe to share across threads. The ones holding
numpy arrays are records (`record.Record`): each names its array fields once,
keeps read-only views of them (the caller's arrays stay writable), compares
field by field with arrays by shape and content, and is unhashable.
`CdfConfig` is a plain frozen dataclass that, like `svm.KernelSpec`, stores
its numbers as Python float/int whatever numeric type it was given. Model
serialization is a versioned JSON document ("cdf-model/7") written by
`json.dumps`: reals in Python's shortest round-trip text and a class's sums
as integers when all are integral, so save/load round-trips are exact. It
stores each fact once: the config and SVM settings, the label names, each
class's sum vector and cardinality, and each pair's SVM. The config and
kernel documents are the `asdict` of their dataclasses, and loading refuses
one that does not hold exactly its dataclass's fields. The class count is the number of label
names, the dimension the length of a sum vector, and the pairs come in
`class_pairs` order. Every pair selects with the config's one (b, b_prime).

What a pair holds depends on the kernel and feature mode (`stores_forms`).
Under a linear or polynomial kernel with dual_kl or scalar_kl features, a
pair SVM's decision is a polynomial in its 2 or 1 features, and the pair
holds that polynomial, an `svm.SvmForm`: its weights, one per monomial
(`CdfModel.form_exponents`), its bias, and the solve's support-vector count,
iterations and KKT gap. `multiclass.train` builds the forms of all pairs
from one `svm.decision_forms` call; the support vectors are not kept. Under
an rbf kernel, or with elementwise_kl features, a pair holds its
`svm.SvmModel`: support vectors, coefficients, bias, iterations and KKT gap.
A document pair holds exactly the keys of its kind, and loading refuses any
other. Loading rebuilds every pair context (mask, masked references, ratio
means) and each SvmModel's resolved kernel and C exactly as training
computed them. Documents in the older "cdf-model/1" to "cdf-model/6" formats
are refused; retrain to get a /7 file.

Records store independent facts only; what follows from them is a property
or a cache (`ClassProfile.mean_vec`, `CdfModel.kl_weights`,
`CdfModel.decision_forms`) built on first use from frozen fields, so threads
that race to build one at worst build it twice. `multiclass.train` seeds
`kl_weights` with its dual_kl/scalar_kl weights. `decision_forms` stacks the
stored pair forms into one matrix for `multiclass.pair_decisions`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import combinations

import numpy as np

from .record import Record
from .svm import (
    DecisionForms, KernelSpec, SvmForm, SvmModel, check_svm_settings, integer,
    monomial_exponents, real,
)

MODEL_FORMAT = "cdf-model/7"
RETIRED_FORMATS = tuple(f"cdf-model/{v}" for v in range(1, 7))

FEATURE_MODES = ("dual_kl", "scalar_kl", "elementwise_kl")


@dataclass(frozen=True)
class CdfConfig:
    """Knobs of the class-dependent feature pipeline.

    `b` and `b_prime` scale the pair-ratio means into the two selection
    thresholds of every class pair.
    """

    b: float = 1.0
    b_prime: float = 1.0
    feature_mode: str = "dual_kl"
    smoothing_eps: float = 1e-9

    def __post_init__(self):
        for name in ("b", "b_prime", "smoothing_eps"):
            object.__setattr__(self, name, real(name, getattr(self, name), 0))
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature_mode {self.feature_mode!r}")


def feature_width(feature_mode: str, ctx: "PairContext") -> int:
    """The number of features a pair's SVM sees: 2 in dual_kl, 1 in
    scalar_kl, and one per mask index in elementwise_kl."""
    return {"dual_kl": 2, "scalar_kl": 1}.get(feature_mode, ctx.mask.size)


def stores_forms(kernel: KernelSpec, feature_mode: str) -> bool:
    """Whether a model keeps each pair SVM as its decision polynomial (an
    `svm.SvmForm`): under a linear or polynomial kernel with dual_kl or
    scalar_kl features. Otherwise it keeps the `svm.SvmModel`."""
    return kernel.kind != "rbf" and feature_mode != "elementwise_kl"


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
        return cls(samples=x, labels=y, label_names=tuple(label_names))

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

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
    if x.ndim != 2 or x.shape[0] != y.size:
        return [f"sample matrix shape {x.shape} is not 2-D with one row per label ({y.size})"]
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
    if len(set(dataset.label_names)) < m:
        violations.append(f"label names {list(dataset.label_names)!r} are not distinct")
    return violations


@dataclass(frozen=True, eq=False)
class ClassProfile(Record):
    """Per-class sum vector over the class's samples, and its sample count."""

    class_id: int
    sum_vec: np.ndarray
    cardinality: int

    ARRAYS = {"sum_vec": float}

    def __post_init__(self):
        super().__post_init__()
        integer("cardinality", self.cardinality, 1)
        if not np.all(np.isfinite(self.sum_vec)) or np.any(self.sum_vec < 0):
            raise ValueError("sum_vec entries must be finite and >= 0")

    @cached_property
    def mean_vec(self) -> np.ndarray:
        """The read-only `core.class_mean(sum_vec, cardinality)`; not part of `==`."""
        from . import core  # core imports this module

        mean = core.class_mean(self.sum_vec, self.cardinality)
        mean.setflags(write=False)
        return mean


@dataclass(frozen=True, eq=False)
class PairContext(Record):
    """Ratio means, thresholds and selected-index mask for one class pair.

    `ref_x` / `ref_y` are the two class mean profiles restricted to the mask
    and normalized to probability vectors; prediction reuses them so train
    and predict see identical references. `b` / `b_prime` are the config's
    threshold multipliers, which every pair uses.
    """

    class_x: int
    class_y: int
    mu_xy: float
    mu_yx: float
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
        if self.mask.size == 0:
            raise ValueError("mask must be non-empty")
        if np.any(np.diff(self.mask) <= 0):
            raise ValueError("mask must be strictly increasing")
        if self.mask[0] < 0:
            raise ValueError("mask indices must be >= 0")

    @property
    def tau(self) -> float:
        return self.b * self.mu_xy

    @property
    def tau_prime(self) -> float:
        return self.b_prime * self.mu_yx


def _check_classes(label_names, profiles, num_pairs: int) -> None:
    """ValueError unless there are at least two classes with distinct label
    names, one profile per label name, sums of one length in every profile,
    and one pair per class pair."""
    m = len(label_names)
    if m < 2:
        raise ValueError(f"a model needs at least two classes, got {m} label names")
    if len(set(label_names)) < m:
        raise ValueError(f"label names must be distinct, got {list(label_names)!r}")
    if len(profiles) != m:
        raise ValueError(f"{m} label names but {len(profiles)} class profiles")
    dim = profiles[0].sum_vec.size
    if any(p.sum_vec.shape != (dim,) for p in profiles):
        raise ValueError(f"every class profile must hold {dim} sums")
    expected = m * (m - 1) // 2
    if num_pairs != expected:
        raise ValueError(f"expected {expected} pairs for {m} classes, got {num_pairs}")


@dataclass(frozen=True, eq=False)
class CdfModel(Record):
    """The serializable artifact of training: per-pair contexts plus SVMs.

    The class count is `len(label_names)` and the dimension the length of
    each profile's sums. Each pair SVM is an `svm.SvmForm` with one weight
    per monomial of the kernel's form when `stores_forms`, an `svm.SvmModel`
    otherwise. Construction refuses a model whose profiles, pairs or SVM
    settings do not fit these.
    """

    config: CdfConfig
    kernel: KernelSpec
    c: float
    tol: float
    max_passes: int
    label_names: tuple
    profiles: tuple
    pairs: tuple  # ((PairContext, SvmForm or SvmModel), ...) in (x, y) lexicographic order

    def __post_init__(self):
        super().__post_init__()
        _check_classes(self.label_names, self.profiles, len(self.pairs))
        forms = stores_forms(self.kernel, self.config.feature_mode)
        size = len(self.form_exponents) if forms else None
        for (ctx, svm), pair in zip(self.pairs, class_pairs(self.num_classes)):
            name = f"pair ({ctx.class_x},{ctx.class_y})"
            if (ctx.class_x, ctx.class_y) != pair:
                raise ValueError(f"{name} is out of order, expected {pair}")
            if np.any(ctx.mask >= self.dim):
                raise ValueError(f"{name} mask exceeds dim {self.dim}")
            if not isinstance(svm, SvmForm if forms else SvmModel):
                kind = "a form" if forms else "support vectors"
                raise ValueError(f"{name} must hold {kind} under this kernel and feature mode")
            if forms and svm.weights.size != size:
                raise ValueError(f"{name} form must hold {size} weights for this kernel "
                                 f"and feature mode, got {svm.weights.size}")
        check_svm_settings(self.c, self.tol, self.max_passes)

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    @property
    def dim(self) -> int:
        return self.profiles[0].sum_vec.size

    @cached_property
    def kl_weights(self):
        """`core.pair_kl_weights` of this model's pair contexts, a `core.KlWeights`.

        Training seeds it with the weights it extracted its features with; a
        loaded model builds it on first use. Derived from frozen fields, so it
        is not part of `==` and not serialized. Used by dual_kl and scalar_kl
        prediction only; its transposed copy `wt` is built by the first
        sparse row (see `core.whole_kl_features`).
        """
        from . import core  # core imports this module

        cfg = self.config
        contexts = [ctx for ctx, _ in self.pairs]
        return core.pair_kl_weights(contexts, self.dim, cfg.feature_mode, cfg.smoothing_eps)

    @property
    def form_exponents(self) -> tuple:
        """The exponents of the monomials of every pair's form when
        `stores_forms`: the kernel's degree (1 when linear) over the 1 or 2
        features of the pair."""
        degree = 1 if self.kernel.kind == "linear" else self.kernel.degree
        width = feature_width(self.config.feature_mode, self.pairs[0][0])
        return monomial_exponents(width, degree)

    @cached_property
    def decision_forms(self):
        """The stored pair forms as one `svm.DecisionForms`, weight columns
        and biases in pair order, or None for an rbf kernel or elementwise_kl
        features, whose pairs `predict` runs through the kernel expansion.
        Stacked on first use from frozen fields, so it is not part of `==`
        and not serialized.
        """
        if not stores_forms(self.kernel, self.config.feature_mode):
            return None
        return DecisionForms(
            exponents=self.form_exponents,
            weights=np.stack([form.weights for _, form in self.pairs], axis=1),
            bias=[form.bias for _, form in self.pairs],
        )


# --- serialization ---------------------------------------------------------

def _sums_doc(sum_vec: np.ndarray) -> list:
    # Counts (pixels, terms) sum to integers; "12" is shorter than "12.0".
    # Below 2**53 every integer is a float, so the reader gets the same sums.
    if np.all(sum_vec == np.floor(sum_vec)) and np.all(sum_vec < 2.0**53):
        return sum_vec.astype(np.int64).tolist()
    return sum_vec.tolist()


def _settings(cls, doc):
    """`cls(**doc)`; ValueError unless `doc` is an object holding exactly the
    fields of the dataclass `cls`."""
    names = [f.name for f in fields(cls)]
    if not (isinstance(doc, dict) and set(doc) == set(names)):
        raise ValueError(f"{cls.__name__} document must be an object with keys {names}, "
                         f"got {doc!r}")
    return cls(**doc)


def _pair_doc(svm) -> dict:
    """A pair's document: its form, or its support vectors and coefficients."""
    if isinstance(svm, SvmForm):
        doc = {"weights": svm.weights.tolist(), "bias": float(svm.bias),
               "support_count": int(svm.support_count)}
    else:
        doc = {"support_vectors": svm.support_vectors.tolist(), "coef": svm.coef.tolist(),
               "bias": float(svm.bias)}
    doc.update(iterations=int(svm.iterations), kkt_violation_max=float(svm.kkt_violation_max))
    return doc


def model_to_json(model: CdfModel) -> str:
    """Serialize a trained model to the cdf-model/7 JSON document.

    ValueError if a real is not finite.
    """
    doc = {
        "format": MODEL_FORMAT,
        "config": asdict(model.config),
        "kernel": asdict(model.kernel),
        "c": float(model.c),
        "tol": float(model.tol),
        "max_passes": int(model.max_passes),
        "label_names": list(model.label_names),
        "profiles": [
            {"cardinality": int(p.cardinality), "sum_vec": _sums_doc(p.sum_vec)}
            for p in model.profiles
        ],
        "pairs": [_pair_doc(svm) for _, svm in model.pairs],
    }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def model_from_json(text: str) -> CdfModel:
    """Parse a cdf-model/7 JSON document and rebuild what training derived.

    Pair contexts and each SVM's kernel and C are recomputed
    the way `multiclass.train` computes them, so a loaded model equals the
    trained one. Older formats and malformed documents raise ValueError,
    as does an integer beyond float range where a real is read.
    """
    try:
        return _model_from_doc(json.loads(text))
    except OverflowError as exc:
        raise ValueError(f"a number in the model document is out of range: {exc}")


def _model_from_doc(doc) -> CdfModel:
    from . import core  # core imports this module

    if not isinstance(doc, dict):
        raise ValueError(f"a model file holds a JSON object, not {type(doc).__name__}")
    fmt = doc.get("format")
    if fmt in RETIRED_FORMATS:
        raise ValueError(
            f"model format {fmt!r} is no longer read; retrain to write {MODEL_FORMAT!r}"
        )
    if fmt != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {fmt!r}")
    cfg = _settings(CdfConfig, doc["config"])
    kernel = _settings(KernelSpec, doc["kernel"])
    label_names = doc["label_names"]
    if not (isinstance(label_names, list) and all(isinstance(n, str) for n in label_names)):
        raise ValueError(f"label names must be a list of strings, got {label_names!r}")
    label_names = tuple(label_names)
    profiles = [
        ClassProfile(
            class_id=cid,
            sum_vec=np.asarray(p["sum_vec"], dtype=float),
            cardinality=p["cardinality"],
        )
        for cid, p in enumerate(doc["profiles"])
    ]
    # Checked before the pair contexts are built from the profiles.
    _check_classes(label_names, profiles, len(doc["pairs"]))
    c = real("c", doc["c"], 0)
    forms = stores_forms(kernel, cfg.feature_mode)
    keys = {"bias", "iterations", "kkt_violation_max"} | (
        {"weights", "support_count"} if forms else {"support_vectors", "coef"}
    )
    pairs = []
    for (x, y), s in zip(class_pairs(len(label_names)), doc["pairs"]):
        if not (isinstance(s, dict) and set(s) == keys):
            got = sorted(s) if isinstance(s, dict) else type(s).__name__
            raise ValueError(f"pair ({x},{y}) must be an object with keys {sorted(keys)} "
                             f"under this kernel and feature mode, got {got}")
        ctx = core.build_pair_context(profiles[x], profiles[y], cfg)
        try:
            svm = _form(s) if forms else _svm(s, kernel, c, cfg.feature_mode, ctx)
        except ValueError as exc:
            raise ValueError(f"pair ({x},{y}): {exc}") from None
        pairs.append((ctx, svm))
    return CdfModel(
        config=cfg,
        kernel=kernel,
        c=c,
        tol=doc["tol"],
        max_passes=doc["max_passes"],
        label_names=label_names,
        profiles=tuple(profiles),
        pairs=tuple(pairs),
    )


def _form(s: dict) -> SvmForm:
    """A forms pair's record from its document."""
    return SvmForm(
        weights=np.asarray(s["weights"], dtype=float),
        bias=s["bias"],
        support_count=s["support_count"],
        iterations=s["iterations"],
        kkt_violation_max=s["kkt_violation_max"],
    )


def _svm(s: dict, kernel: KernelSpec, c: float, feature_mode: str, ctx: PairContext) -> SvmModel:
    """A support-vector pair's SVM from its document, with the kernel
    resolved for the pair's feature width."""
    width = feature_width(feature_mode, ctx)
    sv = np.asarray(s["support_vectors"], dtype=float)
    if sv.shape == (0,):  # an SVM without support vectors is written as []
        sv = sv.reshape(0, width)
    if sv.ndim != 2 or sv.shape[1] != width:
        raise ValueError(f"support vectors must be rows of {width} features")
    if not np.all(np.isfinite(sv)):
        raise ValueError("support vectors must be finite")
    return SvmModel(
        support_vectors=sv,
        coef=np.asarray(s["coef"], dtype=float),
        bias=s["bias"],
        kernel=kernel.resolve(width),
        c=c,
        iterations=s["iterations"],
        kkt_violation_max=s["kkt_violation_max"],
    )
