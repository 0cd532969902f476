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
kernel documents are the `asdict` of their dataclasses. The class count is
the number of label names, the dimension the length of a sum vector, and the
pairs come in `class_pairs` order. Every pair selects with the config's one
(b, b_prime).

What a pair holds depends on the kernel and feature mode (`stores_forms`).
Under a linear or polynomial kernel with dual_kl or scalar_kl features, a
pair SVM's decision is a polynomial in its 2 or 1 features, and the pair
holds that polynomial, an `svm.SvmForm`: its weights, one per monomial
(`CdfModel.form_exponents`), its bias, and the solve's support-vector count,
iterations and KKT gap. `multiclass.kept_pairs` builds the forms of all
pairs from one `svm.decision_forms` call; the support vectors are not kept.
Under an rbf kernel, or with elementwise_kl features, a pair holds its
`svm.SvmModel`: support vectors, coefficients, bias, iterations and KKT gap.

Each rule of a valid model is checked once, in its record's constructor, so
every `CdfModel` that constructs is one `model_to_json` writes and
`model_from_json` reads back equal. The loader checks only what a record
cannot: that the document and each object in it (config, kernel, profile,
pair) hold exactly the record's keys, that `profiles` and `pairs` are lists,
and that support vectors are finite. It passes each object whole to its
constructor and rebuilds every pair context (mask, masked references, ratio
means) and each SvmModel's resolved kernel and C as training computed them.
Every refusal is a ValueError. Documents in the older "cdf-model/1" to
"cdf-model/6" formats are refused; retrain to get a /7 file.

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
    names, one profile per label name, the profile of class i at place i,
    sums of one length in every profile, and one pair per class pair."""
    m = len(label_names)
    if m < 2:
        raise ValueError(f"a model needs at least two classes, got {m} label names")
    if len(set(label_names)) < m:
        raise ValueError(f"label names must be distinct, got {list(label_names)!r}")
    if len(profiles) != m:
        raise ValueError(f"{m} label names but {len(profiles)} class profiles")
    if any(p.class_id != i for i, p in enumerate(profiles)):
        raise ValueError(f"profile i must be of class i, got {[p.class_id for p in profiles]}")
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
    otherwise, with rows of the pair's `feature_width` features, the model's
    C and the model's kernel resolved for that width. Construction refuses
    a model whose profiles, pairs or SVM settings do not fit these.
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
        check_svm_settings(self.c, self.tol, self.max_passes)
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
            width = feature_width(self.config.feature_mode, ctx)
            if forms:
                if svm.weights.size != size:
                    raise ValueError(f"{name} form must hold {size} weights for this kernel "
                                     f"and feature mode, got {svm.weights.size}")
            elif svm.support_vectors.shape[1] != width:
                raise ValueError(f"{name}: support vectors must be rows of {width} features")
            elif svm.kernel != self.kernel.resolve(width) or svm.c != self.c:
                raise ValueError(f"{name} SVM must have the model's kernel, resolved for "
                                 f"{width} features, and C {self.c}")

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


_DOC_KEYS = {"format", "config", "kernel", "c", "tol", "max_passes", "label_names",
             "profiles", "pairs"}


def _names(cls, *derived) -> set:
    """The field names of the dataclass `cls`, less the `derived` ones."""
    return {f.name for f in fields(cls)} - set(derived)


def _object(doc, keys: set, what: str) -> dict:
    """`doc`; ValueError unless it is a JSON object holding exactly `keys`."""
    if not (isinstance(doc, dict) and doc.keys() == keys):
        got = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        raise ValueError(f"{what} must be an object with keys {sorted(keys)}, got {got}")
    return doc


def _settings(cls, doc):
    """`cls(**doc)`; ValueError unless `doc` is an object holding exactly the
    fields of the dataclass `cls`."""
    return cls(**_object(doc, _names(cls), f"{cls.__name__} document"))


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
    as do an integer beyond float range where a real is read and a
    document nested too deeply for the JSON parser.
    """
    try:
        return _model_from_doc(json.loads(text))
    except OverflowError as exc:
        raise ValueError(f"a number in the model document is out of range: {exc}")
    except RecursionError:
        raise ValueError("the model document is nested too deeply") from None


def _model_from_doc(doc) -> CdfModel:
    from . import core  # core imports this module

    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt in RETIRED_FORMATS:
        raise ValueError(
            f"model format {fmt!r} is no longer read; retrain to write {MODEL_FORMAT!r}"
        )
    _object(doc, _DOC_KEYS, "a model document")
    if fmt != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {fmt!r}")
    cfg = _settings(CdfConfig, doc["config"])
    kernel = _settings(KernelSpec, doc["kernel"])
    label_names = doc["label_names"]
    if not (isinstance(label_names, list) and all(isinstance(n, str) for n in label_names)):
        raise ValueError(f"label names must be a list of strings, got {label_names!r}")
    for key in ("profiles", "pairs"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a list, got {type(doc[key]).__name__}")
    profile_keys = _names(ClassProfile, "class_id")
    profiles = [
        ClassProfile(class_id=i, **_object(p, profile_keys, f"class profile {i}"))
        for i, p in enumerate(doc["profiles"])
    ]
    # Checked before the pair contexts are built from the profiles.
    _check_classes(label_names, profiles, len(doc["pairs"]))
    c = real("c", doc["c"], 0)
    forms = stores_forms(kernel, cfg.feature_mode)
    pair_keys = _names(SvmForm) if forms else _names(SvmModel, "kernel", "c")
    pairs = []
    for (x, y), s in zip(class_pairs(len(label_names)), doc["pairs"]):
        name = f"pair ({x},{y})"
        _object(s, pair_keys, name)
        ctx = core.build_pair_context(profiles[x], profiles[y], cfg)
        try:
            if forms:
                svm = SvmForm(**s)
            else:
                width = feature_width(cfg.feature_mode, ctx)
                if s["support_vectors"] == []:  # an SVM without support vectors
                    s = {**s, "support_vectors": np.empty((0, width))}
                svm = SvmModel(kernel=kernel.resolve(width), c=c, **s)
                if not np.all(np.isfinite(svm.support_vectors)):
                    raise ValueError("support vectors must be finite")
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        pairs.append((ctx, svm))
    return CdfModel(
        config=cfg,
        kernel=kernel,
        c=c,
        tol=doc["tol"],
        max_passes=doc["max_passes"],
        label_names=tuple(label_names),
        profiles=tuple(profiles),
        pairs=tuple(pairs),
    )
