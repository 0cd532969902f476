"""Class-dependent feature selection, KL feature extraction, and pairwise SVMs."""

from .baseline import TfIdfModel, fit_idf, transform
from .core import (
    build_pair_context,
    class_mean,
    class_sum,
    extract_pair_features,
    kl_divergence,
    pair_mean,
    pair_ratios,
    restrict_normalize,
    select_indices,
)
from .metrics import ConfusionMatrix, confusion, error_rate, macro_micro_f
from .model import (
    CdfConfig,
    CdfModel,
    ClassProfile,
    Dataset,
    PairContext,
    model_from_json,
    model_to_json,
    validate_dataset,
)
from .multiclass import VoteRecord, predict, predict_batch, train
from .svm import (
    CvResult,
    GridCell,
    KernelSpec,
    SvmModel,
    cross_validate,
    decision,
    smo_train,
)

__version__ = "0.1.0"

__all__ = [
    "CdfConfig",
    "CdfModel",
    "ClassProfile",
    "ConfusionMatrix",
    "CvResult",
    "Dataset",
    "GridCell",
    "KernelSpec",
    "PairContext",
    "SvmModel",
    "TfIdfModel",
    "VoteRecord",
    "build_pair_context",
    "class_mean",
    "class_sum",
    "confusion",
    "cross_validate",
    "decision",
    "error_rate",
    "extract_pair_features",
    "fit_idf",
    "kl_divergence",
    "macro_micro_f",
    "model_from_json",
    "model_to_json",
    "pair_mean",
    "pair_ratios",
    "predict",
    "predict_batch",
    "restrict_normalize",
    "select_indices",
    "smo_train",
    "train",
    "transform",
    "validate_dataset",
]
