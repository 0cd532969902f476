"""Command-line front end: train, eval, predict, inspect.

Each command takes only the options it reads: train the data options and the
model settings, eval and predict the data options (the settings come from the
model file), inspect the model and output options. Configuration comes from
an optional JSON config file, whose keys for another command's options are
skipped, plus flag overrides; every run echoes its resolved options into its
report. All machine-readable output is deterministic given the same inputs
and seed; wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import ingest, metrics, multiclass
from .model import (
    FEATURE_MODES, CdfConfig, CdfModel, Dataset, class_pairs, model_from_json, model_to_json,
)
from .report import fmt_float
from .svm import (
    DEFAULT_MAX_PASSES, DEFAULT_TOL, KERNEL_KINDS, MAX_DEGREE, GridCell, KernelSpec,
    cross_validate, integer, real,
)

# Options that name input files or shape the output. Every other option is a
# setting, echoed into the report in parser order.
IO_OPTIONS = {"config", "images", "labels", "data", "sgml_dir", "model", "out", "dump_masks"}


class CliError(Exception):
    """User-facing command error; message printed to stderr, exit nonzero."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusal is its one error line, without the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _number(parse, *bounds):
    """The argparse type of a number option: `parse` (int or float) reads the
    text, then the library's checker (`svm.integer` or `svm.real`) decides the
    value with `bounds`, so the CLI refuses exactly what the library refuses."""
    check = integer if parse is int else real

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {text!r}")
        try:
            return check("value", value, *bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


def _entries(text: str, parse) -> list:
    """The entries of a comma-separated list option's text, each read by `parse`."""
    return [parse(tok) for tok in map(str.strip, text.split(",")) if tok]


def _listed(parse, *bounds):
    """The argparse type of a comma-separated list option: `_number` decides each
    entry, and no entry is refused. The value is the text, echoed as given."""
    number = _number(parse, *bounds)

    def convert(text: str) -> str:
        if not _entries(text, number):
            raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
        return text
    return convert


def _folds(text: str) -> int:
    folds = _number(int, 0)(text)
    if folds == 1:
        raise argparse.ArgumentTypeError(f"expected 0 (no CV) or an integer >= 2, got {folds}")
    return folds


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name; defaults are the library's."""
    parser = _Parser(
        prog="cdfeat",
        description="Class-dependent feature pipeline: train, evaluate, predict, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kernel = multiclass.DEFAULT_KERNEL
    for name, help_text in (
        ("train", "fit a model on a training dataset"),
        ("eval", "evaluate a model on a labeled dataset"),
        ("predict", "print per-sample predictions"),
        ("inspect", "report per-pair feature selection details"),
    ):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override it")
        if name != "inspect":
            p.add_argument("--format", choices=["idx", "sparse", "reuters"])
            p.add_argument("--images", help="IDX image file (idx format)")
            p.add_argument("--labels", help="IDX label file (idx format)")
            p.add_argument("--data", help="sparse-vector text file (sparse format)")
            p.add_argument("--sgml-dir", dest="sgml_dir", help="directory of reut2-*.sgm files")
            p.add_argument("--split", choices=["train", "test"],
                           help="corpus split to load (reuters format)")
            p.add_argument("--classes", type=_listed(int, 0),
                           help="comma-separated raw labels to keep (idx format)")
            p.add_argument("--max-per-class", dest="max_per_class", type=_number(int, 1),
                           help="cap samples per class after loading")
            p.add_argument("--dim", type=_number(int, 1), help="vector length for sparse data")
            p.add_argument("--min-df", dest="min_df", type=_number(int, 1),
                           default=ingest.DEFAULT_MIN_DF,
                           help="vocabulary document-frequency threshold")
            p.add_argument("--topics", type=_number(int, 1), default=ingest.DEFAULT_TOPICS,
                           help="number of top topics kept as classes")
        if name == "train":
            p.add_argument("--b", type=_number(float, 0), default=CdfConfig.b)
            p.add_argument("--b-prime", dest="b_prime", type=_number(float, 0),
                           default=CdfConfig.b_prime)
            p.add_argument("--feature-mode", dest="feature_mode", choices=FEATURE_MODES,
                           default=CdfConfig.feature_mode)
            p.add_argument("--smoothing-eps", dest="smoothing_eps", type=_number(float, 0),
                           default=CdfConfig.smoothing_eps)
            p.add_argument("--kernel", choices=KERNEL_KINDS, default=kernel.kind)
            p.add_argument("--degree", type=_number(int, 1, MAX_DEGREE),
                           default=kernel.degree)
            p.add_argument("--gamma", type=_number(float, 0), default=kernel.gamma)
            p.add_argument("--coef0", type=_number(float), default=kernel.coef0)
            p.add_argument("--c", type=_number(float, 0), default=multiclass.DEFAULT_C)
            p.add_argument("--tol", type=_number(float, 0), default=DEFAULT_TOL)
            p.add_argument("--max-passes", dest="max_passes", type=_number(int, 1),
                           default=DEFAULT_MAX_PASSES)
            p.add_argument("--folds", type=_folds, default=0,
                           help="cross-validation folds; 0 skips CV")
            p.add_argument("--grid-c", dest="grid_c", type=_listed(float, 0),
                           default="0.1,1,10,100", help="comma-separated C grid for CV")
            p.add_argument("--grid-b", dest="grid_b", type=_listed(float, 0),
                           default="0.5,1.0,1.5,2.0", help="comma-separated b grid for CV")
            p.add_argument("--grid-b-prime", dest="grid_b_prime", type=_listed(float, 0),
                           default="0.5,1.0,1.5,2.0", help="comma-separated b' grid for CV")
            p.add_argument("--seed", type=_number(int, 0), default=0,
                           help="seed of the cross-validation folds")
        p.add_argument("--model", help="model file path")
        p.add_argument("--out", help="report/output file path")
        if name == "inspect":
            p.add_argument("--dump-masks", dest="dump_masks", action="store_true",
                           help="include per-pair mask index lists")
    return parser, sub.choices


def _parse_args(argv) -> dict:
    """Every option of the command from its flag, else the config file, else its default.

    The second parse reads each config value as its flag, placed before the
    command line's flags, so argparse converts and checks it as it does the
    flag. A key naming another command's option is skipped, so one file can
    drive train and eval. A `null` leaves an option unset only where its
    default is unset.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CliError(f"config file {path}: {exc}")
        except RecursionError:
            raise CliError(f"config file {path}: nested too deeply") from None
        if not isinstance(loaded, dict):
            raise CliError(f"config file {path}: expected a JSON object")
        known = set().union(*(vars(parser.parse_args([name])) for name in commands))
        unknown = set(loaded) - (known - {"command", "config"})
        if unknown:
            raise CliError(f"config file {path}: unknown keys {sorted(unknown)}")
        sub, flags = commands[args.command], []
        for key, value in loaded.items():
            if key not in vars(args):
                continue
            flag, default = "--" + key.replace("_", "-"), sub.get_default(key)
            if isinstance(default, bool) and isinstance(value, bool):  # a switch
                if value:
                    flags.append(flag)
            elif value is not None or default is not None:
                flags.append(f"{flag}={value}")
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + flags + argv[at:])
    return vars(args)


def _require_paths(cfg: dict, keys) -> None:
    for key in keys:
        value = cfg.get(key)
        if not value:
            raise CliError(f"--{key.replace('_', '-')} is required for this command")
        if not Path(value).exists():
            raise CliError(f"input path does not exist: {value}")


def _load_dataset(cfg: dict, default_split: str) -> Dataset:
    fmt = cfg.get("format")
    if fmt == "idx":
        _require_paths(cfg, ["images", "labels"])
        images = ingest.load_idx_images(Path(cfg["images"]).read_bytes())
        labels = ingest.load_idx_labels(Path(cfg["labels"]).read_bytes())
        keep = None if cfg["classes"] is None else _entries(cfg["classes"], int)
        dataset = ingest.idx_dataset(images, labels, keep_classes=keep)
    elif fmt == "sparse":
        _require_paths(cfg, ["data"])
        dataset = ingest.load_sparse(Path(cfg["data"]).read_text(), dim=cfg.get("dim"))
    elif fmt == "reuters":
        _require_paths(cfg, ["sgml_dir"])
        docs = ingest.read_sgml_dir(cfg["sgml_dir"])
        categories = ingest.top_topics(docs, k=cfg["topics"])
        vocab = ingest.build_vocabulary(docs, min_df=cfg["min_df"])
        split = cfg.get("split") or default_split
        split_docs = [d for d in docs if d.split_tag == split]
        result = ingest.vectorize_bow(split_docs, vocab, categories)
        print(f"reuters: split={split} kept={len(result.dataset)} "
              f"excluded={result.excluded} vocab={len(vocab)}", file=sys.stderr)
        dataset = result.dataset
    else:
        raise CliError("--format must be one of idx, sparse, reuters")

    if cfg["max_per_class"] is not None:
        dataset = _cap_per_class(dataset, cfg["max_per_class"])
    return dataset


def _cap_per_class(dataset: Dataset, cap: int) -> Dataset:
    """Keep the first `cap` rows of each class, in storage order."""
    labels = dataset.labels
    keep = np.sort(np.concatenate(
        [np.flatnonzero(labels == c)[:cap] for c in range(dataset.num_classes)]
    ))
    return Dataset.from_arrays(
        dataset.samples[keep], labels[keep], label_names=dataset.label_names
    )


def _config_echo_lines(cfg: dict) -> list[str]:
    lines = [f"command={cfg['command']}"]
    for key, value in cfg.items():
        if key == "command" or key in IO_OPTIONS:
            continue
        if isinstance(value, float):
            text = fmt_float(value)
        elif value is None:
            text = ""
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return lines


def _write_report(cfg: dict, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n" if lines else ""
    if cfg.get("out"):
        Path(cfg["out"]).write_text(text)
    else:
        sys.stdout.write(text)


def _load_model(cfg: dict) -> CdfModel:
    _require_paths(cfg, ["model"])
    try:
        return model_from_json(Path(cfg["model"]).read_text())
    except ValueError as exc:
        raise CliError(f"unreadable model {cfg['model']}: {exc}")


def _converged(svm, tol: float) -> bool:
    # SMO stops exactly when the gap reaches tol, so a larger gap means the
    # solve hit its max_passes * n iteration cap.
    return svm.kkt_violation_max <= tol


def cmd_train(cfg: dict) -> int:
    dataset = _load_dataset(cfg, default_split="train")
    if not cfg.get("model"):
        raise CliError("--model output path is required for train")
    base = CdfConfig(**{f.name: cfg[f.name] for f in fields(CdfConfig)})
    kernel = KernelSpec(cfg["kernel"], cfg["degree"], cfg["gamma"], cfg["coef0"])
    seed, tol, max_passes = cfg["seed"], cfg["tol"], cfg["max_passes"]
    c = cfg["c"]
    b, b_prime = base.b, base.b_prime

    report = _config_echo_lines(cfg)
    report.append(f"num_classes={dataset.num_classes}")
    report.append(f"dim={dataset.dim}")
    report.append(f"samples={len(dataset)}")

    t0 = time.perf_counter()
    folds = cfg["folds"]
    if folds:
        grid = [
            GridCell(c=gc, kernel=kernel, b=gb, b_prime=gbp)
            for gc in _entries(cfg["grid_c"], float)
            for gb in _entries(cfg["grid_b"], float)
            for gbp in _entries(cfg["grid_b_prime"], float)
        ]
        trainer = multiclass.pipeline_trainer(base, tol=tol, max_passes=max_passes)
        result = cross_validate(
            dataset.matrix(), dataset.labels, grid, folds, seed, trainer
        )
        for k, (cell, acc) in enumerate(result.table):
            report.append(
                f"cv_cell_{k}=c:{fmt_float(cell.c)} b:{fmt_float(cell.b)} "
                f"b_prime:{fmt_float(cell.b_prime)} accuracy:{fmt_float(acc)}"
            )
        c, b, b_prime = result.best.c, result.best.b, result.best.b_prime
        report.append(
            f"cv_best=c:{fmt_float(c)} b:{fmt_float(b)} b_prime:{fmt_float(b_prime)}"
        )
    t_cv = time.perf_counter() - t0

    final_cfg = replace(base, b=b, b_prime=b_prime)
    t1 = time.perf_counter()
    model = multiclass.train(
        dataset, final_cfg, kernel=kernel, c=c, tol=tol,
        max_passes=max_passes,
    )
    t_train = time.perf_counter() - t1

    Path(cfg["model"]).write_text(model_to_json(model))
    for ctx, _ in model.pairs:
        key = f"pair_{ctx.class_x}_{ctx.class_y}"
        report.append(f"{key}_mask_size={ctx.mask.size}")
        report.append(f"{key}_fallback={int(ctx.fallback)}")
    _write_report(cfg, report)
    for ctx, svm in model.pairs:
        if not _converged(svm, tol):
            print(f"warning: pair ({ctx.class_x},{ctx.class_y}) stopped at the SMO "
                  f"iteration cap: {svm.iterations} iterations, kkt_violation_max="
                  f"{fmt_float(svm.kkt_violation_max)} > tol={fmt_float(tol)}", file=sys.stderr)
    print(f"model_file={cfg['model']}", file=sys.stderr)
    print(f"time_cv_s={t_cv:.3f}", file=sys.stderr)
    print(f"time_train_s={t_train:.3f}", file=sys.stderr)
    return 0


def _check_dims(model: CdfModel, dataset: Dataset) -> None:
    if dataset.dim != model.dim:
        raise CliError(
            f"dimension mismatch: model expects {model.dim}, dataset has {dataset.dim}"
        )


def _align_truth(model: CdfModel, dataset: Dataset) -> list[int]:
    """Map the dataset's dense ids into the model's label space by name.

    A dataset missing some of the model's labels assigns different dense ids,
    so ids cannot be compared directly.
    """
    lookup = {name: i for i, name in enumerate(model.label_names)}
    truth = []
    for lab in dataset.labels:
        name = dataset.label_names[lab]
        if name not in lookup:
            raise CliError(f"dataset label {name!r} unknown to the model")
        truth.append(lookup[name])
    return truth


def cmd_eval(cfg: dict) -> int:
    model = _load_model(cfg)
    dataset = _load_dataset(cfg, default_split="test")
    _check_dims(model, dataset)

    t0 = time.perf_counter()
    decisions = multiclass.pair_decisions(model, dataset.samples)
    preds = [winner for winner, _ in multiclass.vote(decisions, model.num_classes)]
    t_eval = time.perf_counter() - t0

    truth = _align_truth(model, dataset)
    cm = metrics.confusion(preds, truth, model.num_classes)
    report = _config_echo_lines(cfg)
    report.extend(metrics.metric_lines(cm, model.label_names))
    # Per pair: the rows of its two classes, and those on which it voted for
    # the other one of the two (pair (x, y) votes x when its decision is > 0).
    truth = np.asarray(truth, dtype=np.int64)
    for (x, y), d in zip(class_pairs(model.num_classes), decisions.T):
        is_x, is_y = truth == x, truth == y
        wrong = np.count_nonzero(is_x & (d <= 0)) + np.count_nonzero(is_y & (d > 0))
        report.append(f"pair_{x}_{y}_rows={np.count_nonzero(is_x | is_y)}")
        report.append(f"pair_{x}_{y}_wrong={wrong}")
    report.append("confusion_matrix:")
    report.append(metrics.format_confusion(cm, model.label_names))
    _write_report(cfg, report)
    print(f"time_eval_s={t_eval:.3f}", file=sys.stderr)
    return 0


def cmd_predict(cfg: dict) -> int:
    model = _load_model(cfg)
    dataset = _load_dataset(cfg, default_split="test")
    _check_dims(model, dataset)

    lines = []
    for i, (winner, record) in enumerate(multiclass.predict_batch(model, dataset.samples)):
        lines.append(
            f"{i} {model.label_names[winner]} {record.votes[winner]} "
            f"{fmt_float(record.margin_sums[winner])}"
        )
    _write_report(cfg, lines)
    return 0


def cmd_inspect(cfg: dict) -> int:
    model = _load_model(cfg)
    report = _config_echo_lines(cfg)
    report.append(f"num_classes={model.num_classes}")
    report.append(f"dim={model.dim}")
    report.append(f"pairs={len(model.pairs)}")
    for ctx, svm in model.pairs:
        key = f"pair_{ctx.class_x}_{ctx.class_y}"
        report.append(f"{key}_mask_size={ctx.mask.size}")
        report.append(f"{key}_retained_fraction={fmt_float(ctx.mask.size / model.dim)}")
        report.append(f"{key}_mu_xy={fmt_float(ctx.mu_xy)}")
        report.append(f"{key}_mu_yx={fmt_float(ctx.mu_yx)}")
        report.append(f"{key}_tau={fmt_float(ctx.tau)}")
        report.append(f"{key}_tau_prime={fmt_float(ctx.tau_prime)}")
        report.append(f"{key}_b={fmt_float(ctx.b)}")
        report.append(f"{key}_b_prime={fmt_float(ctx.b_prime)}")
        report.append(f"{key}_fallback={int(ctx.fallback)}")
        report.append(f"{key}_support_vectors={svm.support_count}")
        report.append(f"{key}_iterations={svm.iterations}")
        report.append(f"{key}_kkt_violation_max={fmt_float(svm.kkt_violation_max)}")
        report.append(f"{key}_converged={int(_converged(svm, model.tol))}")
        if cfg.get("dump_masks"):
            report.append(f"{key}_mask={','.join(str(int(i)) for i in ctx.mask)}")
    _write_report(cfg, report)
    return 0


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    try:
        cfg = _parse_args(argv)
        return COMMANDS[cfg["command"]](cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
