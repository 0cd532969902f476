import gzip
import json
import re
import struct
import warnings

import numpy as np
import pytest

from cdfeat import multiclass
from cdfeat.cli import _parse_args, main
from cdfeat.ingest import dump_sparse, load_sparse
from cdfeat.model import CdfConfig, Dataset, model_from_json, model_to_json
from cdfeat.report import fmt_float
from cdfeat.svm import MAX_DEGREE

import pair_loop_oracle
from conftest import gaussian_blobs, gaussian_split


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    train_ds, test_ds = gaussian_split(n_train=25, n_test=15)
    train_file = root / "train.sparse"
    test_file = root / "test.sparse"
    train_file.write_text(dump_sparse(train_ds))
    test_file.write_text(dump_sparse(test_ds))
    return {"train": train_file, "test": test_file, "root": root}


def train_args(fixture_files, model_path, out_path, extra=()):
    return [
        "train",
        "--format", "sparse",
        "--data", str(fixture_files["train"]),
        "--dim", "20",
        "--model", str(model_path),
        "--out", str(out_path),
        "--seed", "42",
        *extra,
    ]


@pytest.fixture(scope="module")
def trained(fixture_files, tmp_path_factory):
    root = tmp_path_factory.mktemp("model")
    model_path = root / "model.json"
    report_path = root / "train.report"
    rc = main(train_args(fixture_files, model_path, report_path))
    assert rc == 0
    return {"model": model_path, "report": report_path}


class TestTrain:
    def test_model_has_three_pairs(self, trained):
        model = model_from_json(trained["model"].read_text())
        assert len(model.pairs) == 3
        assert model.num_classes == 3

    def test_report_echoes_config_and_masks(self, trained):
        report = trained["report"].read_text()
        assert "command=train" in report
        assert "seed=42" in report
        assert "feature_mode=dual_kl" in report
        assert "pair_0_1_mask_size=" in report

    def test_report_echo_block(self, trained):
        # Every setting in parser order; input paths and output settings not.
        lines = trained["report"].read_text().splitlines()
        assert lines[:25] == [
            "command=train",
            "format=sparse",
            "split=",
            "classes=",
            "max_per_class=",
            "dim=20",
            "min_df=3",
            "topics=10",
            "b=1",
            "b_prime=1",
            "feature_mode=dual_kl",
            "smoothing_eps=1.0000000000000001e-09",
            "kernel=polynomial",
            "degree=2",
            "gamma=",
            "coef0=1",
            "c=10",
            "tol=0.001",
            "max_passes=10",
            "folds=0",
            "grid_c=0.1,1,10,100",
            "grid_b=0.5,1.0,1.5,2.0",
            "grid_b_prime=0.5,1.0,1.5,2.0",
            "seed=42",
            "num_classes=3",
        ]

    def test_defaults_are_the_librarys(self, fixture_files, tmp_path):
        # With no pipeline or SVM flags, train fits what multiclass.train
        # fits with its own defaults, byte for byte.
        model_path = tmp_path / "defaults.json"
        rc = main([
            "train", "--format", "sparse", "--data", str(fixture_files["train"]),
            "--dim", "20", "--model", str(model_path), "--out", str(tmp_path / "r"),
        ])
        assert rc == 0
        ds = load_sparse(fixture_files["train"].read_text(), dim=20)
        assert model_path.read_text() == model_to_json(multiclass.train(ds))

    def test_missing_input_path_named(self, tmp_path, capsys):
        rc = main(
            [
                "train", "--format", "sparse", "--data", str(tmp_path / "absent.sparse"),
                "--model", str(tmp_path / "m.json"),
            ]
        )
        assert rc != 0
        assert "absent.sparse" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, fixture_files, tmp_path, trained):
        model2 = tmp_path / "model2.json"
        report2 = tmp_path / "train2.report"
        rc = main(train_args(fixture_files, model2, report2))
        assert rc == 0
        assert model2.read_bytes() == trained["model"].read_bytes()
        assert report2.read_bytes() == trained["report"].read_bytes()

    def test_cross_validation_table_in_report(self, fixture_files, tmp_path):
        model_path = tmp_path / "cv-model.json"
        report_path = tmp_path / "cv.report"
        rc = main(
            train_args(
                fixture_files, model_path, report_path,
                extra=["--folds", "3", "--grid-c", "1,10", "--grid-b", "1.0",
                       "--grid-b-prime", "1.0"],
            )
        )
        assert rc == 0
        report = report_path.read_text()
        assert "cv_cell_0=" in report and "cv_cell_1=" in report
        assert "cv_best=" in report

    @pytest.mark.parametrize("folds", [[], ["--folds", "2"]])
    @pytest.mark.parametrize("flag, grid, message", [
        ("--grid-c", "1,0", "value must be a finite real > 0, got 0.0"),
        ("--grid-b", "1,-1", "value must be a finite real > 0, got -1.0"),
        ("--grid-b-prime", "1,nan", "value must be a finite real > 0, got nan"),
        ("--grid-c", "inf", "value must be a finite real > 0, got inf"),
        ("--grid-c", "abc", "invalid float value: 'abc'"),
        ("--grid-b", " ,,", "expected a comma-separated list, got ' ,,'"),
    ])
    def test_bad_grid_exits_2_before_the_data_is_read(self, fixture_files, tmp_path, capsys,
                                                      monkeypatch, folds, flag, grid, message):
        def no_read(*args, **kwargs):
            raise AssertionError("the data file was read")

        monkeypatch.setattr("cdfeat.cli.ingest.load_sparse", no_read)
        model_path = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exc:
            main(train_args(fixture_files, model_path, tmp_path / "r",
                            extra=[*folds, f"{flag}={grid}"]))
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"cdfeat train: error: argument {flag}: {message}"
        ]
        assert not model_path.exists()

    def test_grid_echoes_as_given(self, fixture_files, tmp_path):
        report_path = tmp_path / "cv.report"
        assert main(train_args(fixture_files, tmp_path / "m.json", report_path,
                               ["--folds", "2", "--grid-c", " 1,1e1", "--grid-b", "1.0,",
                                "--grid-b-prime", "1"])) == 0
        lines = report_path.read_text().splitlines()
        assert ["grid_c= 1,1e1", "grid_b=1.0,", "grid_b_prime=1"] == [
            line for line in lines if line.startswith("grid_")
        ]
        assert [line.split(" ")[0] for line in lines if line.startswith("cv_cell_")] == [
            "cv_cell_0=c:1", "cv_cell_1=c:10"
        ]

    @pytest.mark.parametrize("setting, gamma, coef0", [
        (["--gamma", "1e200"], "1e+200", "1.0"), (["--coef0", "1e200"], "0.5", "1e+200"),
    ])
    def test_failed_pair_solve_prints_one_error_line(self, fixture_files, tmp_path, capsys,
                                                     setting, gamma, coef0):
        # The kernel values of the first pair overflow float64: refused
        # with one line that names the overflow, and no numpy warning.
        model_path = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(train_args(fixture_files, model_path, tmp_path / "r", setting))
        assert rc == 1 and caught == []
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: training failed for pair (0,1): kernel values overflow float64 under "
            f"KernelSpec(kind='polynomial', degree=2, gamma={gamma}, coef0={coef0})"
        ]
        assert not model_path.exists()

    def test_degree_at_the_limit_is_accepted(self, fixture_files, tmp_path):
        argv = train_args(fixture_files, tmp_path / "m.json", tmp_path / "r",
                          ["--degree", str(MAX_DEGREE)])
        assert _parse_args(argv)["degree"] == MAX_DEGREE

    def test_max_per_class_keeps_first_rows_of_each_class(self, fixture_files, tmp_path):
        model_path = tmp_path / "capped.json"
        report_path = tmp_path / "capped.report"
        rc = main(train_args(fixture_files, model_path, report_path,
                             extra=["--max-per-class", "5"]))
        assert rc == 0
        assert "samples=15" in report_path.read_text()
        train_ds, _ = gaussian_split(n_train=25, n_test=15)
        model = model_from_json(model_path.read_text())
        for p in model.profiles:
            assert p.cardinality == 5
            np.testing.assert_allclose(
                p.sum_vec, train_ds.class_matrix(p.class_id)[:5].sum(axis=0), rtol=1e-12
            )

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_max_per_class_below_one_exits_2(self, fixture_files, tmp_path, capsys, cap):
        model_path = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exc:
            main(train_args(fixture_files, model_path, tmp_path / "r",
                            extra=[f"--max-per-class={cap}"]))
        assert exc.value.code == 2
        assert f"argument --max-per-class: value must be an integer >= 1, got {cap}" in (
            capsys.readouterr().err
        )
        assert not model_path.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--folds", "1", "expected 0 (no CV) or an integer >= 2, got 1"),
        ("--folds", "-2", "value must be an integer >= 0, got -2"),
        ("--min-df", "0", "value must be an integer >= 1, got 0"),
        ("--topics", "0", "value must be an integer >= 1, got 0"),
        ("--topics", "-1", "value must be an integer >= 1, got -1"),
        ("--dim", "0", "value must be an integer >= 1, got 0"),
        ("--dim", "-5", "value must be an integer >= 1, got -5"),
        ("--seed", "-1", "value must be an integer >= 0, got -1"),
    ])
    def test_int_option_out_of_range_exits_2(self, fixture_files, tmp_path, capsys,
                                             flag, value, message):
        model_path = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exc:
            main(train_args(fixture_files, model_path, tmp_path / "r",
                            extra=[f"{flag}={value}"]))
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not model_path.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag, value", [
    ("--max-passes", 0), ("--degree", 0), ("--c", 0.0), ("--tol", -1.0), ("--b", 0.0),
    ("--b-prime", 0.0), ("--smoothing-eps", -1.0), ("--gamma", 0.0), ("--c", float("nan")),
    ("--b", float("inf")), ("--coef0", float("nan")), ("--coef0", float("inf")),
    ("--degree", MAX_DEGREE + 1),
])
def test_bad_setting_exits_2_before_loading(fixture_files, tmp_path, capsys, monkeypatch,
                                            flag, value, source):
    # A config value goes through its flag's conversion, so both are refused
    # at parse time, naming the flag, before any data is read.
    def no_load(*args):
        raise AssertionError("data loaded")

    monkeypatch.setattr("cdfeat.cli._load_dataset", no_load)
    if source == "flag":
        extra = [f"{flag}={value}"]
    else:
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        extra = ["--config", str(config)]
    model_path = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exc:
        main(train_args(fixture_files, model_path, tmp_path / "r", extra))
    assert exc.value.code == 2
    rule = {"--max-passes": "an integer >= 1", "--degree": f"an integer >= 1 and <= {MAX_DEGREE}",
            "--coef0": "a finite real"}.get(flag, "a finite real > 0")
    assert f"argument {flag}: value must be {rule}, got {value!r}" in capsys.readouterr().err
    assert not model_path.exists()


def _json_error(text: str) -> str:
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} is valid JSON")


@pytest.mark.parametrize("config_text, argv, message", [
    (None, ["--config", "{missing}"], "config file not found: {missing}"),
    ("{", ["--config", "{config}"], "config file {config}: " + _json_error("{")),
    ("[1]", ["--config", "{config}"], "config file {config}: expected a JSON object"),
    (None, ["--format", "sparse"], "--data is required for this command"),
    (None, ["--data", "{train}"], "--format must be one of idx, sparse, reuters"),
])
def test_command_refusal_exits_2_with_one_error_line(fixture_files, tmp_path, capsys,
                                                     config_text, argv, message):
    names = {"missing": tmp_path / "none.json", "config": tmp_path / "run.json",
             "train": fixture_files["train"]}
    if config_text is not None:
        names["config"].write_text(config_text)
    model_path = tmp_path / "m.json"
    argv = [arg.format(**names) for arg in argv]
    assert main(["train", *argv, "--dim", "20", "--model", str(model_path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: " + message.format(**names)]
    assert not model_path.exists()


def test_train_without_model_exits_2_with_one_error_line(fixture_files, capsys):
    assert main(["train", "--format", "sparse", "--data", str(fixture_files["train"]),
                 "--dim", "20"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --model output path is required for train"
    ]


# The settings eval, predict and inspect read from the model file, and the
# data options inspect never loads.
SETTINGS = ["--b", "--b-prime", "--feature-mode", "--smoothing-eps",
            "--kernel", "--degree", "--gamma", "--coef0", "--c", "--tol", "--max-passes",
            "--folds", "--grid-c", "--grid-b", "--grid-b-prime", "--seed"]
DATA_OPTIONS = ["--format", "--images", "--labels", "--data", "--sgml-dir", "--split",
                "--classes", "--max-per-class", "--dim", "--min-df", "--topics"]
REMOVED = (
    [(cmd, flag) for cmd in ("eval", "predict", "inspect") for flag in SETTINGS]
    + [("inspect", flag) for flag in DATA_OPTIONS]
    + [(cmd, "--dump-masks") for cmd in ("train", "eval", "predict")]
    + [(cmd, flag) for cmd in ("train", "eval", "predict", "inspect")
       for flag in ("--jobs", "--selection-mode")]
)


@pytest.mark.parametrize("command, flag", REMOVED)
def test_option_of_another_command_exits_2(trained, tmp_path, capsys, command, flag):
    # Abbreviations are off, so no removed flag is read as a prefix of a kept one.
    value = {"--dump-masks": [], "--selection-mode": ["ratio"]}.get(flag, ["1"])
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", str(trained["model"]), "--out", str(tmp_path / "r"),
              flag, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


class TestEval:
    def test_training_set_is_perfect(self, fixture_files, trained, tmp_path):
        out = tmp_path / "eval.report"
        rc = main(
            [
                "eval", "--format", "sparse", "--data", str(fixture_files["train"]),
                "--dim", "20", "--model", str(trained["model"]), "--out", str(out),
            ]
        )
        assert rc == 0
        report = out.read_text()
        assert "error_rate=0" in report
        assert "micro_f=1" in report
        assert "confusion_matrix:" in report

    def test_test_split_zero_errors(self, fixture_files, trained, capsys):
        rc = main(
            [
                "eval", "--format", "sparse", "--data", str(fixture_files["test"]),
                "--dim", "20", "--model", str(trained["model"]),
            ]
        )
        assert rc == 0
        assert "error_rate=0" in capsys.readouterr().out

    def test_truth_alignment_with_missing_class(self, fixture_files, trained, tmp_path, capsys):
        # A file containing only classes 1 and 2 assigns them dense ids 0 and
        # 1; eval must realign them to the model's label table by name.
        test_ds = gaussian_split(n_train=25, n_test=15)[1]
        rows = [
            (vec, lab) for vec, lab in zip(test_ds.samples, test_ds.labels) if lab != 0
        ]
        subset = Dataset.from_arrays(
            np.stack([v for v, _ in rows]),
            [lab - 1 for _, lab in rows],
            label_names=["1", "2"],
        )
        data = tmp_path / "subset.sparse"
        data.write_text(dump_sparse(subset))
        rc = main(
            [
                "eval", "--format", "sparse", "--data", str(data), "--dim", "20",
                "--model", str(trained["model"]),
            ]
        )
        assert rc == 0
        assert "error_rate=0" in capsys.readouterr().out

    def test_pair_lines_count_each_pairs_wrong_votes(self, fixture_files, trained, tmp_path,
                                                     capsys):
        # Labels 0 and 1 swapped: pair (0, 1) votes against the label on every
        # row of the two; each pair's counts follow its own decision signs.
        test_ds = gaussian_split(n_train=25, n_test=15)[1]
        swapped = Dataset.from_arrays(test_ds.samples, [(1, 0, 2)[c] for c in test_ds.labels])
        data = tmp_path / "swapped.sparse"
        data.write_text(dump_sparse(swapped))
        rc = main(
            [
                "eval", "--format", "sparse", "--data", str(data), "--dim", "20",
                "--model", str(trained["model"]),
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        pair_lines = [ln for ln in lines if re.fullmatch(r"pair_\d+_\d+_(rows|wrong)=\d+", ln)]
        assert lines.index(pair_lines[-1]) < lines.index("confusion_matrix:")
        model = model_from_json(trained["model"].read_text())
        truth = swapped.labels
        want = []
        feats = pair_loop_oracle.pair_features(model, swapped.samples)
        for (ctx, svm), f in zip(model.pairs, feats):
            x, y = ctx.class_x, ctx.class_y
            mine = (truth == x) | (truth == y)
            voted = np.where(pair_loop_oracle.pair_decision_batch(model, svm, f) > 0, x, y)
            want += [f"pair_{x}_{y}_rows={np.sum(mine)}",
                     f"pair_{x}_{y}_wrong={np.sum(mine & (voted != truth))}"]
        assert pair_lines == want
        assert "pair_0_1_rows=30" in want and "pair_0_1_wrong=30" in want

    def test_unknown_label_rejected(self, trained, tmp_path, capsys):
        data = tmp_path / "alien.sparse"
        data.write_text("9 1:1.0 2:2.0\n")
        rc = main(
            [
                "eval", "--format", "sparse", "--data", str(data), "--dim", "20",
                "--model", str(trained["model"]),
            ]
        )
        assert rc != 0
        assert "unknown to the model" in capsys.readouterr().err

    def test_dimension_mismatch_names_both(self, fixture_files, trained, tmp_path, capsys):
        short = tmp_path / "short.sparse"
        short.write_text("0 1:1.0\n1 2:2.0\n2 3:1.0\n")
        rc = main(
            [
                "eval", "--format", "sparse", "--data", str(short),
                "--model", str(trained["model"]),
            ]
        )
        assert rc != 0
        err = capsys.readouterr().err
        assert "20" in err and "3" in err


class TestPredict:
    def test_line_per_sample_in_order(self, fixture_files, trained, capsys):
        rc = main(
            [
                "predict", "--format", "sparse", "--data", str(fixture_files["test"]),
                "--dim", "20", "--model", str(trained["model"]),
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 45
        assert [ln.split()[0] for ln in lines[:3]] == ["0", "1", "2"]
        for ln in lines:
            idx, label, votes, margin = ln.split()
            assert label in ("0", "1", "2")
            assert int(votes) >= 1
            float(margin)

    def test_empty_idx_dataset_no_lines(self, trained, tmp_path, capsys):
        images = tmp_path / "empty-images"
        labels = tmp_path / "empty-labels"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 0, 4, 5))
        labels.write_bytes(struct.pack(">II", 0x00000801, 0))
        rc = main(
            [
                "predict", "--format", "idx", "--images", str(images),
                "--labels", str(labels), "--model", str(trained["model"]),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_matches_eval_predictions(self, fixture_files, trained, capsys):
        rc = main(
            [
                "predict", "--format", "sparse", "--data", str(fixture_files["test"]),
                "--dim", "20", "--model", str(trained["model"]),
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        test_ds = gaussian_split(n_train=25, n_test=15)[1]
        # Sparse files sort label tokens, so dense ids match the fixture's.
        got = [int(ln.split()[1]) for ln in lines]
        assert got == list(test_ds.labels)


class TestInspect:
    def test_tiny_b_retains_everything(self, fixture_files, tmp_path, capsys):
        model_path = tmp_path / "tiny-b.json"
        rc = main(
            train_args(fixture_files, model_path, tmp_path / "r1",
                       extra=["--b", "1e-9", "--b-prime", "1e-9"])
        )
        assert rc == 0
        rc = main(["inspect", "--model", str(model_path)])
        assert rc == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if "_retained_fraction=" in line:
                assert float(line.split("=")[1]) == 1.0

    def test_larger_b_never_retains_more(self, fixture_files, tmp_path, capsys):
        fractions = {}
        for tag, b in (("small", "0.8"), ("large", "1.6")):
            model_path = tmp_path / f"{tag}.json"
            rc = main(
                train_args(fixture_files, model_path, tmp_path / f"r-{tag}",
                           extra=["--b", b, "--b-prime", "1.0"])
            )
            assert rc == 0
            rc = main(["inspect", "--model", str(model_path)])
            assert rc == 0
            out = capsys.readouterr().out
            fractions[tag] = {
                line.split("=")[0]: float(line.split("=")[1])
                for line in out.splitlines()
                if "_retained_fraction=" in line
            }
        for key in fractions["small"]:
            assert fractions["large"][key] <= fractions["small"][key]

    def test_fallback_flag_visible(self, tmp_path, capsys):
        # Identical classes force the fallback mask on their pair.
        rng = np.random.default_rng(15)
        base = rng.uniform(0, 4, size=(10, 6))
        ds = Dataset.from_arrays(np.vstack([base, base]), [0] * 10 + [1] * 10)
        data = tmp_path / "degenerate.sparse"
        data.write_text(dump_sparse(ds))
        model_path = tmp_path / "degenerate.json"
        rc = main(
            [
                "train", "--format", "sparse", "--data", str(data), "--dim", "6",
                "--model", str(model_path), "--out", str(tmp_path / "r"),
            ]
        )
        assert rc == 0
        rc = main(["inspect", "--model", str(model_path)])
        assert rc == 0
        assert "pair_0_1_fallback=1" in capsys.readouterr().out

    def test_mask_dump_optional(self, trained, capsys):
        rc = main(["inspect", "--model", str(trained["model"]), "--dump-masks"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pair_0_1_mask=" in out

    def test_report_echo_block(self, trained, capsys):
        # inspect takes no setting, so command is its only echo line.
        rc = main(["inspect", "--model", str(trained["model"])])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == ["command=inspect", "num_classes=3", "dim=20", "pairs=3"]
        assert lines[4].startswith("pair_0_1_mask_size=")

    def test_solver_health_per_pair(self, trained, capsys):
        rc = main(["inspect", "--model", str(trained["model"])])
        assert rc == 0
        lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        model = model_from_json(trained["model"].read_text())
        for ctx, svm in model.pairs:
            key = f"pair_{ctx.class_x}_{ctx.class_y}"
            assert int(lines[f"{key}_iterations"]) == svm.iterations
            assert float(lines[f"{key}_kkt_violation_max"]) == svm.kkt_violation_max
            assert lines[f"{key}_converged"] == "1"

    def test_capped_solve_not_converged(self, tmp_path, capsys):
        # One 40-row pair of overlapping classes: with C=1000 and
        # max_passes=1 SMO stops at its 40-iteration cap far from tol.
        # train warns of it on stderr only, inspect reports converged=0.
        x, y = gaussian_blobs(20, classes=2, shift=1.5)
        data = tmp_path / "pair.sparse"
        data.write_text(dump_sparse(Dataset.from_arrays(x, y)))
        model_path, report = tmp_path / "m.json", tmp_path / "r"
        for c, iterations, converged in (("1000", "40", "0"), ("10", "24", "1")):
            rc = main([
                "train", "--format", "sparse", "--data", str(data), "--dim", "20",
                "--model", str(model_path), "--out", str(report),
                "--kernel", "linear", "--c", c, "--max-passes", "1",
            ])
            assert rc == 0
            warnings = [line for line in capsys.readouterr().err.splitlines()
                        if line.startswith("warning:")]
            gap = model_from_json(model_path.read_text()).pairs[0][1].kkt_violation_max
            assert warnings == [
                f"warning: pair (0,1) stopped at the SMO iteration cap: 40 iterations, "
                f"kkt_violation_max={fmt_float(gap)} > tol=0.001"
            ] * (converged == "0")
            text = report.read_text()
            assert "warning" not in text and text.endswith("\npair_0_1_fallback=0\n")
            assert main(["inspect", "--model", str(model_path)]) == 0
            lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
            assert lines["pair_0_1_iterations"] == iterations
            assert (float(lines["pair_0_1_kkt_violation_max"]) > 1e-3) == (converged == "0")
            assert lines["pair_0_1_converged"] == converged

    def test_svm_without_support_vectors(self, fixture_files, tmp_path, capsys):
        # tol 5 is above the KKT gap of 2 at alpha = 0: every pair form is
        # written with "support_count":0 and must load again.
        model_path = tmp_path / "no-sv.json"
        assert main(train_args(fixture_files, model_path, tmp_path / "r", ["--tol", "5"])) == 0
        text = model_path.read_text()
        assert text.count('"support_count":0') == 3 and '"support_vectors"' not in text
        assert main(["inspect", "--model", str(model_path)]) == 0
        assert "pair_0_1_support_vectors=0" in capsys.readouterr().out.splitlines()
        data = ["--format", "sparse", "--data", str(fixture_files["test"]), "--dim", "20"]
        for command in ("eval", "predict"):
            assert main([command, "--model", str(model_path), *data]) == 0, command

    def test_unreadable_model(self, trained, tmp_path, capsys):
        # A mistyped field (cardinality "3") must not escape as a TypeError.
        doc = json.loads(trained["model"].read_text())
        doc["profiles"][0]["cardinality"] = str(doc["profiles"][0]["cardinality"])
        nan_bias = json.loads(trained["model"].read_text())
        nan_bias["pairs"][0]["bias"] = float("nan")
        texts = ["{}", "[]", "null", '"x"', json.dumps(doc), json.dumps(nan_bias)]
        for corrupt in (
            lambda d: d["profiles"][0].update(cardinality=60.5),
            lambda d: d["pairs"][0].update(iterations="5"),
            lambda d: d.update(label_names=list(range(len(d["label_names"])))),
            # eval would score every class against the last one's id.
            lambda d: d.update(label_names=["0"] * len(d["label_names"])),
            # Not lists: tuple() would read both as the names.
            lambda d: d.update(label_names="".join(d["label_names"])),
            lambda d: d.update(label_names=dict.fromkeys(d["label_names"], 1)),
            lambda d: d["kernel"].update(coef0="1"),
            lambda d: d["kernel"].update(degree=2.5),
            lambda d: d["kernel"].update(degree=True),
            lambda d: d["config"].update(b=True),
            # Integers beyond float range where reals are read.
            lambda d: d.update(c=10**400),
            lambda d: d["pairs"][0].update(bias=10**400),
            lambda d: d["profiles"][0].update(cardinality=10**400),
            lambda d: d["profiles"][0]["sum_vec"].__setitem__(0, 10**400),
        ):
            bad_doc = json.loads(trained["model"].read_text())
            corrupt(bad_doc)
            texts.append(json.dumps(bad_doc))
        for value in (float("nan"), float("inf")):
            bad_weight = json.loads(trained["model"].read_text())
            bad_weight["pairs"][0]["weights"][1] = value
            texts.append(json.dumps(bad_weight))
        for text in texts:
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            rc = main(["inspect", "--model", str(bad)])
            assert rc == 2
            assert "unreadable model" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["inspect", "eval", "predict"])
    def test_retired_format_refused_by_name(self, fixture_files, trained, tmp_path, capsys,
                                            command):
        old = tmp_path / "v6.json"
        old.write_text(trained["model"].read_text().replace(
            '"format":"cdf-model/7"', '"format":"cdf-model/6"', 1))
        data = [] if command == "inspect" else [
            "--format", "sparse", "--data", str(fixture_files["test"]), "--dim", "20"]
        assert main([command, "--model", str(old), *data]) == 2
        err = capsys.readouterr().err
        assert "unreadable model" in err
        assert "'cdf-model/6' is no longer read; retrain to write 'cdf-model/7'" in err


class TestIdxEndToEnd:
    def test_train_and_eval_on_synthetic_idx(self, tmp_path, capsys):
        # Two blobby 4x4 "digit" classes through the IDX byte format.
        rng = np.random.default_rng(99)
        n = 40
        pixels = np.zeros((n, 16), dtype=np.uint8)
        labels = []
        for i in range(n):
            cls = i % 2
            base = np.zeros(16)
            base[:8] = 200 if cls == 0 else 10
            base[8:] = 10 if cls == 0 else 200
            pixels[i] = np.clip(base + rng.integers(0, 40, size=16), 0, 255)
            labels.append(cls)
        images_path = tmp_path / "images.idx"
        labels_path = tmp_path / "labels.idx"
        images_path.write_bytes(
            struct.pack(">IIII", 0x00000803, n, 4, 4) + pixels.tobytes()
        )
        labels_path.write_bytes(
            struct.pack(">II", 0x00000801, n) + bytes(labels)
        )
        model_path = tmp_path / "idx-model.json"
        rc = main(
            [
                "train", "--format", "idx", "--images", str(images_path),
                "--labels", str(labels_path), "--model", str(model_path),
                "--out", str(tmp_path / "r"), "--seed", "1",
            ]
        )
        assert rc == 0
        rc = main(
            [
                "eval", "--format", "idx", "--images", str(images_path),
                "--labels", str(labels_path), "--model", str(model_path),
            ]
        )
        assert rc == 0
        assert "error_rate=0" in capsys.readouterr().out

    def test_classes_keep_two_of_three_labels(self, tmp_path, capsys):
        # Raw labels 3, 5 and 7; rows of 5 are dropped at train and at eval.
        rng = np.random.default_rng(27)
        raw = [3, 5, 7] * 8
        pixels = rng.integers(0, 40, size=(len(raw), 16), dtype=np.uint8)
        for i, label in enumerate(raw):
            start = {3: 0, 5: 5, 7: 10}[label]
            pixels[i, start:start + 6] += 200
        images_path = tmp_path / "images.idx"
        images_path.write_bytes(struct.pack(">IIII", 0x00000803, len(raw), 4, 4)
                                + pixels.tobytes())
        labels_path = tmp_path / "labels.idx"
        labels_path.write_bytes(struct.pack(">II", 0x00000801, len(raw)) + bytes(raw))
        model_path = tmp_path / "m.json"
        data = ["--format", "idx", "--images", str(images_path), "--labels", str(labels_path),
                "--classes", "7, 3"]
        assert main(["train", *data, "--model", str(model_path),
                     "--out", str(tmp_path / "r")]) == 0
        assert model_from_json(model_path.read_text()).label_names == ("3", "7")
        assert main(["eval", *data, "--model", str(model_path)]) == 0
        assert f"samples={raw.count(3) + raw.count(7)}" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("classes, message", [
        ("1,x", "invalid int value: 'x'"),
        ("0, 2.5", "invalid int value: '2.5'"),
        ("3,-1", "value must be an integer >= 0, got -1"),
        (",", "expected a comma-separated list, got ','"),
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_classes_exits_2_before_the_files_are_read(self, tmp_path, capsys, command,
                                                           classes, message):
        missing = str(tmp_path / "none")
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", "idx", "--images", missing, "--labels", missing,
                  "--classes", classes, "--model", str(tmp_path / "m.json")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"cdfeat {command}: error: argument --classes: {message}"
        ]
        assert not (tmp_path / "m.json").exists()

    def test_truncated_gzip_images_exit_1(self, tmp_path, capsys):
        images = gzip.compress(struct.pack(">IIII", 0x00000803, 40, 4, 4) + bytes(640))
        images_path = tmp_path / "images.gz"
        images_path.write_bytes(images[:-20])
        labels_path = tmp_path / "labels.idx"
        labels_path.write_bytes(struct.pack(">II", 0x00000801, 40) + bytes([0, 1] * 20))
        rc = main([
            "train", "--format", "idx", "--images", str(images_path),
            "--labels", str(labels_path), "--model", str(tmp_path / "m.json"),
        ])
        assert rc == 1
        assert "error: corrupt or truncated gzip stream" in capsys.readouterr().err


class TestReutersEndToEnd:
    def test_train_and_eval_on_synthetic_corpus(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        vocab = {
            "earn": ["profit", "dividend", "earnings", "quarter", "net", "share"],
            "grain": ["wheat", "corn", "harvest", "tonnes", "crop", "export"],
        }
        parts = []
        newid = 1
        for split, n_per in (("TRAIN", 30), ("TEST", 10)):
            for _ in range(n_per):
                for topic, words in vocab.items():
                    body = " ".join(rng.choice(words, size=25))
                    parts.append(
                        f'<REUTERS TOPICS="YES" LEWISSPLIT="{split}" NEWID="{newid}">\n'
                        f"<TOPICS><D>{topic}</D></TOPICS>\n"
                        f"<TEXT>\n<BODY>{body}</BODY>\n</TEXT>\n</REUTERS>\n"
                    )
                    newid += 1
        sgml_dir = tmp_path / "sgml"
        sgml_dir.mkdir()
        (sgml_dir / "reut2-000.sgm").write_text("".join(parts))

        model_path = tmp_path / "reuters.json"
        rc = main(
            [
                "train", "--format", "reuters", "--sgml-dir", str(sgml_dir),
                "--split", "train", "--min-df", "1", "--topics", "2",
                "--model", str(model_path), "--out", str(tmp_path / "r"),
            ]
        )
        assert rc == 0
        rc = main(
            [
                "eval", "--format", "reuters", "--sgml-dir", str(sgml_dir),
                "--split", "test", "--min-df", "1", "--topics", "2",
                "--model", str(model_path),
            ]
        )
        assert rc == 0
        assert "error_rate=0" in capsys.readouterr().out

    def test_entity_beyond_unicode_exits_1(self, tmp_path, capsys):
        sgml_dir = tmp_path / "sgml"
        sgml_dir.mkdir()
        (sgml_dir / "reut2-000.sgm").write_text(
            '<REUTERS TOPICS="YES" LEWISSPLIT="TRAIN" NEWID="1">\n'
            "<TOPICS><D>earn</D></TOPICS>\n"
            "<TEXT>\n<BODY>net &#99999999999999999999; rose</BODY>\n</TEXT>\n</REUTERS>\n"
        )
        rc = main([
            "train", "--format", "reuters", "--sgml-dir", str(sgml_dir),
            "--model", str(tmp_path / "m.json"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: entity &#99999999999999999999; is beyond U+10FFFF\n"


class TestConfigFile:
    def test_config_file_with_flag_override(self, fixture_files, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "format": "sparse",
                    "data": str(fixture_files["train"]),
                    "dim": 20,
                    "b": 1.5,
                    "seed": 7,
                }
            )
        )
        model_path = tmp_path / "from-config.json"
        out = tmp_path / "cfg.report"
        rc = main(
            [
                "train", "--config", str(config), "--model", str(model_path),
                "--out", str(out), "--b", "0.9",
            ]
        )
        assert rc == 0
        report = out.read_text()
        assert "b=0.90000000000000002" in report  # flag wins over config file
        assert "seed=7" in report

    @pytest.mark.parametrize("key, default, read", [
        ("b", CdfConfig.b, lambda model: model.config.b),
        ("c", multiclass.DEFAULT_C, lambda model: model.c),
    ])
    def test_flag_over_config_over_default(self, fixture_files, tmp_path, key, default, read):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: 0.5}))
        for extra, want in (
            ([], default),
            (["--config", str(config)], 0.5),
            (["--config", str(config), f"--{key}", "0.25"], 0.25),
        ):
            model_path = tmp_path / "m.json"
            out = tmp_path / "r"
            assert main(train_args(fixture_files, model_path, out, extra)) == 0
            assert f"{key}={fmt_float(want)}" in out.read_text().splitlines()
            assert read(model_from_json(model_path.read_text())) == want

    def test_wrong_typed_value_rejected_like_a_flag(self, fixture_files, tmp_path, capsys):
        config = tmp_path / "bad-type.json"
        config.write_text(json.dumps({"b": "abc"}))
        with pytest.raises(SystemExit) as exc:
            main(train_args(fixture_files, tmp_path / "m.json", tmp_path / "r",
                            ["--config", str(config)]))
        assert exc.value.code == 2
        assert "argument --b: invalid float value: 'abc'" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"bogus": 1}))
        rc = main(["train", "--config", str(config), "--model", "m"])
        assert rc != 0
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("loaded, message", [
        ({"b": [1]}, "argument --b: invalid float value: '[1]'"),
        ({"b": None}, "argument --b: invalid float value: 'None'"),
        ({"c": {}}, "argument --c: invalid float value: '{}'"),
        ({"max_passes": 2.5}, "argument --max-passes: invalid int value: '2.5'"),
        ({"seed": 1.7}, "argument --seed: invalid int value: '1.7'"),
        ({"seed": -1}, "argument --seed: value must be an integer >= 0, got -1"),
        ({"folds": True}, "argument --folds: invalid int value: 'True'"),
        ({"dim": 0}, "argument --dim: value must be an integer >= 1, got 0"),
        ({"kernel": "sigmoid"}, "argument --kernel: invalid choice: 'sigmoid'"),
        ({"dump_masks": "yes"}, "argument --dump-masks: ignored explicit argument 'yes'"),
    ])
    def test_value_the_flag_refuses_exits_2(self, fixture_files, trained, tmp_path, capsys,
                                            loaded, message):
        config = tmp_path / "bad-value.json"
        config.write_text(json.dumps(loaded))
        model_path = tmp_path / "m.json"
        if "dump_masks" in loaded:  # inspect's switch; train skips the key
            argv = ["inspect", "--model", str(trained["model"]), "--config", str(config)]
        else:
            argv = train_args(fixture_files, model_path, tmp_path / "r", ["--config", str(config)])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not model_path.exists()

    def test_null_keeps_an_unset_default_unset(self, fixture_files, tmp_path):
        config = tmp_path / "null-gamma.json"
        config.write_text(json.dumps({"gamma": None, "format": None, "b": 1.0}))
        for extra, name in (([], "plain"), (["--config", str(config)], "null")):
            assert main(train_args(fixture_files, tmp_path / f"{name}.json",
                                   tmp_path / f"{name}.report", extra)) == 0
        assert (tmp_path / "null.json").read_text() == (tmp_path / "plain.json").read_text()
        assert (tmp_path / "null.report").read_text() == (tmp_path / "plain.report").read_text()

    def test_switch_set_from_config(self, trained, tmp_path, capsys):
        config = tmp_path / "masks.json"
        config.write_text(json.dumps({"dump_masks": True}))
        assert main(["inspect", "--model", str(trained["model"]), "--config", str(config)]) == 0
        assert "pair_0_1_mask=" in capsys.readouterr().out

    def test_one_config_drives_train_eval_and_inspect(self, fixture_files, tmp_path, capsys):
        # Each command applies the keys of its own options and skips the others'.
        config = tmp_path / "shared.json"
        config.write_text(json.dumps({
            "format": "sparse", "data": str(fixture_files["train"]), "dim": 20,
            "b": 1.5, "c": 5, "seed": 7, "dump_masks": True,
        }))
        model_path = tmp_path / "shared-model.json"
        common = ["--config", str(config), "--model", str(model_path)]
        assert main(["train", *common, "--out", str(tmp_path / "train.report")]) == 0
        model = model_from_json(model_path.read_text())
        assert (model.config.b, model.c) == (1.5, 5.0)
        assert "seed" not in json.loads(model_path.read_text())
        capsys.readouterr()
        assert main(["eval", *common, "--data", str(fixture_files["test"])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:9] == [
            "command=eval",
            "format=sparse",
            "split=",
            "classes=",
            "max_per_class=",
            "dim=20",
            "min_df=3",
            "topics=10",
            "samples=45",
        ]
        assert not [line for line in lines if line.startswith(("b=", "c=", "seed="))]
        assert main(["inspect", *common]) == 0
        assert "pair_0_1_mask=" in capsys.readouterr().out

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100000 + "]" * 100000)
        assert main(["train", "--config", str(config), "--model", "m"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config file {config}: nested too deeply\n"

    def test_jobs_key_exits_2(self, tmp_path, capsys):
        # Pair SVMs are fitted one after another; no setting picks threads.
        config = tmp_path / "jobs.json"
        config.write_text(json.dumps({"jobs": 2}))
        assert main(["train", "--config", str(config), "--model", "m"]) == 2
        assert "unknown keys ['jobs']" in capsys.readouterr().err

    def test_verbose_is_not_an_option(self, fixture_files, tmp_path, capsys):
        config = tmp_path / "verbose.json"
        config.write_text(json.dumps({"verbose": 1}))
        rc = main(["train", "--config", str(config), "--model", "m"])
        assert rc == 2
        assert "unknown keys ['verbose']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(train_args(fixture_files, tmp_path / "m.json", tmp_path / "r", ["-v"]))
        assert exc.value.code == 2
