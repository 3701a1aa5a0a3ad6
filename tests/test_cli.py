import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from cardproj import cli
from cardproj import diffgraph as dg
from cardproj import inference as inf
from cardproj import model as md
from cardproj import projections as pj
from cardproj import training as tr

TINY_CONFIG = {
    "seed": 0,
    "data": {
        "synthetic_examples": 24,
        "label_count": 6,
        "input_dim": 12,
        "modulus": 4,
        "min_words": 2,
        "max_words": 10,
        "fractions": [0.75, 0.25, 0.0],
    },
    "model": {
        "max_cardinality": 4,
        "feature_hidden": 4,
        "feature_dim": 3,
        "global_hidden": 4,
        "cardinality_hidden": 4,
    },
    "inference": {"steps": 2},
    "optimizer": {"epochs": 2, "batch_size": 8},
}

METRIC_LINE = re.compile(
    r"^epoch=(\d+) split=(train|dev) loss=(-?\d+\.\d{6}) f1=(\d\.\d{6}) "
    r"f1_label=\d\.\d{6} card_mse=\d+\.\d{6}$"
)


def number_keys():
    """Every int or float field of every config section, and ``z_source``,
    so a field added to a section is covered here when it is added."""
    keys = [f"{name}.{f.name}" for name, cls in cli._SECTIONS
            for f in dataclasses.fields(cls) if f.type in ("int", "float")]
    return keys + ["inference.z_source"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Train once on the tiny config; several tests read the artifacts."""
    root = tmp_path_factory.mktemp("cli-train")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    checkpoint = root / "model.npz"
    metrics = root / "metrics.log"
    buffer = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(buffer):
        code = cli.main([
            "train", "--config", str(config),
            "--checkpoint", str(checkpoint), "--metrics", str(metrics),
        ])
    assert code == 0
    return {
        "config": config,
        "checkpoint": checkpoint,
        "metrics": metrics.read_text(),
        "stdout": buffer.getvalue(),
    }


class TestRunConfig:
    def test_defaults(self):
        cfg = cli.load_run_config()
        assert cfg.seed == 0
        assert cfg.inference.variant == "pc"
        assert cfg.optimizer.epochs == 20
        assert cfg.optimizer.learning_rate == 0.1
        assert cfg.inference.momentum == 0.9
        assert cfg.model.feature_hidden == 150
        assert cfg.data.fractions == (0.8, 0.1, 0.1)

    def test_file_values_and_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 3, "inference": {"steps": 5}}))
        cfg = cli.load_run_config(path)
        assert cfg.seed == 3
        assert cfg.inference.steps == 5
        cfg = cli.load_run_config(path, ["inference.steps=7", "seed=9"])
        assert cfg.seed == 9
        assert cfg.inference.steps == 7

    def test_string_override_needs_no_quotes(self):
        cfg = cli.load_run_config(overrides=["inference.variant=sc"])
        assert cfg.inference.variant == "sc"

    @pytest.mark.parametrize(
        "raw, pattern",
        [
            ({"frobnicate": 1}, "unknown config key frobnicate"),
            ({"inference": {"frobnicate": 1}}, "unknown config key inference.frobnicate"),
            ({"seed": "zero"}, "seed must be an integer"),
            ({"inference": {"steps": -1}}, "inference:"),
            ({"inference": 7}, "must be an object"),
        ],
    )
    def test_bad_configs_name_the_problem(self, tmp_path, raw, pattern):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(cli.ConfigError, match=re.escape(pattern)):
            cli.load_run_config(path)

    def test_invalid_json_and_missing_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(cli.ConfigError, match="invalid JSON"):
            cli.load_run_config(path)
        with pytest.raises(cli.ConfigError, match="not found"):
            cli.load_run_config(tmp_path / "absent.json")

    @pytest.mark.parametrize("spec", ["inference.steps", "a.b.c=1"])
    def test_bad_override_specs(self, spec):
        with pytest.raises(cli.ConfigError):
            cli.load_run_config(overrides=[spec])

    def test_readme_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        defaults = json.loads(json.dumps(dataclasses.asdict(cli.RunConfig())))
        assert json.loads(block) == defaults


class TestUsageErrors:
    def test_unknown_command_exits_one(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert cli.main(["train", "--frobnicate"]) == 1

    def test_missing_required_flag_exits_one(self, capsys):
        assert cli.main(["eval"]) == 1


class TestProject:
    def run(self, argv, stdin=None, monkeypatch=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        return cli.main(["project", *argv])

    def test_capped_worked_example(self, capsys, monkeypatch):
        code = self.run(["capped", "--z", "2"], "1.5 0.8 -0.2\n", monkeypatch)
        assert code == 0
        assert capsys.readouterr().out.strip() == "1 1 0"

    def test_simplex_symmetry(self, capsys, monkeypatch):
        code = self.run(["simplex", "--z", "1"], "0.5 0.5 0.5\n", monkeypatch)
        assert code == 0
        out = capsys.readouterr().out.split()
        np.testing.assert_allclose([float(x) for x in out], 1.0 / 3.0, rtol=1e-9)

    def test_input_file_multiple_lines(self, capsys, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1.5 0.8 -0.2\n0.1 0.2 0.3\n")
        assert cli.main(["project", "capped", "--z", "1", "--input", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            values = np.array([float(x) for x in line.split()])
            assert abs(values.sum() - 1.0) < 1e-9
            assert np.all(values >= -1e-12) and np.all(values <= 1 + 1e-12)

    def test_soft_operators_near_feasible(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0.9 0.1 0.5 0.7\n"))
        assert cli.main(["project", "dykstra", "--z", "2", "--sharpness", "50"]) == 0
        values = np.array([float(x) for x in capsys.readouterr().out.split()])
        assert abs(values.sum() - 2.0) < 0.05

    def test_infeasible_mass_exits_nonzero_with_line(self, capsys, monkeypatch):
        code = self.run(["capped", "--z", "5"], "1 0 0\n", monkeypatch)
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("operator, z, err", [
        ("simplex", "0", "line 2: simplex mass must be finite and positive, got 0.0"),
        ("capped", "2.5", "line 43: mass budget 2.5 outside [0, 2]"),
        ("dykstra", "2.5", "line 43: mass budget 2.5 outside [0, 2]"),
    ])
    def test_budgets_are_checked_before_any_line_prints(self, operator, z, err, capsys,
                                                        monkeypatch):
        # more than a chunk of feasible lines, of two lengths, comes before the
        # first infeasible one; the simplex budget fails on every line alike
        stdin = "\n" + "0.5 0.2 0.1\n" * 35 + "0.1 0.9 0.3 0.4\n" * 6 + "0.3 0.1\n1 0 0\n"
        assert self.run([operator, "--z", z], stdin, monkeypatch) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {err}\n"
        assert captured.out == ""

    def test_equal_length_runs_project_a_chunk_at_a_time(self, capsys, monkeypatch):
        shapes = []
        original = pj.project_capped_exact

        def recorded(v, mass):
            shapes.append(v.shape)
            return original(v, mass)

        monkeypatch.setattr(pj, "project_capped_exact", recorded)
        lengths = [3] * 70 + [2] + [3] * 2
        stdin = "".join(" ".join(["0.5"] * L) + "\n" for L in lengths)
        assert self.run(["capped", "--z", "1"], stdin, monkeypatch) == 0
        assert shapes == [(32, 3), (32, 3), (6, 3), (1, 2), (2, 3)]
        assert len(capsys.readouterr().out.splitlines()) == len(lengths)

    @pytest.mark.parametrize("operator", ["simplex", "capped", "dykstra"])
    def test_rows_print_what_each_line_prints_alone(self, operator, capsys, monkeypatch):
        # runs of one length are projected as rows, a chunk at a time; the
        # run of 30 is longer than a chunk
        rng = np.random.default_rng(11)
        lengths = [30] * 37 + [1, 1, 2, 2, 2] + [159] * 3 + [983] * 2 + [30, 30, 2]
        vectors = []
        for i, L in enumerate(lengths):
            if i % 3 == 0:
                v = rng.choice([-1.0, 1.0], L) * 10.0 ** rng.uniform(-6, 8, L)
            elif i % 3 == 1:
                v = np.round(rng.uniform(-1.0, 2.0, L), 1)  # ties
            else:
                v = rng.normal(size=L)
            vectors.append(v)
        stdin = "".join(" ".join(map(repr, v.tolist())) + "\n" for v in vectors)
        z = 0.7
        assert self.run([operator, "--z", str(z), "--diagnostics"], stdin, monkeypatch) == 0
        captured = capsys.readouterr()
        want_out, want_err = [], []
        for lineno, v in enumerate(vectors, 1):
            if operator == "simplex":
                y = pj.project_simplex_exact(v, z)
            elif operator == "capped":
                y = pj.project_capped_exact(v, z)
            else:
                y = pj.project_capped_dykstra(dg.Tape().leaf(v), z).values()
            res = pj.ProjectionResult(y, z)
            want_out.append(cli._format_vector(y))
            want_err.append(f"line {lineno}: residual_sum={res.residual_sum:.3e} "
                            f"residual_box={res.residual_box:.3e}")
        assert captured.out.splitlines() == want_out
        assert captured.err.splitlines() == want_err

    def test_diagnostics_go_to_stderr(self, capsys, monkeypatch):
        code = self.run(
            ["capped", "--z", "2", "--diagnostics"], "1.5 0.8 -0.2\n", monkeypatch
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "residual_sum" in captured.err
        assert "residual_sum" not in captured.out

    def test_malformed_vector_names_line(self, capsys, monkeypatch):
        code = self.run(["capped", "--z", "1"], "0.5 0.5\nzap 0.5\n", monkeypatch)
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["zap", "1__0", "_1", "0x10", "nan(1)", "1,5"])
    def test_malformed_token_is_one_config_error(self, token):
        # tokens that float() rejects; numpy must reject the same ones
        with pytest.raises(cli.ConfigError,
                           match="^line 2: not a whitespace-separated real vector$"):
            cli._read_vectors(io.StringIO(f"0.5 0.5\n0.5 {token}\n"))

    def test_vectors_parse_as_float_does(self):
        # non-finite tokens are rejected; see test_non_finite_input_exits_one
        lines = ["-0.0 1e-300 5e20 0.5", "1_0 -1e-400 .5 +2.", "1e308 -4.9e-324 7"]
        rows = cli._read_vectors(io.StringIO("\n".join(lines[:1] + [""] + lines[1:])))
        assert [lineno for lineno, _ in rows] == [1, 3, 4]
        for line, (_, row) in zip(lines, rows):
            want = np.array([float(tok) for tok in line.split()])
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("operator", ["simplex", "capped", "dykstra", "matrix"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_input_exits_one(self, operator, token, capsys, monkeypatch):
        flags = ["--col-sums", "1,1"] if operator == "matrix" else ["--z", "1"]
        code = self.run([operator, *flags], f"0.5 0.5\n1 {token}\n", monkeypatch)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: line 2: non-finite value\n"
        assert captured.out == ""

    def test_simplex_pivot_survives_a_wide_range(self, capsys, monkeypatch):
        # rounding used to leave no pivot candidate positive here
        code = self.run(["simplex", "--z", "1.5"], "5e20 1\n", monkeypatch)
        assert code == 0
        assert capsys.readouterr().out == "1.5 0\n"

    def test_matrix_survives_a_wide_range(self, capsys, monkeypatch):
        stdin = "-0.0 1e-300\n5e20 1\n0.25 -3\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = cli.main(["project", "matrix", "--col-sums", "1.5,1.5", "--diagnostics"])
        assert code == 0
        captured = capsys.readouterr()
        rows = np.array([[float(x) for x in line.split()]
                         for line in captured.out.strip().split("\n")])
        assert rows.shape == (3, 2) and np.all(rows >= 0.0)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(rows.sum(axis=0), [1.5, 1.5], atol=1e-9)

    @pytest.mark.parametrize("values", [
        [-0.0, 1e-300, 5e20, 0.5],
        [1.0 / 3.0, -2.5e-7, 123456789012.0, 0.0],
        [np.nan, np.inf, -np.inf, 1e-320],
        [5e-324, -2.2250738585072e-309, 1e-310, 2.2250738585072014e-308],  # subnormals
        [0.1 + 0.2, 0.3, 1.0 - 1e-16, 1e16 + 2.0],
    ])
    def test_vectors_format_as_each_scalar_does(self, values):
        arr = np.array(values)
        assert cli._format_vector(arr) == " ".join(f"{x:.10g}" for x in arr)

    def test_missing_z_is_usage_error(self, capsys, monkeypatch):
        assert self.run(["capped"], "0.5 0.5\n", monkeypatch) == 1

    def test_empty_input_is_usage_error(self, capsys, monkeypatch):
        assert self.run(["capped", "--z", "1"], "", monkeypatch) == 1

    def test_matrix_operator(self, capsys, monkeypatch):
        stdin = "0.8 0.4\n0.3 0.9\n0.5 0.2\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = cli.main(["project", "matrix", "--col-sums", "2,1", "--diagnostics"])
        assert code == 0
        captured = capsys.readouterr()
        rows = np.array(
            [[float(x) for x in line.split()] for line in captured.out.strip().split("\n")]
        )
        assert rows.shape == (3, 2)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-4)
        np.testing.assert_allclose(rows.sum(axis=0), [2.0, 1.0], atol=1e-4)
        assert "residual_rows" in captured.err

    @pytest.mark.parametrize("argv", [
        ["simplex", "--z", "nan"],
        ["simplex", "--z", "inf"],
        ["dykstra", "--z", "1", "--sharpness", "nan"],
        ["dykstra", "--z", "1", "--sharpness", "inf"],
        ["dykstra", "--z", "1", "--sharpness", "0"],
        ["dykstra", "--z", "1", "--sharpness", "-5"],
        ["matrix", "--col-sums", "1,1", "--rounds", "0"],
        ["matrix", "--col-sums", "1,1", "--rounds", "-1"],
        ["matrix", "--col-sums", "nan,2"],
    ], ids=" ".join)
    def test_invalid_number_flag_exits_one(self, argv, capsys, monkeypatch):
        # each number flag obeys the config rule, whatever the vectors are
        flag = argv[-2]
        assert self.run(argv, "0.5 0.2\n0.1 0.9\n", monkeypatch) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} must be ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("z", ["0", "-1.5"])
    def test_simplex_mass_not_positive_exits_one(self, z, capsys, monkeypatch):
        assert self.run(["simplex", "--z", z], "0.5 0.2\n0.1 0.9\n", monkeypatch) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: line 1: simplex mass must be finite and positive, got {float(z)}\n")
        assert captured.out == ""

    def test_unparseable_col_sums_names_flag_and_token(self, capsys, monkeypatch):
        assert self.run(["matrix", "--col-sums", "abc,1"], "0.5 0.2\n0.1 0.9\n",
                        monkeypatch) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: argument --col-sums: invalid float value: 'abc'\n"
        assert captured.out == ""

    def test_missing_input_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "absent.txt"
        assert cli.main(["project", "capped", "--z", "1", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: input file not found: {path}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("col_sums, err", [
        ("1,1,0", "expected 2 column masses"),
        ("1.5,1", "column masses sum to 2.5, expected 2"),
        ("3,-1", "column masses must be nonnegative"),
    ], ids=["count", "total", "sign"])
    def test_col_sums_that_do_not_fit_exit_one(self, col_sums, err, capsys, monkeypatch):
        assert self.run(["matrix", "--col-sums", col_sums], "0.5 0.2\n0.1 0.9\n",
                        monkeypatch) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {err}\n"
        assert captured.out == ""

    def test_matrix_requires_col_sums(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0.5 0.5\n"))
        assert cli.main(["project", "matrix"]) == 1

    def test_matrix_ragged_rows_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0.5 0.5\n0.2\n"))
        code = cli.main(["project", "matrix", "--col-sums", "1,1"])
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_checkpoint_and_metrics(self, trained):
        assert trained["checkpoint"].exists()
        lines = trained["metrics"].strip().split("\n")
        assert len(lines) == 6  # epochs 0..2, train and dev
        for line in lines:
            assert METRIC_LINE.match(line), line
        assert "best_epoch=" in trained["stdout"]
        assert "checkpoint=" in trained["stdout"]

    def test_same_seed_reproduces_metrics(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG))
        logs = []
        for tag in ("a", "b"):
            metrics = tmp_path / f"m-{tag}.log"
            code = cli.main([
                "train", "--config", str(config),
                "--checkpoint", str(tmp_path / f"ck-{tag}.npz"),
                "--metrics", str(metrics),
                "--set", "optimizer.epochs=1",
            ])
            assert code == 0
            logs.append(metrics.read_text())
        assert logs[0] == logs[1]

    def test_checkpoint_lands_at_the_given_path(self, tmp_path, capsys):
        # a path without the .npz suffix is written as given, and eval finds it
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG))
        checkpoint = tmp_path / "x.ckpt"
        assert cli.main([
            "train", "--config", str(config), "--checkpoint", str(checkpoint),
            "--metrics", str(tmp_path / "m.log"), "--set", "optimizer.epochs=1",
        ]) == 0
        assert f"checkpoint={checkpoint}\n" in capsys.readouterr().out
        assert checkpoint.exists()
        assert not (tmp_path / "x.ckpt.npz").exists()
        assert cli.main(["eval", "--config", str(config), "--checkpoint", str(checkpoint)]) == 0

    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG))
        checkpoint = tmp_path / "ck.npz"
        code = cli.main([
            "train", "--config", str(config), "--checkpoint", str(checkpoint),
            "--metrics", str(tmp_path / "m.log"), "--set", "optimizer.epochs=0",
        ])
        assert code == 0
        saved = md.load_model(checkpoint)
        fresh = md.ScoreModel(saved.config)
        for name, buf in fresh.params.items():
            np.testing.assert_array_equal(saved.params[name], buf)

    def test_missing_dataset_path_names_field(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        doc = dict(TINY_CONFIG)
        doc["data"] = {"path": str(tmp_path / "absent.txt")}
        config.write_text(json.dumps(doc))
        code = cli.main(["train", "--config", str(config),
                         "--checkpoint", str(tmp_path / "ck.npz")])
        assert code == 1
        assert "data.path" in capsys.readouterr().err

    def test_empty_corpus_names_the_file(self, tmp_path, capsys):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, "data": {"path": str(corpus)}}))
        code = cli.main(["train", "--config", str(config),
                         "--checkpoint", str(tmp_path / "ck.npz")])
        assert code == 1
        assert capsys.readouterr().err == f"error: data.path: {corpus} holds no examples\n"

    def test_diverged_training_exits_two(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise tr.TrainingDivergedError("non-finite loss nan at example 3 in epoch 1")

        monkeypatch.setattr(tr, "train", boom)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG))
        code = cli.main(["train", "--config", str(config),
                         "--checkpoint", str(tmp_path / "ck.npz"),
                         "--metrics", str(tmp_path / "m.log")])
        assert code == 2
        assert "example 3" in capsys.readouterr().err

    def assert_config_error(self, spec, tmp_path, capsys, raw=TINY_CONFIG):
        """Training ``raw`` with ``spec`` exits 1 before writing a checkpoint,
        with one error line that names the key."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        code = cli.main(["train", "--config", str(config),
                         "--checkpoint", str(tmp_path / "ck.npz"),
                         "--metrics", str(tmp_path / "m.log"), "--set", spec])
        section, _, field = spec.partition("=")[0].rpartition(".")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {section}: {field}") and err.count("\n") == 1, err
        assert not (tmp_path / "ck.npz").exists()

    # JSON true is a Python int; it must not pass for 1 or 1.0
    @pytest.mark.parametrize("key", number_keys())
    def test_boolean_for_a_number_exits_one(self, key, tmp_path, capsys):
        self.assert_config_error(f"{key}=true", tmp_path, capsys)

    @pytest.mark.parametrize("spec", [
        "data.fractions=[true,0,0]",
        "data.path=0",  # would read the corpus from file descriptor 0
        "inference.step_size=Infinity",
        "inference.sharpness=Infinity",
        "model.with_sc=1",  # 1 == True, but a flag is a bool
        "model.with_sc=0",
    ])
    def test_invalid_value_exits_one(self, spec, tmp_path, capsys):
        self.assert_config_error(spec, tmp_path, capsys)

    def test_topz_decoding_without_a_budget_exits_one(self, tmp_path, capsys):
        # sc predicts no budget; the config is refused before any data is made
        raw = {**TINY_CONFIG, "inference": {"steps": 2, "variant": "sc"}}
        self.assert_config_error("inference.decode=topz", tmp_path, capsys, raw)

    @pytest.mark.parametrize("overrides, err", [
        (["data.fractions=[0.5,0.5]"],
         "data: fractions must be three numbers, got [0.5, 0.5]"),
        (["seed=3", "seed.x=1"], "override 'seed.x=1' indexes into a non-section"),
    ], ids=["fractions", "non-section"])
    def test_unusable_override_exits_one(self, overrides, err, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG))
        sets = [arg for spec in overrides for arg in ("--set", spec)]
        code = cli.main(["train", "--config", str(config),
                         "--checkpoint", str(tmp_path / "ck.npz"), *sets])
        assert code == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp_path / "ck.npz").exists()

    def test_fractions_are_checked_before_the_corpus_is_looked_at(self, tmp_path, capsys):
        # the sum is a config error of the data section, found before the
        # missing corpus file is
        code = cli.main(["train", "--checkpoint", str(tmp_path / "ck.npz"),
                         "--set", f"data.path={tmp_path / 'missing.txt'}",
                         "--set", "data.fractions=[0.5,0.5,0.5]"])
        assert code == 1
        assert capsys.readouterr().err == "error: data: fractions sum to 1.5, expected 1\n"
        assert not (tmp_path / "ck.npz").exists()

    def test_config_root_not_an_object_exits_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code = cli.main(["train", "--config", str(config),
                         "--checkpoint", str(tmp_path / "ck.npz")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {config}: config root must be an object\n"

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_empty_train_split_exits_one(self, command, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG))
        code = cli.main([command, "--config", str(config),
                         "--set", "data.fractions=[0, 0.5, 0.5]"])
        assert code == 1
        assert capsys.readouterr().err == "error: data.fractions leave the train split empty\n"

    def test_huge_learning_rate_diverges_with_exit_two(self, tmp_path, capsys):
        # the first step leaves weights near 1e300: still finite, but their
        # squared norms overflow, and the next forward pass would be nan
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG))
        code = cli.main(["train", "--config", str(config),
                         "--checkpoint", str(tmp_path / "ck.npz"),
                         "--metrics", str(tmp_path / "m.log"),
                         "--set", "optimizer.learning_rate=1e300"])
        assert code == 2
        err = capsys.readouterr().err
        assert "parameter buffer feature.w1 has squared norm inf in epoch 1, batch 1" in err
        assert not (tmp_path / "ck.npz").exists()


class TestEvalCommand:
    def eval_f1(self, trained, capsys, *extra):
        code = cli.main([
            "eval", "--config", str(trained["config"]),
            "--checkpoint", str(trained["checkpoint"]), *extra,
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        match = re.search(r"(?<!_)f1=(\d\.\d{6})", out)
        return float(match.group(1)), out

    def test_reproduces_logged_train_f1(self, trained, capsys):
        best_epoch = int(re.search(r"best_epoch=(\d+)", trained["stdout"]).group(1))
        logged = None
        for line in trained["metrics"].strip().split("\n"):
            m = METRIC_LINE.match(line)
            if int(m.group(1)) == best_epoch and m.group(2) == "train":
                logged = float(m.group(4))
        assert logged is not None
        got, _ = self.eval_f1(trained, capsys, "--split", "train")
        assert abs(got - logged) <= 1e-6

    def test_runs_inference_once_per_example(self, trained, capsys, monkeypatch):
        rows = []
        original = inf.run_inference

        def counted(*args, **kwargs):
            traj = original(*args, **kwargs)
            final = traj.final_values()
            rows.append(final.shape[0] if final.ndim == 2 else 1)
            return traj

        monkeypatch.setattr(inf, "run_inference", counted)
        _, out = self.eval_f1(trained, capsys, "--split", "train")
        examples = int(re.search(r"examples=(\d+)", out).group(1))
        assert sum(rows) == examples

    def test_variant_topz_flag(self, trained, capsys):
        _, out = self.eval_f1(trained, capsys, "--split", "train",
                              "--variant", "topz")
        assert "variant=topz" in out

    def test_predictor_budget_flag(self, trained, capsys):
        # the default budget source, named explicitly, changes nothing
        _, out = self.eval_f1(trained, capsys, "--split", "train", "--z", "predictor")
        _, default = self.eval_f1(trained, capsys, "--split", "train")
        assert out == default

    def test_empty_split_exits_one(self, trained, capsys):
        # TINY_CONFIG gives the test split no examples
        code = cli.main(["eval", "--config", str(trained["config"]),
                         "--checkpoint", str(trained["checkpoint"]), "--split", "test"])
        assert code == 1
        assert capsys.readouterr().err == "error: split 'test' is empty\n"

    def test_fixed_budget_flag(self, trained, capsys):
        _, out = self.eval_f1(trained, capsys, "--split", "train", "--z", "fixed:3")
        assert "card_mse_h=" in out

    def test_bad_budget_flag(self, trained, capsys):
        code = cli.main([
            "eval", "--config", str(trained["config"]),
            "--checkpoint", str(trained["checkpoint"]), "--z", "sometimes",
        ])
        assert code == 1
        assert "--z expects" in capsys.readouterr().err

    def test_fixed_budget_must_be_a_number(self, trained, capsys):
        code = cli.main([
            "eval", "--config", str(trained["config"]),
            "--checkpoint", str(trained["checkpoint"]), "--z", "fixed:abc",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --z expects 'predictor' or 'fixed:<number>', got 'fixed:abc'\n")

    def test_topz_budget_out_of_range_exits_one(self, trained, capsys):
        # a fixed topz budget is checked once, rounded, with one value named
        code = cli.main(["eval", "--config", str(trained["config"]),
                         "--checkpoint", str(trained["checkpoint"]), "--split", "train",
                         "--variant", "topz", "--z", "fixed:7"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mass budget 7.0 outside [0, 6]\n"

    def test_non_finite_metrics_exit_two(self, trained, capsys, monkeypatch):
        def nan_loss(*args, **kwargs):
            return {"loss": float("nan"), "f1": 0.5, "f1_label": 0.5, "card_mse": 1.0}

        monkeypatch.setattr(tr, "evaluate", nan_loss)
        code = cli.main(["eval", "--config", str(trained["config"]),
                         "--checkpoint", str(trained["checkpoint"]), "--split", "train"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite metrics\n"
        assert "loss=nan" in captured.out

    def test_dimension_mismatch_names_expected_and_found(self, trained, tmp_path, capsys):
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["data"]["input_dim"] = 9
        doc["data"]["max_words"] = 8
        config = tmp_path / "other.json"
        config.write_text(json.dumps(doc))
        code = cli.main([
            "eval", "--config", str(config),
            "--checkpoint", str(trained["checkpoint"]),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "input_dim=12" in err and "input_dim=9" in err

    @pytest.mark.parametrize("damage", [
        "empty", "not a zip", "metadata list", "config missing a field",
        "config with an extra field", "config list",
    ])
    def test_bad_checkpoint_exits_one_naming_it(self, trained, tmp_path, capsys, damage):
        path = tmp_path / "bad.npz"
        if damage == "empty":
            path.write_bytes(b"")
        elif damage == "not a zip":
            path.write_bytes(b"PK\x03\x04garbage")
        else:
            arrays = dict(np.load(trained["checkpoint"], allow_pickle=False))
            meta = json.loads(str(arrays["__meta__"]))
            config = meta["config"]
            if damage == "metadata list":
                meta = [meta]
            elif damage == "config missing a field":
                del config["max_cardinality"]
            elif damage == "config with an extra field":
                config["depth"] = 2
            else:
                meta["config"] = list(config.values())
            arrays["__meta__"] = np.array(json.dumps(meta))
            with open(path, "wb") as handle:
                np.savez(handle, **arrays)
        code = cli.main(["eval", "--config", str(trained["config"]),
                         "--checkpoint", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("damage, err", [
        ("nan", "parameter buffer unary.w contains non-finite values"),
        ("missing", "missing parameter buffer unary.w"),
    ], ids=["nan", "missing"])
    def test_bad_buffer_exits_one_naming_file_and_buffer(self, trained, tmp_path, capsys,
                                                         damage, err):
        with np.load(trained["checkpoint"], allow_pickle=False) as archive:
            arrays = dict(archive)
        if damage == "nan":
            arrays["unary.w"][1, 0] = np.nan
        else:
            del arrays["unary.w"]
        path = tmp_path / "bad.npz"
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        code = cli.main(["eval", "--config", str(trained["config"]),
                         "--checkpoint", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: checkpoint {path}: {err}\n"

    def test_missing_checkpoint(self, trained, tmp_path, capsys):
        code = cli.main([
            "eval", "--config", str(trained["config"]),
            "--checkpoint", str(tmp_path / "absent.npz"),
        ])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_default_toy_config_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "max_rel_error=" in out
        assert "unary.w" in out

    def test_impossible_tolerance_fails(self, capsys):
        assert cli.main(["gradcheck", "--tolerance", "1e-15"]) == 1
        assert "gradient mismatch" in capsys.readouterr().err

    def test_nan_tolerance_exits_one(self, capsys):
        # a nan tolerance would let every gradient pass
        assert cli.main(["gradcheck", "--tolerance", "nan"]) == 1
        assert capsys.readouterr().err == "error: --tolerance must be a number >= 0, got nan\n"

    def test_topz_variant_exits_one(self, capsys):
        assert cli.main(["gradcheck", "--set", "inference.variant=topz"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: topz inference has no relaxed trajectory to differentiate\n")

    def test_prints_one_line_per_buffer_then_the_max(self, capsys):
        assert cli.main(["gradcheck", "--set", "inference.steps=1"]) == 0
        *lines, last = capsys.readouterr().out.splitlines()
        names = [line.split()[0] for line in lines]
        assert names == sorted(names)
        assert len(names) == 12 and "unary.w" in names
        width = max(map(len, names))
        errors = []
        for name, line in zip(names, lines):
            prefix = f"{name:<{width}}  rel_err="
            assert line.startswith(prefix), line
            errors.append(float(line[len(prefix):]))
            assert line == f"{prefix}{errors[-1]:.3e}"
        assert last == f"max_rel_error={max(errors):.3e}"

    def test_non_finite_loss_exits_two(self, capsys):
        # the first ascent step overflows; the loss is refused as in training,
        # and numpy's overflow warnings do not reach the user
        code = cli.main(["gradcheck", "--set", "inference.step_size=1e308",
                         "--tolerance", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite loss nan at example 0\n"

    def test_nan_error_in_a_later_buffer_fails(self, capsys, monkeypatch):
        # Python's max would skip a nan that is not its first value
        original = md.TapedModel.grads

        def spoiled(tm):
            grads = original(tm)
            grads["global.w1"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(md.TapedModel, "grads", spoiled)
        assert cli.main(["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert "global.w1       rel_err=nan\n" in captured.out
        assert captured.out.endswith("\nmax_rel_error=nan\n")
        assert captured.err == "error: gradient mismatch nan exceeds 1.0e-02\n"

    def test_corrupted_backward_exits_nonzero(self, capsys, monkeypatch):
        original = md.grad_global_score

        def corrupted(tm, y):
            node = original(tm, y)
            frozen = tm.tape.constant(0.5 * node.value)
            return dg.add(dg.scale(node, 0.5), frozen)

        monkeypatch.setattr(md, "grad_global_score", corrupted)
        assert cli.main(["gradcheck"]) == 1
        assert "gradient mismatch" in capsys.readouterr().err
