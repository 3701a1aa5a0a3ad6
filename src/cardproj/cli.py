"""Command-line entry point: train, eval, project, and gradcheck.

One declarative JSON config drives everything; command-line ``--set``
overrides take precedence over file values, and every piece of randomness
flows from the single top-level seed.  Exit codes: 0 on success, 1 for
usage or configuration problems (including argparse errors, which would
otherwise exit 2), and 2 for numerical failures such as a diverged
training run.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import data as dt
from . import diffgraph as dg
from . import fields as fl
from . import inference as inf
from . import model as md
from . import projections as pj
from . import training as tr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

__all__ = [
    "ConfigError",
    "RunConfig",
    "DataConfig",
    "ModelSection",
    "OptimizerSection",
    "load_run_config",
    "main",
]


class ConfigError(ValueError):
    """A config file, override, or command line that cannot be used."""


@dataclass(frozen=True)
class DataConfig:
    """Where examples come from: a corpus file, or the synthetic task."""

    path: str = None
    label_count: int = None
    input_dim: int = None
    synthetic_examples: int = 2000
    min_words: int = 5
    max_words: int = 34
    modulus: int = 10
    fractions: tuple = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if self.path is not None and not isinstance(self.path, str):
            raise ValueError(f"path must be a string or null, got {self.path!r}")
        for name in ("label_count", "input_dim"):
            if getattr(self, name) is not None:
                fl.number(name, getattr(self, name), int, ">= 1")
        for name in ("synthetic_examples", "min_words", "max_words", "modulus"):
            fl.number(name, getattr(self, name), int, ">= 1")
        if not isinstance(self.fractions, (list, tuple)) or len(self.fractions) != 3:
            raise ValueError(f"fractions must be three numbers, got {self.fractions!r}")
        for i, fraction in enumerate(self.fractions):
            fl.number(f"fractions[{i}]", fraction, float, ">= 0")
        dt._check_fractions(self.fractions)
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))


@dataclass(frozen=True)
class ModelSection:
    """Architecture sizes; input/label dimensions come from the dataset."""

    max_cardinality: int = 10
    feature_hidden: int = 150
    feature_dim: int = 150
    global_hidden: int = 150
    cardinality_hidden: int = 150
    with_sc: bool = False

    def __post_init__(self):
        # ModelConfig's check, with stand-ins for the dataset's dimensions
        md.ModelConfig(**dataclasses.asdict(self), input_dim=1, label_count=sys.maxsize)


@dataclass(frozen=True)
class OptimizerSection:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.1
    patience: int = 10

    def __post_init__(self):
        tr.TrainConfig(**dataclasses.asdict(self))  # the one check of these fields


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    data: DataConfig = DataConfig()
    model: ModelSection = ModelSection()
    inference: inf.InferenceConfig = inf.InferenceConfig()
    loss: tr.LossConfig = tr.LossConfig()
    optimizer: OptimizerSection = OptimizerSection()


_SECTIONS = (
    ("data", DataConfig),
    ("model", ModelSection),
    ("inference", inf.InferenceConfig),
    ("loss", tr.LossConfig),
    ("optimizer", OptimizerSection),
)


def _build_section(name: str, cls, payload) -> object:
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    for key in payload:
        if key not in known:
            raise ConfigError(f"unknown config key {name}.{key}")
    try:
        return cls(**payload)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"{name}: {err}") from None


def _apply_override(raw: dict, spec: str) -> None:
    key, sep, text = spec.partition("=")
    if not sep or not key:
        raise ConfigError(f"override {spec!r} is not of the form key=value")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text  # bare strings need no quoting
    parts = key.split(".")
    if len(parts) == 1:
        raw[parts[0]] = value
    elif len(parts) == 2:
        raw.setdefault(parts[0], {})
        if not isinstance(raw[parts[0]], dict):
            raise ConfigError(f"override {spec!r} indexes into a non-section")
        raw[parts[0]][parts[1]] = value
    else:
        raise ConfigError(f"override key {key!r} nests too deeply")


def load_run_config(path=None, overrides=(), base=None) -> RunConfig:
    """Build a validated RunConfig from a JSON file, or from a copy of
    ``base`` when there is none, plus key=value overrides."""
    if path is None:
        raw = copy.deepcopy(base) if base else {}
    else:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as handle:
                raw = json.load(handle)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config root must be an object")
    for spec in overrides:
        _apply_override(raw, spec)
    section_names = {name for name, _ in _SECTIONS}
    for key in raw:
        if key != "seed" and key not in section_names:
            raise ConfigError(f"unknown config key {key}")
    seed = raw.get("seed", 0)
    try:
        fl.number("seed", seed, int, ">= 0")
    except ValueError as err:
        raise ConfigError(str(err)) from None
    sections = {
        name: _build_section(name, cls, raw.get(name, {}))
        for name, cls in _SECTIONS
    }
    return RunConfig(seed=seed, **sections)


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve_datasets(cfg: RunConfig) -> dict:
    dc = cfg.data
    if dc.path is not None:
        if not os.path.exists(dc.path):
            raise ConfigError(f"data.path: no such file: {dc.path}")
        full = dt.load_sparse_multilabel(dc.path, dc.label_count, dc.input_dim)
        if len(full) == 0:
            raise ConfigError(f"data.path: {dc.path} holds no examples")
    else:
        full = dt.generate_synthetic(
            dc.synthetic_examples,
            dc.label_count if dc.label_count is not None else 30,
            dc.input_dim if dc.input_dim is not None else 40,
            modulus=dc.modulus,
            seed=cfg.seed,
            min_words=dc.min_words,
            max_words=dc.max_words,
        )
    train_set, dev_set, test_set = dt.split_dataset(full, dc.fractions, seed=cfg.seed)
    return {"all": full, "train": train_set, "dev": dev_set, "test": test_set}


def _model_config(cfg: RunConfig, dataset: dt.Dataset) -> md.ModelConfig:
    fields = dataclasses.asdict(cfg.model)
    # the SC variant scores cardinality with its own weight vector
    fields["with_sc"] |= cfg.inference.variant == "sc"
    return md.ModelConfig(**fields, input_dim=dataset.input_dim,
                          label_count=dataset.label_count, seed=cfg.seed)


def _set_inference(cfg: RunConfig, **changes) -> RunConfig:
    return replace(cfg, inference=replace(cfg.inference, **changes))


def _parse_budget_flag(text: str):
    if text == "predictor":
        return "predictor"
    head, sep, tail = text.partition(":")
    if head == "fixed" and sep:
        try:
            return float(tail)
        except ValueError:
            pass
    raise ConfigError(f"--z expects 'predictor' or 'fixed:<number>', got {text!r}")


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set)
    splits = _resolve_datasets(cfg)
    train_set = splits["train"]
    if len(train_set) == 0:
        raise ConfigError("data.fractions leave the train split empty")
    dev_set = splits["dev"] if len(splits["dev"]) else None
    model = md.ScoreModel(_model_config(cfg, train_set))
    train_config = tr.TrainConfig(**dataclasses.asdict(cfg.optimizer), seed=cfg.seed)
    stream = open(args.metrics, "w") if args.metrics else sys.stdout
    try:
        result = tr.train(
            model, train_set, cfg.inference, cfg.loss, train_config,
            dev_set=dev_set, log_stream=stream,
        )
    finally:
        if stream is not sys.stdout:
            stream.close()
    md.save_model(result.model, args.checkpoint)
    print(f"checkpoint={args.checkpoint}")
    print(f"best_epoch={result.best_epoch}")
    dev_records = [r for r in result.records if r.split == "dev"]
    if dev_records:
        best = max(r.f1 for r in dev_records)
        print(f"best_dev_f1={best:.6f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, args.set)
    if args.variant is not None:
        cfg = _set_inference(cfg, variant=args.variant)
    if args.z is not None:
        cfg = _set_inference(cfg, z_source=_parse_budget_flag(args.z))
    if not os.path.exists(args.checkpoint):
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    model = md.load_model(args.checkpoint)
    splits = _resolve_datasets(cfg)
    dataset = splits[args.split]
    if len(dataset) == 0:
        raise ConfigError(f"split {args.split!r} is empty")
    # evaluate() already scores the argmax counts: its card_mse is card_mse_h
    metrics = tr.evaluate(model, dataset, cfg.inference, cfg.loss)
    mse_h = metrics["card_mse"]
    reference = splits["train"].cardinalities() if len(splits["train"]) else None
    mse_const, mse_rand = dt.reference_cardinality_mse(
        dataset.cardinalities(), train_targets=reference, seed=cfg.seed
    )
    print(f"split={args.split} examples={len(dataset)} variant={cfg.inference.variant}")
    print(
        f"loss={metrics['loss']:.6f} f1={metrics['f1']:.6f} "
        f"f1_label={metrics['f1_label']:.6f}"
    )
    print(
        f"card_mse_h={mse_h:.6f} card_mse_const={mse_const:.6f} "
        f"card_mse_rand={mse_rand:.6f}"
    )
    if not all(np.isfinite(v) for v in metrics.values()):
        print("error: non-finite metrics", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _read_vectors(source) -> list:
    """(line number, vector) for each non-blank line, every value finite.

    The one check of a projection's input: every operator then sees the
    same vectors and fails the same way.
    """
    rows = []
    for lineno, raw in enumerate(source, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            # numpy parses each token as float() does, in one call per line
            row = np.array(line.split(), dtype=np.float64)
        except ValueError:
            raise ConfigError(f"line {lineno}: not a whitespace-separated real vector")
        if not np.isfinite(row).all():
            raise ConfigError(f"line {lineno}: non-finite value")
        rows.append((lineno, row))
    return rows


def _format_vector(values: np.ndarray) -> str:
    # one % operation per line; prints what f"{x:.10g}" prints for each x
    return " ".join(["%.10g"] * len(values)) % tuple(values.tolist())


def _chunks(rows: list):
    """(line numbers, stacked vectors) of each run of consecutive lines of
    one length, cut into chunks of at most ``EVAL_CHUNK`` rows."""
    start = 0
    for stop in range(1, len(rows) + 1):
        if (stop == len(rows) or stop - start == tr.EVAL_CHUNK
                or rows[stop][1].size != rows[start][1].size):
            part = rows[start:stop]
            yield [lineno for lineno, _ in part], np.stack([v for _, v in part])
            start = stop


def cmd_project(args) -> int:
    # each number flag obeys the config rule; the ranges that depend on the
    # vectors are checked once they are read, and the operators check nothing
    if args.z is not None:
        fl.number("--z", args.z)
    if args.rounds is not None:
        fl.number("--rounds", args.rounds, int, ">= 1")
    fl.number("--sharpness", args.sharpness, float, "> 0")
    if args.input is None:
        rows = _read_vectors(sys.stdin)
    else:
        if not os.path.exists(args.input):
            raise ConfigError(f"input file not found: {args.input}")
        with open(args.input) as handle:
            rows = _read_vectors(handle)
    if not rows:
        raise ConfigError("no input vectors")

    if args.operator == "matrix":
        if args.col_sums is None:
            raise ConfigError("matrix projection requires --col-sums")
        col_mass = []
        for tok in args.col_sums.split(","):
            try:
                col_mass.append(float(tok))
            except ValueError:
                # worded as argparse words a bad --z
                raise ConfigError(f"argument --col-sums: invalid float value: {tok!r}") from None
            fl.number("--col-sums", col_mass[-1])
        width = rows[0][1].size
        for lineno, row in rows:
            if row.size != width:
                raise ConfigError(f"line {lineno}: expected {width} columns, got {row.size}")
        # both constraint sets fix the matrix's total mass, so the column
        # masses must add up to the number of rows
        if len(col_mass) != width:
            raise ConfigError(f"expected {width} column masses")
        if min(col_mass) < 0:
            raise ConfigError("column masses must be nonnegative")
        total = np.asarray(col_mass).sum()
        if abs(total - len(rows)) > 1e-8:
            raise ConfigError(f"column masses sum to {total}, expected {len(rows)}")
        matrix = np.stack([row for _, row in rows])
        rounds = args.rounds if args.rounds is not None else pj.MATRIX_ROUNDS
        projected = pj.project_matrix_rows_cols(matrix, col_mass, rounds=rounds)
        for row in projected:
            print(_format_vector(row))
        if args.diagnostics:
            rows_res = pj.ProjectionResult(projected, 1.0)
            cols_res = pj.ProjectionResult(projected.T, col_mass)
            print(f"residual_rows={rows_res.residual_sum:.3e} "
                  f"residual_cols={cols_res.residual_sum:.3e}", file=sys.stderr)
        return EXIT_OK

    if args.z is None:
        raise ConfigError(f"operator {args.operator!r} requires --z")
    # every line's budget is checked before a line prints: the capped set's
    # once per length, in file order; the simplex's, which no length
    # changes, against the first line
    if args.operator == "simplex":
        if args.z <= 0.0:
            # no box caps here, so a mass above the dimension is still feasible
            raise ConfigError(f"line {rows[0][0]}: simplex mass must be finite and "
                              f"positive, got {args.z}")
    else:
        checked = set()
        for lineno, v in rows:
            if v.size not in checked:
                checked.add(v.size)
                try:
                    pj.check_budget(args.z, v.size)
                except pj.InfeasibleSpecError as err:
                    raise ConfigError(f"line {lineno}: {err}") from None
    rounds = args.rounds if args.rounds is not None else pj.DEFAULT_ROUNDS
    # each operator projects every row of a chunk to the bits it gets alone
    for linenos, block in _chunks(rows):
        if args.operator == "simplex":
            out = pj.project_simplex_exact(block, args.z)
        elif args.operator == "capped":
            out = pj.project_capped_exact(block, args.z)
        else:
            out = pj.project_capped_dykstra(dg.Var(dg.Tape(), block), args.z,
                                            rounds=rounds,
                                            sharpness=args.sharpness).values()
        for lineno, y in zip(linenos, out):
            print(_format_vector(y))
            if args.diagnostics:
                res = pj.ProjectionResult(y, args.z)
                print(
                    f"line {lineno}: residual_sum={res.residual_sum:.3e} "
                    f"residual_box={res.residual_box:.3e}",
                    file=sys.stderr,
                )
    return EXIT_OK


# small enough that finite differences over every parameter stay fast
_TOY_GRADCHECK = {
    "data": {
        "label_count": 5,
        "input_dim": 8,
        "synthetic_examples": 8,
        "min_words": 2,
        "max_words": 6,
        "modulus": 4,
    },
    "model": {
        "max_cardinality": 4,
        "feature_hidden": 4,
        "feature_dim": 3,
        "global_hidden": 4,
        "cardinality_hidden": 4,
    },
    "inference": {"steps": 2},
}


def cmd_gradcheck(args) -> int:
    fl.number("--tolerance", args.tolerance, float, ">= 0")
    cfg = load_run_config(args.config, args.set, base=_TOY_GRADCHECK)
    splits = _resolve_datasets(cfg)
    train_set = splits["train"]
    if len(train_set) == 0:
        raise ConfigError("data.fractions leave the train split empty")
    model = md.ScoreModel(_model_config(cfg, train_set))
    errors = tr.gradcheck(model, train_set.batch([0]), cfg.inference, cfg.loss)
    width = max(map(len, errors))
    for name, err in sorted(errors.items()):
        print(f"{name:<{width}}  rel_err={err:.3e}")
    worst = np.max(list(errors.values()))  # nan if any error is nan
    print(f"max_rel_error={worst:.3e}")
    if not worst <= args.tolerance:
        print(f"error: gradient mismatch {worst:.3e} exceeds {args.tolerance:.1e}",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cardproj",
                     description="Cardinality-constrained multi-label prediction.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_config(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config value, e.g. inference.steps=5")

    p_train = sub.add_parser("train", help="train a model from a config")
    add_config(p_train)
    p_train.add_argument("--checkpoint", default="checkpoint.npz",
                         help="where to write the trained model")
    p_train.add_argument("--metrics", help="metrics log file (default: stdout)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    add_config(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", default="dev",
                        choices=("train", "dev", "test", "all"))
    p_eval.add_argument("--variant", choices=inf.VARIANTS,
                        help="override the inference variant")
    p_eval.add_argument("--z", help="budget source: 'predictor' or 'fixed:<n>'")
    p_eval.set_defaults(func=cmd_eval)

    p_proj = sub.add_parser("project", help="run a projection operator on vectors")
    p_proj.add_argument("operator",
                        choices=("simplex", "capped", "dykstra", "matrix"))
    p_proj.add_argument("--z", type=float, help="mass budget")
    p_proj.add_argument("--rounds", type=int,
                        help=f"alternation rounds (default: {pj.DEFAULT_ROUNDS} for "
                             f"dykstra, {pj.MATRIX_ROUNDS} for matrix)")
    p_proj.add_argument("--sharpness", type=float, default=pj.DEFAULT_SHARPNESS,
                        help="soft surrogate sharpness (dykstra only)")
    p_proj.add_argument("--input", help="vector file, one per line (default: stdin)")
    p_proj.add_argument("--col-sums", dest="col_sums",
                        help="comma-separated column masses (matrix operator)")
    p_proj.add_argument("--diagnostics", action="store_true",
                        help="write residuals to stderr")
    p_proj.set_defaults(func=cmd_project)

    p_grad = sub.add_parser("gradcheck", help="compare gradients to finite differences")
    add_config(p_grad)
    p_grad.add_argument("--tolerance", type=float, default=1e-2)
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a non-finite result fails through the program's own checks, with
        # its exit code, so numpy's warnings would only say it twice
        with np.errstate(all="ignore"):
            return args.func(args)
    except tr.TrainingDivergedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
