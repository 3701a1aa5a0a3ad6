"""The benchmark's workloads: inputs, timed rounds, checks and metrics.

Both workloads run the same round of `cardproj` commands, called in-process
through `cardproj.cli.main`: `train`, `eval --split test`, then `project
capped` and `project dykstra` over vector files at the paper's label
counts.  They differ in the inference variant the model is trained with,
so every end-to-end and per-layer metric has a value on each of them.
Rounds are whole and identical, and repeat until the time is spent.  The
inputs are written again before every round, so set-up is sampled across
the run as well.  After the timed rounds the outputs of the last one are
checked (see checks.py).  Under tracing the same rounds run with the
per-layer spans of tracing.py installed.

A run reports the median of each timing over its rounds, set-up
included, scaled to the box's reference speed.  The box the benchmark was
written on is shared: neighbours slow all of its work, by up to 1.7x, for
stretches of seconds to minutes that can outlast a run.  So fixed
reference loops are timed just before and just after every timed command
(see `BoxSpeed`), and each wall time is scaled by how much slower than
nominal they ran at the time.  The unscaled least and median are
printed too, as lines before the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cardproj import cli  # noqa: E402
from cardproj import data as dt  # noqa: E402
from cardproj import inference as inf  # noqa: E402
from cardproj import model as md  # noqa: E402
from cardproj import training as tr  # noqa: E402
from cardproj.diffgraph import Tape  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

# the corpus of the reference round that test_f1 and test_card_mse come from
REFERENCE_SEED = 0

LABELS = 30
INPUT_WORDS = 40
MAX_CARDINALITY = 10
FRACTIONS = (0.5, 0.0, 0.5)  # train, dev, test
MIN_WORDS, MAX_WORDS = 5, 14
# the label counts of the paper's Bibtex and Delicious benchmarks
PROJECT_LABELS = (159, 983)

UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "eval_examples_per_s": "examples/s",
    "test_f1": "F1",
    "test_card_mse": "labels_sq",
    "capped_vectors_per_s": "vectors/s",
    "dykstra_vectors_per_s": "vectors/s",
    "peak_rss_mb": "MiB",
}

# per-layer metrics: name -> (what to read from a round's counters, span key);
# each has a value on both workloads, since both run every command
LAYER_METRICS = {
    "cli.train_self_s": ("self", "cli.train"),
    "cli.eval_self_s": ("self", "cli.eval"),
    "cli.project_self_s": ("self", "cli.project"),
    "data.load_s": ("self", "data.load"),
    "training.train_self_s": ("self", "training.train"),
    "training.metrics_pass_s": ("self", "training.metrics_pass"),
    "training.metrics_pass_total_s": ("total", "training.metrics_pass"),
    "training.evaluate_s": ("self", "training.evaluate"),
    "training.example_loss_s": ("self", "training.example_loss"),
    "training.optimizer_step_s": ("self", "training.optimizer_step"),
    "training.predict_s": ("self", "training.predict"),
    "inference.run_inference_s": ("self", "inference.run_inference"),
    "inference.run_inference_calls": ("calls", "inference.run_inference"),
    "inference.nodes_per_example": ("nodes", "inference.run_inference"),
    "model.unary_scores_s": ("self", "model.unary_scores"),
    "model.unary_scores_calls": ("calls", "model.unary_scores"),
    "model.cardinality_logits_s": ("self", "model.cardinality_logits"),
    "model.cardinality_logits_calls": ("calls", "model.cardinality_logits"),
    "model.score_grads_s": ("self", "model.score_grads"),
    "projections.dykstra_s": ("self", "projections.dykstra"),
    "projections.dykstra_calls": ("calls", "projections.dykstra"),
    "projections.capped_exact_s": ("self", "projections.capped_exact"),
    "projections.capped_exact_calls": ("calls", "projections.capped_exact"),
    "projections.residual_sum_max": ("residual", "residual_sum"),
    "projections.residual_box_max": ("residual", "residual_box"),
    "diffgraph.backward_s": ("self", "diffgraph.backward"),
    "diffgraph.backward_calls": ("calls", "diffgraph.backward"),
    "diffgraph.nodes_per_backward": ("nodes", "diffgraph.backward"),
    "diffgraph.leaf_calls": ("calls", "diffgraph.leaf"),
    "trace.round_s": ("wall", None),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("projections.residual"):
        return "labels"
    if "nodes_per" in name:
        return "nodes"
    return "count"


@dataclass(frozen=True)
class Sizes:
    """Make-up of a round: corpus, model, schedule and vector files."""

    examples: int = 40
    reference_examples: int = 300
    epochs: int = 2
    feature_hidden: int = 64
    feature_dim: int = 64
    global_hidden: int = 16
    cardinality_hidden: int = 96
    # vectors per file at each of PROJECT_LABELS, and files per label count
    vectors: tuple = (40, 10)
    files: int = 2


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    # lines printed before the result: unscaled timings and the box's speed
    notes: list = field(default_factory=list)


# The least times of the reference loops on the box the benchmark was
# written on (Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4), when nothing
# else ran.  The memory loop's is estimated from its least time relative to
# the interpreter loop's under load; either value sets only the scale.
NOMINAL_REFERENCE_S = 0.85e-3
NOMINAL_MEMORY_S = 0.78e-3


def reference_loop() -> float:
    """Seconds that a fixed mix of interpreter and small numpy work takes now.

    The mix is that of most of the program: Python arithmetic and short
    numpy calls on small arrays.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(15000):
        total += i * 0.5
    a = np.arange(500.0)
    for _ in range(200):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - start


def memory_loop() -> float:
    """Seconds that allocating, writing and reading 8 MB takes now."""
    start = time.perf_counter()
    a = np.ones(1_000_000)
    a *= 1.5
    float(a.sum())
    return time.perf_counter() - start


class BoxSpeed:
    """Scales wall times to the box's nominal speed, measured beside each.

    `scale(wall)` is called right after the timed work ends.  It times the
    reference loops (least of two each) and compares the mean of that and
    their times right before the work with their nominal times.  Most
    commands are scaled by the interpreter loop alone.  `project capped`,
    whose cost is a dense L x L table per vector, is scaled by the mean of
    both loops' slowdowns: in a 300-s probe under load that cut the scatter
    of its median between 30-round stretches by a third (3.6% against 5.3%),
    while the interpreter loop alone tracked the other commands best.  The
    loops are the benchmark's own code, so a change to the program leaves
    them alone.
    """

    def __init__(self):
        self.before = self._reference()
        self.slowdowns = []  # (interpreter, memory), one per timing

    @staticmethod
    def _reference() -> tuple:
        return (min(reference_loop(), reference_loop()) / NOMINAL_REFERENCE_S,
                min(memory_loop(), memory_loop()) / NOMINAL_MEMORY_S)

    def scale(self, wall: float, memory: bool = False) -> float:
        after = self._reference()
        slowdown = tuple(0.5 * (b + a) for b, a in zip(self.before, after))
        self.before = after
        self.slowdowns.append(slowdown)
        return wall / (0.5 * (slowdown[0] + slowdown[1]) if memory else slowdown[0])


def run_cli(argv, outcome: Outcome):
    """One `cardproj` command in-process; returns (stdout, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    outcome.attempted += 1
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # the run goes on; the command counts as failed
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    if code != 0:
        outcome.failed += 1
        print(f"cardproj {' '.join(argv)}: exit {code}\n{err.getvalue()}", file=sys.stderr)
    return out.getvalue(), wall


def timed_rounds(seconds: float, setup, one_round, speed: BoxSpeed | None, tracer=None):
    """Set up and run whole rounds while the next is expected to end in time.

    Returns the set-up times, one per round: (unscaled, scaled) lists.
    Without `speed` (under tracing) the times are not scaled.
    """
    setups, scaled, walls = [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        setup()
        setups.append(time.perf_counter() - t)
        scaled.append(speed.scale(setups[-1]) if speed else setups[-1])
        t = time.perf_counter()
        if tracer is None:
            one_round()
        else:
            with tracer.round():
                one_round()
        walls.append(time.perf_counter() - t)
        expected = statistics.median(walls) + statistics.median(setups)
        if time.perf_counter() - start + expected > seconds:
            return setups, scaled


def run_checks(check, *args) -> list:
    """A check's problems; an output it cannot even read is one too."""
    try:
        return check(*args)
    except Exception:  # a malformed output must not end the run unreported
        return [f"{check.__name__} raised:\n{traceback.format_exc()}"]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: tracing.Tracer) -> dict:
    """Per-layer figures of the fastest round; residuals are run maxima.

    Counts are the same in every round, so any round gives them.
    """
    fastest = min(tracer.rounds, key=lambda r: r.wall_s)
    out = {}
    for name, (kind, key) in LAYER_METRICS.items():
        if kind == "residual":
            out[name] = max(getattr(r, key) for r in tracer.rounds)
        elif kind == "wall":
            out[name] = fastest.wall_s
        elif kind == "nodes":
            out[name] = fastest.nodes[key] / fastest.calls[key]
        elif kind == "self":
            out[name] = fastest.self_s[key]
        elif kind == "total":
            out[name] = fastest.total_s[key]
        else:
            out[name] = fastest.calls[key]
    return out


# ---------------------------------------------------------------------------
# train and eval


def _run_config(variant: str, seed: int, corpus: Path, sizes: Sizes) -> dict:
    return {
        "seed": seed,
        "data": {
            "path": str(corpus),
            # fixed, so a small corpus that misses the last label or word
            # does not shrink the model
            "label_count": LABELS,
            "input_dim": INPUT_WORDS,
            "fractions": list(FRACTIONS),
        },
        "model": {
            "max_cardinality": MAX_CARDINALITY,
            "feature_hidden": sizes.feature_hidden,
            "feature_dim": sizes.feature_dim,
            "global_hidden": sizes.global_hidden,
            "cardinality_hidden": sizes.cardinality_hidden,
            "with_sc": variant == "sc",
        },
        "inference": {
            "variant": variant,
            "steps": 5,
            "step_size": 0.1,
            "momentum": 0.9,
            "proj_rounds": 2,
            "z_source": "predictor",
            "decode": "topz" if variant == "pc" else "threshold",
        },
        "loss": {"single_step": "soft_f1", "aux_cardinality_weight": 1.0},
        "optimizer": {
            "epochs": sizes.epochs,
            "batch_size": 16,
            "learning_rate": 0.1,
        },
    }


@dataclass(frozen=True)
class TrainFiles:
    config: dict
    config_path: Path
    checkpoint: Path
    log: Path

    def commands(self):
        return (
            ["train", "--config", str(self.config_path),
             "--checkpoint", str(self.checkpoint), "--metrics", str(self.log)],
            ["eval", "--config", str(self.config_path),
             "--checkpoint", str(self.checkpoint), "--split", "test"],
        )


def write_train_files(work: Path, tag: str, variant: str, seed: int, examples: int,
                      sizes: Sizes) -> TrainFiles:
    corpus = work / f"{tag}-corpus.txt"
    dataset = dt.generate_synthetic(
        examples, LABELS, INPUT_WORDS, seed=seed,
        min_words=MIN_WORDS, max_words=MAX_WORDS,
    )
    dt.save_sparse_multilabel(dataset, corpus)
    config = _run_config(variant, seed, corpus, sizes)
    config_path = work / f"{tag}-config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return TrainFiles(config, config_path, work / f"{tag}-model.npz",
                      work / f"{tag}-metrics.log")


_EVAL_SIZE = re.compile(r"^split=\S+ examples=(\d+) ", re.M)
_EVAL_F1 = re.compile(r"^loss=\S+ f1=(\S+) f1_label=\S+$", re.M)
_EVAL_MSE = re.compile(r"^card_mse_h=(\S+) ", re.M)


def parse_eval(text: str):
    """(examples, f1, card_mse_h) as printed by `cardproj eval`, or None."""
    found = [p.search(text) for p in (_EVAL_SIZE, _EVAL_F1, _EVAL_MSE)]
    if None in found:
        return None
    return int(found[0].group(1)), float(found[1].group(1)), float(found[2].group(1))


def check_train_outputs(files: TrainFiles, log_text: str, eval_text: str,
                        sizes: Sizes) -> list:
    """Checks on one train/eval round; replays predictions with the program."""
    cfg = files.config
    problems = checks.check_metrics_log(log_text, sizes.epochs, ("train",))
    printed = parse_eval(eval_text)
    if printed is None:
        return problems + [f"eval: unexpected output {eval_text!r}"]

    model = md.load_model(files.checkpoint)
    full = dt.load_sparse_multilabel(cfg["data"]["path"], LABELS, INPUT_WORDS)
    train_set, _, test_set = dt.split_dataset(full, cfg["data"]["fractions"], seed=cfg["seed"])
    infer = inf.InferenceConfig(**cfg["inference"])
    # cardproj eval decodes with the modal budget
    decode_cfg = replace(infer, z_mode="argmax")
    preds, counts = [], []
    for ex in test_set.examples:
        tm = md.TapedModel(model, Tape())
        traj = inf.run_inference(tm, ex.feature_indices, ex.feature_values, decode_cfg)
        relaxed = traj.final_values()
        decoded = inf.decode_labels(relaxed, decode_cfg.decode, z=traj.z_used)
        if decode_cfg.decode == "topz":
            problems += checks.check_topz(relaxed, traj.z_used, decoded)
        else:
            problems += checks.check_threshold(relaxed, decoded)
        preds.append(decoded)
        counts.append(md.predict_cardinality(tm, ex.feature_indices, ex.feature_values,
                                             mode="argmax"))
    truth = np.stack([test_set.target(i) for i in range(len(test_set))])
    if printed[0] != len(test_set):
        problems.append(f"eval: {printed[0]} examples printed, test split has {len(test_set)}")
    problems += checks.check_printed("eval f1", printed[1],
                                     checks.example_f1(np.stack(preds), truth))
    mse = float(np.mean((np.array(counts) - test_set.cardinalities()) ** 2))
    problems += checks.check_printed("eval card_mse_h", printed[2], mse)

    loss_cfg = tr.LossConfig(**cfg["loss"])
    example, target = train_set.examples[0], train_set.target(0)

    def loss_of(m):
        tm = md.TapedModel(m, Tape())
        loss, _ = tr.example_loss(tm, example, target, infer, loss_cfg)
        return tm, loss

    tm, loss = loss_of(model)
    tm.tape.backward(loss)
    grads = tm.grads()
    # the steepest coordinate of a few buffers along the whole pipeline
    analytic = {}
    for name in ("unary.w", "feature.w1", "cardinality.w2", "global.w1", "sc.weights"):
        if name in grads:
            index = np.unravel_index(int(np.argmax(np.abs(grads[name]))), grads[name].shape)
            analytic[(name, index)] = float(grads[name][index])

    def loss_at(name, index, delta):
        moved = model.copy()
        moved.params[name][index] += delta
        return float(loss_of(moved)[1].value)

    return problems + checks.check_gradient(loss_at, analytic)


# ---------------------------------------------------------------------------
# project capped and project dykstra


@dataclass(frozen=True)
class VectorFile:
    path: Path
    vectors: np.ndarray
    z: int

    def commands(self):
        return {op: ["project", op, "--z", str(self.z), "--input", str(self.path)]
                for op in ("capped", "dykstra")}


def write_vector_files(work: Path, seed: int, sizes: Sizes) -> list:
    rng = np.random.default_rng(seed)
    files = []
    for L, n in zip(PROJECT_LABELS, sizes.vectors):
        for j in range(sizes.files):
            vectors = rng.normal(size=(n, L))
            # budgets from the planted count range 1 + (words mod 10)
            z = int(rng.integers(1, MAX_CARDINALITY + 1))
            path = work / f"vectors-L{L}-{j}.txt"
            with open(path, "w") as handle:
                for row in vectors:
                    handle.write(" ".join(f"{x:.17g}" for x in row) + "\n")
            files.append(VectorFile(path, vectors, z))
    return files


def parse_vectors(text: str) -> np.ndarray:
    return np.array([[float(tok) for tok in line.split()] for line in text.splitlines()])


def check_project_outputs(files: list, outputs: dict) -> list:
    problems = []
    for f in files:
        try:
            capped = parse_vectors(outputs[("capped", f.path)])
            soft = parse_vectors(outputs[("dykstra", f.path)])
        except ValueError as err:
            problems.append(f"project: unparsable output for {f.path.name}: {err}")
            continue
        problems += checks.check_capped(f.vectors, f.z, capped)
        problems += checks.check_dykstra(f.vectors, f.z, soft)
    return problems


def printed_residuals(files: list, outputs: dict) -> tuple[float, float]:
    """Worst sum and box residuals of the printed `dykstra` outputs."""
    worst = [0.0, 0.0]
    for f in files:
        found = checks.residuals(parse_vectors(outputs[("dykstra", f.path)]), f.z)
        worst = [max(a, b) for a, b in zip(worst, found)]
    return tuple(worst)


# ---------------------------------------------------------------------------
# a workload


def reference_quality(variant: str, work: Path, sizes: Sizes, outcome: Outcome):
    """(test F1, card MSE) of one untimed train/eval round on a fixed corpus.

    The corpus is the same whatever the seed, so that any change to what
    training learns moves these figures; None when the round failed or a
    check found a problem (recorded in `outcome`).
    """
    reference = write_train_files(work, "reference", variant, REFERENCE_SEED,
                                  sizes.reference_examples, sizes)
    ref_train, ref_eval = reference.commands()
    run_cli(ref_train, outcome)
    ref_text, _ = run_cli(ref_eval, outcome)
    if outcome.failed:
        return None
    outcome.problems += run_checks(check_train_outputs, reference,
                                   reference.log.read_text(), ref_text, sizes)
    if outcome.problems:
        return None
    return parse_eval(ref_text)[1:]


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        sizes: Sizes = Sizes()) -> Outcome:
    variant = workload  # each workload is named after its inference variant
    outcome = Outcome()

    def setup():
        return (write_train_files(work, "run", variant, seed, sizes.examples, sizes),
                write_vector_files(work, seed, sizes))

    train_files, vector_files = setup()
    train_cmd, eval_cmd = train_files.commands()
    # per round, the wall time of train, eval and each operator's commands
    # summed over the vector files: unscaled and scaled
    walls = {cmd: [] for cmd in ("train", "eval", "capped", "dykstra")}
    scaled = {cmd: [] for cmd in walls}
    eval_texts, logs = [], []
    outputs, first = {}, {}
    # traced rounds report unscaled per-layer times, and `trace.round_s`
    # must not include the reference loops
    speed = None if trace else BoxSpeed()

    def timed(argv, memory=False):
        text, wall = run_cli(argv, outcome)
        return text, wall, speed.scale(wall, memory) if speed else wall

    def one_round():
        _, wall, fair = timed(train_cmd)
        walls["train"].append(wall)
        scaled["train"].append(fair)
        logs.append(train_files.log.read_text() if train_files.log.exists() else "")
        text, wall, fair = timed(eval_cmd)
        walls["eval"].append(wall)
        scaled["eval"].append(fair)
        eval_texts.append(text)
        for op in ("capped", "dykstra"):
            walls[op].append(0.0)
            scaled[op].append(0.0)
            for f in vector_files:
                text, wall, fair = timed(f.commands()[op], memory=op == "capped")
                walls[op][-1] += wall
                scaled[op][-1] += fair
                outputs[(op, f.path)] = text
                first.setdefault((op, f.path), text)

    tracer = tracing.Tracer() if trace else None
    with tracer.installed() if trace else contextlib.nullcontext():
        setups, scaled["setup"] = timed_rounds(seconds, setup, one_round, speed, tracer)
    walls["setup"] = setups
    peak = _peak_rss_mb()

    if outcome.failed:
        return outcome
    if len(set(eval_texts)) > 1 or len(set(logs)) > 1 or outputs != first:
        outcome.problems.append("rounds of identical commands printed different results")
    outcome.problems += run_checks(check_train_outputs, train_files, logs[-1],
                                   eval_texts[-1], sizes)
    outcome.problems += run_checks(check_project_outputs, vector_files, outputs)
    if outcome.problems:
        return outcome

    if trace:
        metrics = layer_metrics(tracer)
        # guard the printed outputs too, not only ProjectionResult
        res_sum, res_box = printed_residuals(vector_files, outputs)
        metrics["projections.residual_sum_max"] = max(
            metrics["projections.residual_sum_max"], res_sum)
        metrics["projections.residual_box_max"] = max(
            metrics["projections.residual_box_max"], res_box)
        outcome.metrics = metrics
        return outcome

    quality = reference_quality(variant, work, sizes, outcome)
    if quality is None:
        return outcome
    n_train = int(FRACTIONS[0] * sizes.examples)  # the cut of data.split_dataset
    n_test = parse_eval(eval_texts[-1])[0]
    n_vectors = sum(len(f.vectors) for f in vector_files)
    items = {"train": sizes.epochs * n_train, "eval": n_test,
             "capped": n_vectors, "dykstra": n_vectors}
    median = {cmd: statistics.median(times) for cmd, times in scaled.items()}
    for cmd, times in walls.items():
        outcome.notes.append(
            f"{cmd}: {len(times)} rounds, unscaled least {min(times):.6g} s, "
            f"median {statistics.median(times):.6g} s, scaled median {median[cmd]:.6g} s")
    for i, loop in enumerate(("interpreter", "memory")):
        q = statistics.quantiles([pair[i] for pair in speed.slowdowns], n=4)
        outcome.notes.append(
            f"box slowdown against nominal, {loop} loop: quartiles {q[0]:.3f} "
            f"{q[1]:.3f} {q[2]:.3f} over {len(speed.slowdowns)} timings")
    outcome.metrics = {
        "setup_s": median["setup"],
        "train_examples_per_s": items["train"] / median["train"],
        "eval_examples_per_s": items["eval"] / median["eval"],
        "test_f1": quality[0],
        "test_card_mse": quality[1],
        "capped_vectors_per_s": items["capped"] / median["capped"],
        "dykstra_vectors_per_s": items["dykstra"] / median["dykstra"],
        "peak_rss_mb": peak,
    }
    return outcome
