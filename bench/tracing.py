"""Per-layer spans around cardproj's public functions, installed from outside.

`Tracer.installed()` replaces a fixed list of module functions and methods
with wrappers that time each call and count it, then puts the originals
back.  Callers reach these functions through module attributes
(``md.unary_scores``, ``pj.project_capped_dykstra``, ``tape.backward``), so
the wrappers see every call without any change to the program.

A span's self time is its duration minus the time spent in the traced spans
it called.  Spans are kept per round in memory: `round()` starts a fresh
set of counters and appends them to `rounds` when the round ends.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

from cardproj import cli
from cardproj import data as dt
from cardproj import diffgraph as dg
from cardproj import inference as inf
from cardproj import model as md
from cardproj import projections as pj
from cardproj import training as tr


class Counters:
    """What the spans of one round add up to."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.nodes = defaultdict(int)
        self.residual_sum = 0.0
        self.residual_box = 0.0
        self.wall_s = 0.0


def _evaluate_key(parent):
    # the per-epoch metrics pass is evaluate() called from inside train()
    return "training.metrics_pass" if parent == "training.train" else "training.evaluate"


class Tracer:
    def __init__(self):
        self.rounds = []
        self._now = Counters()
        self._stack = []

    def _span(self, key, fn, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = key(stack[-1][0] if stack else None) if callable(key) else key
            frame = (name, [0.0])
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                now = self._now
                now.self_s[name] += elapsed - frame[1][0]
                now.total_s[name] += elapsed
                now.calls[name] += 1
                if stack:
                    stack[-1][1][0] += elapsed
            if after is not None:
                after(name, args, result)
            return result

        return traced

    def _count(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._now.calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _tape_nodes(self, name, args, result):
        # run_inference(tm, ...) and Tape.backward(self, ...) both see the tape
        tape = args[0].tape if name == "inference.run_inference" else args[0]
        self._now.nodes[name] += len(tape)

    def _projection(self, name, args, result):
        now = self._now
        now.residual_sum = max(now.residual_sum, result.residual_sum)
        now.residual_box = max(now.residual_box, result.residual_box)

    def _patches(self):
        span = self._span
        return [
            (cli, "cmd_train", span("cli.train", cli.cmd_train)),
            (cli, "cmd_eval", span("cli.eval", cli.cmd_eval)),
            (cli, "cmd_project", span("cli.project", cli.cmd_project)),
            (dt, "load_sparse_multilabel", span("data.load", dt.load_sparse_multilabel)),
            (dt, "split_dataset", span("data.load", dt.split_dataset)),
            (tr, "train", span("training.train", tr.train)),
            (tr, "evaluate", span(_evaluate_key, tr.evaluate)),
            (tr, "predict", span("training.predict", tr.predict)),
            (tr, "example_loss", span("training.example_loss", tr.example_loss)),
            (tr.AdaGrad, "step", span("training.optimizer_step", tr.AdaGrad.step)),
            (inf, "run_inference",
             span("inference.run_inference", inf.run_inference, self._tape_nodes)),
            (md, "unary_scores", span("model.unary_scores", md.unary_scores)),
            (md, "cardinality_logits",
             span("model.cardinality_logits", md.cardinality_logits)),
            # the gradients of the global and the sc bucket score: only the
            # first is used under pc, both under sc
            (md, "grad_global_score", span("model.score_grads", md.grad_global_score)),
            (md, "grad_sc_score", span("model.score_grads", md.grad_sc_score)),
            (pj, "project_capped_dykstra",
             span("projections.dykstra", pj.project_capped_dykstra, self._projection)),
            (pj, "project_capped_exact",
             span("projections.capped_exact", pj.project_capped_exact)),
            (dg.Tape, "backward",
             span("diffgraph.backward", dg.Tape.backward, self._tape_nodes)),
            # Tape.constant goes through Tape.leaf, so this counts both
            (dg.Tape, "leaf", self._count("diffgraph.leaf", dg.Tape.leaf)),
        ]

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def round(self):
        self._now = Counters()
        start = perf_counter()
        try:
            yield self._now
        finally:
            self._now.wall_s = perf_counter() - start
            self.rounds.append(self._now)
