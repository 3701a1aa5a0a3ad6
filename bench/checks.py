"""Correctness checks on cardproj's outputs, written apart from the program.

Every check recomputes what the output must be, or a property it must have,
with its own arithmetic: a row-wise bisection for the capped projection, a
plain sort for budgeted decoding, the F1 formula for the printed scores, a
regular expression for the metrics-log schema and a central finite
difference for gradients.  None compares against a stored copy of earlier
output.  Each check returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import math
import re

import numpy as np

# Feasibility a soft Dykstra projection with the default 2 rounds and
# sharpness 20 must keep on N(0, 1) inputs, by label count.  The sum
# tolerance is about twice the worst residual seen at these sizes (0.057);
# a faster projection must not need a wider one.
DYKSTRA_SUM_TOL = {159: 0.1, 983: 0.1}
DYKSTRA_BOX_TOL = 1e-3

CAPPED_TOL = 1e-8
GRADIENT_TOL = 1e-3
# `cardproj eval` prints six decimals
PRINTED_TOL = 5e-7 + 1e-12

LOG_LINE = re.compile(
    r"^epoch=(\d+) split=(train|dev) loss=(\S+) f1=(\S+) "
    r"f1_label=(\S+) card_mse=(\S+)$"
)


def bisect_capped(vectors: np.ndarray, z: float, iterations: int = 200) -> np.ndarray:
    """Rows of clip(v - theta, 0, 1) with theta solving sum = z, by bisection."""
    lo = vectors.min(axis=1) - 1.0
    hi = vectors.max(axis=1)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        mass = np.clip(vectors - mid[:, None], 0.0, 1.0).sum(axis=1)
        above = mass >= z
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.clip(vectors - (0.5 * (lo + hi))[:, None], 0.0, 1.0)


def check_capped(vectors: np.ndarray, z: float, outputs: np.ndarray) -> list:
    if outputs.shape != vectors.shape:
        return [f"capped: output shape {outputs.shape} != input {vectors.shape}"]
    gap = float(np.abs(outputs - bisect_capped(vectors, z)).max())
    if not gap <= CAPPED_TOL:
        return [f"capped: L={vectors.shape[1]} z={z}: {gap:.3e} from bisection"]
    return []


def check_dykstra(vectors: np.ndarray, z: float, outputs: np.ndarray) -> list:
    L = vectors.shape[1]
    if outputs.shape != vectors.shape:
        return [f"dykstra: output shape {outputs.shape} != input {vectors.shape}"]
    if not np.all(np.isfinite(outputs)):
        return [f"dykstra: L={L} z={z}: non-finite output"]
    problems = []
    if outputs.min() < 0.0:
        problems.append(f"dykstra: L={L} z={z}: negative output {outputs.min():.3e}")
    sum_res = float(np.abs(outputs.sum(axis=1) - z).max())
    if not sum_res <= DYKSTRA_SUM_TOL[L]:
        problems.append(f"dykstra: L={L} z={z}: sum residual {sum_res:.3e}")
    box_res = float(max(0.0, (outputs - 1.0).max()))
    if not box_res <= DYKSTRA_BOX_TOL:
        problems.append(f"dykstra: L={L} z={z}: box residual {box_res:.3e}")
    return problems


def residuals(outputs: np.ndarray, z: float) -> tuple[float, float]:
    """Worst |sum(y) - z| and worst excursion outside [0, 1] over rows."""
    box = max(0.0, float(-outputs.min()), float((outputs - 1.0).max()))
    return float(np.abs(outputs.sum(axis=1) - z).max()), box


def check_topz(relaxed: np.ndarray, z: float, decoded: np.ndarray) -> list:
    """`decoded` activates the round(z) largest coordinates of `relaxed`."""
    k = int(round(float(z)))
    if not np.all((decoded == 0.0) | (decoded == 1.0)):
        return ["topz: decoded vector is not binary"]
    if int(decoded.sum()) != k:
        return [f"topz: {int(decoded.sum())} labels active, budget {z} rounds to {k}"]
    if k in (0, relaxed.size):
        return []
    ranked = sorted(relaxed.tolist(), reverse=True)
    cut = ranked[k - 1]
    chosen = relaxed[decoded == 1.0]
    rest = relaxed[decoded == 0.0]
    if chosen.min() < cut or rest.max() > cut:
        return [f"topz: active labels are not the top {k} coordinates"]
    return []


def check_threshold(relaxed: np.ndarray, decoded: np.ndarray) -> list:
    if not np.array_equal(decoded, (relaxed >= 0.5).astype(np.float64)):
        return ["threshold: decoded vector differs from relaxed >= 0.5"]
    return []


def example_f1(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Mean over examples of 2|p & t| / (|p| + |t|), 1 when both are empty."""
    scores = []
    for p, t in zip(predictions, truth):
        both = float((p * t).sum())
        size = float(p.sum() + t.sum())
        scores.append(1.0 if size == 0.0 else 2.0 * both / size)
    return sum(scores) / len(scores)


def check_printed(name: str, printed: float, recomputed: float) -> list:
    if not abs(printed - recomputed) <= PRINTED_TOL:
        return [f"{name}: printed {printed!r}, recomputed {recomputed!r}"]
    return []


def check_metrics_log(text: str, epochs: int, splits: tuple) -> list:
    """Schema, finiteness and ranges of a metrics log, and a falling train loss.

    The log holds one line per epoch 0..epochs and split, in that order.
    """
    lines = text.splitlines()
    expected = [(e, s) for e in range(epochs + 1) for s in splits]
    if len(lines) != len(expected):
        return [f"log: {len(lines)} lines, expected {len(expected)}"]
    problems = []
    train_loss = {}
    for line, (epoch, split) in zip(lines, expected):
        match = LOG_LINE.match(line)
        if match is None:
            problems.append(f"log: bad line {line!r}")
            continue
        if (int(match.group(1)), match.group(2)) != (epoch, split):
            problems.append(f"log: expected epoch={epoch} split={split}: {line!r}")
            continue
        try:
            loss, f1, f1_label, card_mse = (float(g) for g in match.groups()[2:])
        except ValueError:
            problems.append(f"log: unparsable value in {line!r}")
            continue
        if not all(math.isfinite(v) for v in (loss, f1, f1_label, card_mse)):
            problems.append(f"log: non-finite value in {line!r}")
        elif not (0.0 <= f1 <= 1.0 and 0.0 <= f1_label <= 1.0 and card_mse >= 0.0):
            problems.append(f"log: value out of range in {line!r}")
        if split == "train":
            train_loss[epoch] = loss
    if not problems and not train_loss[epochs] < train_loss[0]:
        problems.append(
            f"log: train loss {train_loss[epochs]} at epoch {epochs} "
            f"is not below {train_loss[0]} at epoch 0"
        )
    return problems


def check_gradient(loss_at, analytic: dict, step: float = 1e-5) -> list:
    """Central differences against analytic gradients, coordinate by coordinate.

    ``analytic`` maps (buffer, index) to the analytic derivative;
    ``loss_at(buffer, index, delta)`` is the loss with that one parameter
    moved by ``delta``.
    """
    problems = []
    for (name, index), grad in analytic.items():
        fd = (loss_at(name, index, step) - loss_at(name, index, -step)) / (2.0 * step)
        rel = abs(grad - fd) / max(abs(grad), abs(fd), 1e-6)
        if not rel <= GRADIENT_TOL:
            problems.append(
                f"gradient: {name}{list(index)} analytic {grad:.6e} vs "
                f"finite difference {fd:.6e} (relative {rel:.1e})"
            )
    return problems
