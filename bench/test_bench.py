"""Fast test of the benchmark: every workload at a tiny size, and every check
rejecting a corrupted output.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads as wl

BENCH = Path(__file__).resolve().parent

TINY = wl.Sizes(
    examples=24, reference_examples=24, epochs=1,
    feature_hidden=8, feature_dim=8, global_hidden=4, cardinality_hidden=8,
    vectors=(3, 2), files=1,
)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _tiny(name, trace, tmp_path):
    work = tmp_path / f"{name}-{int(trace)}"
    work.mkdir(parents=True)
    return wl.run(name, seed=3, seconds=0.01, trace=trace, work=work, sizes=TINY)


def test_workloads_match_the_manifest():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_reports_every_end_to_end_metric(name, tmp_path):
    outcome = _tiny(name, False, tmp_path)
    assert outcome.failed == 0 and outcome.attempted > 0
    assert outcome.problems == []
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(outcome.metrics) == set(units)
    for metric, value in outcome.metrics.items():
        assert wl.UNITS[metric] == units[metric]
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    first = _tiny(name, True, tmp_path / "a")
    second = _tiny(name, True, tmp_path / "b")
    assert first.problems == [] and first.failed == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(first.metrics) == set(units) == set(wl.LAYER_METRICS)
    for metric, value in first.metrics.items():
        assert wl.layer_unit(metric) == units[metric]
        if metric.endswith("_s"):
            # every span is entered on every workload
            assert value > 0, metric
        else:
            assert first.metrics[metric] == second.metrics[metric], metric


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# each check rejects a corrupted output


def test_capped_check_rejects_a_shift():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(4, 159))
    good = checks.bisect_capped(vectors, 5.0)
    assert checks.check_capped(vectors, 5.0, good) == []
    assert checks.check_capped(vectors, 5.0, good + 1e-3)


def test_dykstra_check_rejects_infeasible_outputs():
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(3, 983))
    good = checks.bisect_capped(vectors, 4.0)
    assert checks.check_dykstra(vectors, 4.0, good) == []
    negative = good.copy()
    negative[0, 0] = -1e-3
    assert checks.check_dykstra(vectors, 4.0, negative)
    assert checks.check_dykstra(vectors, 4.0, good * 1.05)
    over = good.copy()
    over[1, np.argmax(over[1])] = 1.01
    assert checks.check_dykstra(vectors, 4.0, over)


def test_topz_check_rejects_an_extra_or_wrong_label():
    relaxed = np.array([0.9, 0.1, 0.7, 0.3, 0.5])
    good = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    assert checks.check_topz(relaxed, 2.2, good) == []
    assert checks.check_topz(relaxed, 2.2, good + np.array([0, 0, 0, 0, 1.0]))
    assert checks.check_topz(relaxed, 2.2, np.array([1.0, 0.0, 0.0, 0.0, 1.0]))


def test_threshold_check_rejects_a_flipped_label():
    relaxed = np.array([0.9, 0.1, 0.5])
    assert checks.check_threshold(relaxed, np.array([1.0, 0.0, 1.0])) == []
    assert checks.check_threshold(relaxed, np.array([1.0, 1.0, 1.0]))


def test_printed_f1_check_rejects_a_wrong_score():
    preds = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    truth = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    f1 = checks.example_f1(preds, truth)
    assert f1 == pytest.approx((0.5 + 1.0) / 2)
    assert checks.check_printed("f1", round(f1, 6), f1) == []
    assert checks.check_printed("f1", round(f1, 6) + 1e-3, f1)


LOG = (
    "epoch=0 split=train loss=2.400000 f1=0.100000 f1_label=0.100000 card_mse=17.000000\n"
    "epoch=1 split=train loss=1.800000 f1=0.250000 f1_label=0.110000 card_mse=9.000000\n"
)


@pytest.mark.parametrize("bad", [
    LOG.replace("loss=1.800000", "loss=nan"),
    LOG.replace("f1=0.250000", "f1=1.250000"),
    LOG.replace("loss=1.800000", "loss=2.500000"),
    LOG.replace("card_mse=9.000000", "cardmse=9.000000"),
    LOG.replace("epoch=1", "epoch=2"),
    LOG.splitlines()[0] + "\n",
])
def test_metrics_log_check_rejects_a_bad_log(bad):
    assert checks.check_metrics_log(LOG, 1, ("train",)) == []
    assert checks.check_metrics_log(bad, 1, ("train",))


def test_gradient_check_rejects_a_wrong_derivative():
    weights = {"w": np.array([0.3, -1.2, 2.0])}

    def loss_at(name, index, delta):
        w = weights[name].copy()
        w[index] += delta
        return float(np.sum(np.sin(w) * w))

    def exact(i):
        w = weights["w"][i]
        return float(np.cos(w) * w + np.sin(w))

    analytic = {("w", (i,)): exact(i) for i in range(3)}
    assert checks.check_gradient(loss_at, analytic) == []
    analytic[("w", (1,))] *= 1.01
    assert checks.check_gradient(loss_at, analytic)
