"""The one rule every config field is checked by."""

import numpy as np
import pytest

from cardproj import fields as fl
from cardproj import inference as inf
from cardproj import model as md
from cardproj import training as tr


class TestNumber:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3)])
    def test_integers_and_numpy_integers_pass(self, value):
        fl.number("steps", value, int, ">= 0")

    @pytest.mark.parametrize("value", [0.5, 2, np.float64(0.5), np.float32(0.5), 10**400])
    def test_reals_pass(self, value):
        fl.number("rate", value, float, "> 0")

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "3", None, [1]])
    def test_non_numbers_fail(self, value):
        with pytest.raises(ValueError, match="^rate must be a number > 0, got "):
            fl.number("rate", value, float, "> 0")

    @pytest.mark.parametrize("value", [2.0, np.float64(2.0), 2.5])
    def test_an_integer_field_takes_no_float(self, value):
        with pytest.raises(ValueError, match="^steps must be an integer >= 0, got "):
            fl.number("steps", value, int, ">= 0")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, np.float32(np.inf)])
    def test_non_finite_fails_without_bounds(self, value):
        with pytest.raises(ValueError, match="^z must be a number, got "):
            fl.number("z", value)

    @pytest.mark.parametrize("value, ok", [(-0.1, False), (0.0, True), (0.99, True), (1.0, False)])
    def test_every_bound_holds(self, value, ok):
        if ok:
            fl.number("momentum", value, float, ">= 0", "< 1")
        else:
            with pytest.raises(ValueError, match=r"momentum must be a number >= 0 and < 1"):
                fl.number("momentum", value, float, ">= 0", "< 1")


class TestChoiceAndFlag:
    def test_choice(self):
        fl.choice("decode", "topz", ("threshold", "topz"))
        with pytest.raises(ValueError, match="decode must be one of"):
            fl.choice("decode", "round", ("threshold", "topz"))

    @pytest.mark.parametrize("value", [1, 0, np.bool_(True), "true", None])
    def test_flag_is_a_bool_only(self, value):
        with pytest.raises(ValueError, match="with_sc must be true or false"):
            fl.flag("with_sc", value)


class TestConfigsUseTheRule:
    def test_numpy_scalars_pass(self):
        cfg = inf.InferenceConfig(steps=np.int64(3), step_size=np.float64(0.2))
        assert cfg.steps == 3
        assert tr.TrainConfig(epochs=np.int64(2), batch_size=np.int32(4)).epochs == 2

    @pytest.mark.parametrize("build", [
        lambda: inf.InferenceConfig(step_size=np.inf),
        lambda: inf.InferenceConfig(sharpness=np.inf),
        lambda: inf.InferenceConfig(z_source=np.nan),
        lambda: tr.TrainConfig(epochs=1, seed=-1),
        lambda: tr.TrainConfig(epochs=1, learning_rate=True),
        lambda: md.ModelConfig(input_dim=2, label_count=3, max_cardinality=2, with_sc=1),
    ])
    def test_invalid_fields_fail(self, build):
        with pytest.raises(ValueError, match="must be"):
            build()
