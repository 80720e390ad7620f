"""Optimizer recurrence and schedule tests; expectations hand-evaluated
with the module's fixed constants, or with the constants patched to plain
SGD (no momentum, dampening or weight decay, and no decay)."""

import numpy as np
import pytest

from pixpoint import optim, pipeline
from pixpoint.errors import InvalidInput, NonFiniteGradient, ShapeError
from pixpoint.optim import OptimState, lr_schedule, sgd_step


@pytest.fixture
def plain(monkeypatch):
    for name, value in (("MOMENTUM", 0.0), ("DAMPENING", 0.0), ("WEIGHT_DECAY", 0.0), ("GAMMA", 1.0)):
        monkeypatch.setattr(optim, name, value)


class TestSgdStep:
    def test_plain_sgd(self, plain):
        p = {"w": np.array([1.0])}
        sgd_step(p, {"w": np.array([0.5])}, OptimState(), 0.1)
        assert p["w"][0] == pytest.approx(0.95, abs=1e-15)

    def test_first_step_with_weight_decay(self):
        # g = 1 + 0.004*1 = 1.004; buf = g; p' = 1 - 0.1*1.004 = 0.8996
        p = {"w": np.array([1.0])}
        sgd_step(p, {"w": np.array([1.0])}, OptimState(), 0.1)
        assert p["w"][0] == pytest.approx(0.8996, abs=1e-15)

    def test_zero_lr_keeps_params_bit_identical(self):
        rng = np.random.default_rng(0)
        p = {"w": rng.normal(size=(4, 3))}
        before = p["w"].copy()
        state = OptimState()
        for _ in range(3):
            sgd_step(p, {"w": rng.normal(size=(4, 3))}, state, 0.0)
        assert np.array_equal(p["w"], before)
        assert state.step == 3

    def test_momentum_recurrence_hand_evaluated(self):
        # two steps at lr 0.1, grads 1 then 2:
        # g1 = 1.004, buf1 = g1 (first step), p1 = 1 - 0.1004 = 0.8996
        # g2 = 2 + 0.004*0.8996 = 2.0035984
        # buf2 = 0.9*1.004 + 0.9*2.0035984 = 2.70683856
        # p2 = 0.8996 - 0.270683856 = 0.628916144
        p = {"w": np.array([1.0])}
        state = OptimState()
        sgd_step(p, {"w": np.array([1.0])}, state, 0.1)
        assert p["w"][0] == pytest.approx(0.8996, abs=1e-15)
        sgd_step(p, {"w": np.array([2.0])}, state, 0.1)
        assert p["w"][0] == pytest.approx(0.628916144, abs=1e-15)

    def test_update_linear_in_gradient(self):
        def run(scale):
            p = {"w": np.array([0.0])}
            sgd_step(p, {"w": np.array([scale])}, OptimState(), 0.1)
            return p["w"][0]

        assert run(2.0) == pytest.approx(2 * run(1.0), abs=1e-15)

    def test_matches_vanilla_descent_without_momentum(self, plain):
        rng = np.random.default_rng(1)
        p = {"w": rng.normal(size=5)}
        manual = p["w"].copy()
        state = OptimState()
        for _ in range(4):
            g = rng.normal(size=5)
            sgd_step(p, {"w": g.copy()}, state, 0.1)
            manual -= 0.1 * g
            assert np.allclose(p["w"], manual, atol=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            sgd_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, OptimState(), 0.1)

    @pytest.mark.parametrize("param, grad", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_dtype_mismatch_raises(self, param, grad):
        p = {"w": np.zeros(3, dtype=param)}
        with pytest.raises(ShapeError, match="dtype"):
            sgd_step(p, {"w": np.ones(3, dtype=grad)}, OptimState(), 0.1)
        assert not p["w"].any()

    def test_float32_updates_in_float32(self):
        # the update is the float32 evaluation of the float64 recurrence
        rng = np.random.default_rng(2)
        p = {"w": rng.normal(size=6).astype(np.float32)}
        wide = {"w": p["w"].astype(np.float64)}
        state, state_wide = OptimState(), OptimState()
        for _ in range(3):
            g = rng.normal(size=6).astype(np.float32)
            sgd_step(p, {"w": g}, state, 0.1)
            sgd_step(wide, {"w": g.astype(np.float64)}, state_wide, 0.1)
        assert p["w"].dtype == np.float32 and state.buffers["w"].dtype == np.float32
        assert np.allclose(p["w"], wide["w"], rtol=0.0, atol=8 * np.finfo(np.float32).eps)

    def test_non_finite_gradient_raises(self):
        with pytest.raises(NonFiniteGradient):
            sgd_step({"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])}, OptimState(), 0.1)


class TestSchedule:
    def test_initial(self):
        assert lr_schedule(0, 0.01) == 0.01

    def test_one_decay(self):
        assert lr_schedule(100, 0.01) == pytest.approx(0.0099, abs=1e-15)

    def test_floor_behaviour(self):
        got = lr_schedule(250, 0.01)
        assert got == pytest.approx(0.01 * 0.99**2, abs=1e-15)

    def test_non_increasing(self):
        values = [lr_schedule(s, 0.5) for s in range(1000)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]

    def test_config_validation(self):
        # the schedule's one setting is each stage's lr0; a negative or
        # NaN one is refused (inf is the case below)
        for config in (pipeline.Stage1Config, pipeline.Stage2Config):
            for lr0 in (-1.0, np.nan):
                with pytest.raises(InvalidInput, match="^lr0 must be finite and nonnegative"):
                    config(lr0=lr0)
            assert config(lr0=0.0).lr0 == 0.0

    @pytest.mark.parametrize("field, value", [("lr0", np.inf)])
    def test_config_rejects_non_finite_rates_and_non_int_decay_every(self, field, value):
        # lr0 is the one rate left to set; an infinite one was accepted and
        # then wrote NaN or -inf parameters
        for config in (pipeline.Stage1Config, pipeline.Stage2Config):
            with pytest.raises(InvalidInput, match=f"^{field} must be"):
                config(**{field: value})
