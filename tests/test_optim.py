"""Optimizer recurrence and schedule tests; expectations hand-evaluated."""

import numpy as np
import pytest

from pixpoint.errors import InvalidInput, NonFiniteGradient, ShapeError
from pixpoint.optim import OptimConfig, OptimState, lr_schedule, sgd_step


def cfg(**kw):
    base = dict(lr0=0.1, momentum=0.0, dampening=0.0, weight_decay=0.0, gamma=1.0, decay_every=100)
    base.update(kw)
    return OptimConfig(**base)


class TestSgdStep:
    def test_plain_sgd(self):
        p = {"w": np.array([1.0])}
        sgd_step(p, {"w": np.array([0.5])}, OptimState(), cfg())
        assert p["w"][0] == pytest.approx(0.95, abs=1e-15)

    def test_first_step_with_weight_decay(self):
        # g = 1 + 0.004*1 = 1.004; buf = g; p' = 1 - 0.1*1.004 = 0.8996
        p = {"w": np.array([1.0])}
        sgd_step(p, {"w": np.array([1.0])}, OptimState(), cfg(weight_decay=0.004, momentum=0.9, dampening=0.1))
        assert p["w"][0] == pytest.approx(0.8996, abs=1e-15)

    def test_zero_lr_keeps_params_bit_identical(self):
        rng = np.random.default_rng(0)
        p = {"w": rng.normal(size=(4, 3))}
        before = p["w"].copy()
        state = OptimState()
        for _ in range(3):
            sgd_step(p, {"w": rng.normal(size=(4, 3))}, state, cfg(lr0=0.0, momentum=0.9))
        assert np.array_equal(p["w"], before)
        assert state.step == 3

    def test_momentum_recurrence_hand_evaluated(self):
        # two steps, momentum 0.5, dampening 0.2, lr 0.1, grads 1 then 2:
        # buf1 = 1 (first step), p1 = 1 - 0.1 = 0.9
        # buf2 = 0.5*1 + 0.8*2 = 2.1, p2 = 0.9 - 0.21 = 0.69
        p = {"w": np.array([1.0])}
        state = OptimState()
        c = cfg(momentum=0.5, dampening=0.2)
        sgd_step(p, {"w": np.array([1.0])}, state, c)
        assert p["w"][0] == pytest.approx(0.9, abs=1e-15)
        sgd_step(p, {"w": np.array([2.0])}, state, c)
        assert p["w"][0] == pytest.approx(0.69, abs=1e-15)

    def test_update_linear_in_gradient(self):
        def run(scale):
            p = {"w": np.array([0.0])}
            sgd_step(p, {"w": np.array([scale])}, OptimState(), cfg())
            return p["w"][0]

        assert run(2.0) == pytest.approx(2 * run(1.0), abs=1e-15)

    def test_matches_vanilla_descent_without_momentum(self):
        rng = np.random.default_rng(1)
        p = {"w": rng.normal(size=5)}
        manual = p["w"].copy()
        state = OptimState()
        for _ in range(4):
            g = rng.normal(size=5)
            sgd_step(p, {"w": g.copy()}, state, cfg())
            manual -= 0.1 * g
            assert np.allclose(p["w"], manual, atol=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            sgd_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, OptimState(), cfg())

    @pytest.mark.parametrize("param, grad", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_dtype_mismatch_raises(self, param, grad):
        p = {"w": np.zeros(3, dtype=param)}
        with pytest.raises(ShapeError, match="dtype"):
            sgd_step(p, {"w": np.ones(3, dtype=grad)}, OptimState(), cfg())
        assert not p["w"].any()

    def test_float32_updates_in_float32(self):
        # the update is the float32 evaluation of the float64 recurrence
        rng = np.random.default_rng(2)
        p = {"w": rng.normal(size=6).astype(np.float32)}
        wide = {"w": p["w"].astype(np.float64)}
        state, state_wide = OptimState(), OptimState()
        c = cfg(weight_decay=0.004, momentum=0.9, dampening=0.1)
        for _ in range(3):
            g = rng.normal(size=6).astype(np.float32)
            sgd_step(p, {"w": g}, state, c)
            sgd_step(wide, {"w": g.astype(np.float64)}, state_wide, c)
        assert p["w"].dtype == np.float32 and state.buffers["w"].dtype == np.float32
        assert np.allclose(p["w"], wide["w"], rtol=0.0, atol=8 * np.finfo(np.float32).eps)

    def test_non_finite_gradient_raises(self):
        with pytest.raises(NonFiniteGradient):
            sgd_step({"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])}, OptimState(), cfg())


class TestSchedule:
    def test_initial(self):
        assert lr_schedule(0, cfg(lr0=0.01, gamma=0.99)) == 0.01

    def test_one_decay(self):
        assert lr_schedule(100, cfg(lr0=0.01, gamma=0.99)) == pytest.approx(0.0099, abs=1e-15)

    def test_floor_behaviour(self):
        got = lr_schedule(250, cfg(lr0=0.01, gamma=0.99))
        assert got == pytest.approx(0.01 * 0.99**2, abs=1e-15)

    def test_non_increasing(self):
        c = cfg(lr0=0.5, gamma=0.97, decay_every=7)
        values = [lr_schedule(s, c) for s in range(100)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(lr0=-1.0)
        with pytest.raises(ValueError):
            OptimConfig(lr0=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            OptimConfig(lr0=0.1, gamma=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr0", np.inf),
            ("weight_decay", np.nan),
            ("weight_decay", np.inf),
            ("decay_every", 2.5),
            ("decay_every", 4.0),
            ("decay_every", True),
        ],
    )
    def test_config_rejects_non_finite_rates_and_non_int_decay_every(self, field, value):
        # each was accepted, and the rates then wrote NaN or -inf parameters
        with pytest.raises(InvalidInput, match=f"^{field} must be"):
            cfg(**{field: value})

    def test_config_takes_a_numpy_int_decay_every(self):
        assert lr_schedule(6, cfg(lr0=1.0, gamma=0.5, decay_every=np.int64(3))) == 0.25
