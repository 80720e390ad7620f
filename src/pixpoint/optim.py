"""SGD with momentum, dampening, weight decay, exponential LR schedule.

The recipe trains with one fixed schedule, so everything but the initial
rate lr0 is a module constant: MOMENTUM 0.9, DAMPENING 0.1, WEIGHT_DECAY
0.004, and a decay by GAMMA 0.99 every DECAY_EVERY 100 steps.

Update recurrence per tensor:
    g    = grad + WEIGHT_DECAY * param
    buf  = g                                      on the first step
    buf  = MOMENTUM * buf + (1 - DAMPENING) * g   afterwards
    param -= lr * buf

The learning rate decays as lr0 * GAMMA^floor(step / DECAY_EVERY).
Each tensor updates in its own dtype, and so does its momentum buffer: a
gradient must match its parameter in dtype as well as shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradient, ShapeError, check_count

MOMENTUM = 0.9
DAMPENING = 0.1
WEIGHT_DECAY = 0.004
GAMMA = 0.99
DECAY_EVERY = 100


@dataclass
class OptimState:
    buffers: dict = field(default_factory=dict)
    step: int = 0


def lr_schedule(step: int, lr0: float) -> float:
    check_count("step", step, 0)
    return lr0 * GAMMA ** (step // DECAY_EVERY)


def sgd_step(params: dict, grads: dict, state: OptimState, lr0: float) -> float:
    """Update params in place; returns the learning rate that was applied."""
    lr = lr_schedule(state.step, lr0)
    for name, p in params.items():
        if name not in grads:
            raise ShapeError(f"missing gradient for {name!r}")
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"{name}: gradient shape {g.shape} != parameter shape {p.shape}")
        if g.dtype != p.dtype:
            raise ShapeError(f"{name}: gradient dtype {g.dtype} != parameter dtype {p.dtype}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name!r} contains NaN or inf")
        g = g + WEIGHT_DECAY * p
        buf = state.buffers.get(name)
        if buf is None:
            buf = g.copy()
            state.buffers[name] = buf
        else:
            buf *= MOMENTUM
            buf += (1.0 - DAMPENING) * g
        p -= lr * buf
    state.step += 1
    return lr
