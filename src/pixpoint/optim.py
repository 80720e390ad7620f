"""SGD with momentum, dampening, weight decay, exponential LR schedule.

Update recurrence per tensor:
    g    = grad + weight_decay * param
    buf  = g                                   on the first step
    buf  = momentum * buf + (1 - dampening) * g   afterwards
    param -= lr * buf

The learning rate decays as lr0 * gamma^floor(step / decay_every).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NonFiniteGradient, ShapeError


@dataclass(frozen=True)
class OptimConfig:
    lr0: float
    momentum: float = 0.9
    dampening: float = 0.1
    weight_decay: float = 0.004
    gamma: float = 0.99
    decay_every: int = 100

    def __post_init__(self):
        if not self.lr0 >= 0:
            raise InvalidInput(f"lr0 must be nonnegative, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidInput(f"momentum must be in [0,1), got {self.momentum}")
        if not 0.0 <= self.dampening <= 1.0:
            raise InvalidInput(f"dampening must be in [0,1], got {self.dampening}")
        if self.weight_decay < 0:
            raise InvalidInput(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if not 0.0 < self.gamma <= 1.0:
            raise InvalidInput(f"gamma must be in (0,1], got {self.gamma}")
        if self.decay_every < 1:
            raise InvalidInput(f"decay_every must be >= 1, got {self.decay_every}")


@dataclass
class OptimState:
    buffers: dict = field(default_factory=dict)
    step: int = 0


def lr_schedule(step: int, cfg: OptimConfig) -> float:
    if step < 0:
        raise InvalidInput(f"step must be nonnegative, got {step}")
    return cfg.lr0 * cfg.gamma ** (step // cfg.decay_every)


def sgd_step(params: dict, grads: dict, state: OptimState, cfg: OptimConfig) -> float:
    """Update params in place; returns the learning rate that was applied."""
    lr = lr_schedule(state.step, cfg)
    for name, p in params.items():
        if name not in grads:
            raise ShapeError(f"missing gradient for {name!r}")
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"{name}: gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name!r} contains NaN or inf")
        g = g + cfg.weight_decay * p
        buf = state.buffers.get(name)
        if buf is None:
            buf = g.copy()
            state.buffers[name] = buf
        else:
            buf *= cfg.momentum
            buf += (1.0 - cfg.dampening) * g
        p -= lr * buf
    state.step += 1
    return lr
