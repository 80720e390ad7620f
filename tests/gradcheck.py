"""Central-difference certification of analytic gradients."""

from __future__ import annotations

import numpy as np

from pixpoint.errors import NonFiniteLoss
from pixpoint.rngutil import rng_for


def gradient_check(loss_fn, params: dict, eps: float = 1e-4, rng_seed: int = 0, n_coords: int = 200):
    """Max relative error between analytic and numeric gradients.

    loss_fn maps a name->tensor dict to (loss, name->gradient dict) and
    must be deterministic. The loss is a scalar, or an array of terms
    whose sum is the loss: those are differenced term by term and then
    summed, so the rounding of a large sum stays out of the difference.
    Checks a random subsample of n_coords parameter coordinates (all
    coordinates if there are fewer).
    """
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    loss, grads = loss_fn(work)
    if not np.all(np.isfinite(loss)):
        raise NonFiniteLoss(f"loss at the base point is {loss}")

    flat = [(name, i) for name, v in work.items() for i in range(v.size)]
    rng = rng_for(rng_seed, "gradcheck")
    if len(flat) > n_coords:
        picks = rng.choice(len(flat), size=n_coords, replace=False)
        flat = [flat[int(p)] for p in picks]

    worst = 0.0
    for name, i in flat:
        tensor = work[name].ravel()
        keep = tensor[i]
        tensor[i] = keep + eps
        f_plus, _ = loss_fn(work)
        tensor[i] = keep - eps
        f_minus, _ = loss_fn(work)
        tensor[i] = keep
        if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
            raise NonFiniteLoss(f"perturbed loss non-finite at {name}[{i}]")
        numeric = float(np.sum(np.subtract(f_plus, f_minus))) / (2.0 * eps)
        analytic = float(grads[name].ravel()[i])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
