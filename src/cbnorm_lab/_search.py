"""The one search engine: every estimated supremum in the package (level sups,
dual norms, separation certificates) runs random restarts of a projected
forward-difference ascent over the [Re, Im] encoding of a complex array.
This module owns the encoding, the ascent and the restart loop.
"""

from __future__ import annotations

import numpy as np

from .matcore import derive_rng

# Forward-difference step and step cap of every ascent.
_FD_STEP = 1e-5
_MAX_STEPS = 200


class Budget:
    """Counts objective evaluations; an exhausted budget stops a search."""

    def __init__(self, evals: int):
        self.left = int(evals)
        self.used = 0

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        self.used += 1
        return True


def encode(arr: np.ndarray) -> np.ndarray:
    """Real vector [Re, Im] of a complex array, the space the ascent works in."""
    return np.concatenate([arr.real.ravel(), arr.imag.ravel()])


def decode(vec: np.ndarray, shape) -> np.ndarray:
    """Inverse of `encode`: the complex array of the given shape."""
    half = vec.size // 2
    return (vec[:half] + 1j * vec[half:]).reshape(shape)


def to_sphere(vec: np.ndarray) -> np.ndarray:
    """Projection for scale-invariant objectives: rescale to unit length."""
    nrm = np.linalg.norm(vec)
    return vec if nrm == 0.0 else vec / nrm


def ascend(objective, x0, project, budget: Budget):
    """Maximize `objective` from `x0` with projected forward-difference ascent.

    `objective` must be well defined on all of R^n (it may clamp internally);
    `project` restores feasibility after each accepted step.  Returns the best
    feasible iterate and its value, or (None, -inf) if the budget was already
    exhausted.  Step sizes backtrack from a unit-length move, which avoids
    derivative formulas at points where the spectral norm is not smooth.
    """
    x = project(np.asarray(x0, dtype=float))
    if not budget.spend():
        return None, -np.inf
    value = float(objective(x))
    for _ in range(_MAX_STEPS):
        grad = np.zeros_like(x)
        starved = False
        for i in range(x.size):
            if not budget.spend():
                starved = True
                break
            probe = x.copy()
            probe[i] += _FD_STEP
            grad[i] = (float(objective(probe)) - value) / _FD_STEP
        if starved:
            break
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-12:
            break
        step = 1.0 / gnorm
        moved = False
        while step * gnorm > 1e-9:
            if not budget.spend():
                return x, value
            cand = project(x + step * grad)
            cval = float(objective(cand))
            if cval > value:
                x, value, moved = cand, cval, True
                break
            step *= 0.5
        if not moved:
            break
    return x, value


def restarts(objective, project, start, budget: int, seed, *stream):
    """Yield one `ascend` (iterate, value) per restart until `budget`
    evaluations are spent (none if budget <= 0).  Restart r starts from
    start(derive_rng(seed, *stream, r)); the caller may stop early.
    """
    state = Budget(budget)
    restart = 0
    while state.left > 0:
        yield ascend(objective, start(derive_rng(seed, *stream, restart)), project, state)
        restart += 1
