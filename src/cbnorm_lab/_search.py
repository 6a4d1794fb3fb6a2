"""The one search engine: every estimated supremum in the package (level sups,
dual norms, separation certificates) runs random restarts of a projected
gradient ascent over the [Re, Im] encoding of a complex array.  This module
owns the encoding, the ascent and the restart loop.

Every objective is the top singular value of a map that is linear or
entrywise holomorphic in the point, so the SVD that gives its value also
gives its exact gradient, dσ₁ = Re(u*·dF·v) (Overton, SIAM J. Optim. 2, 1992).
"""

from __future__ import annotations

import numpy as np

from .matcore import derive_rng

_MAX_STEPS = 200


class Budget:
    """Counts objective evaluations; an exhausted budget stops a search."""

    def __init__(self, evals: int):
        self.left = int(evals)
        self.used = 0

    def spend(self, k: int = 1) -> int:
        """Spend up to k evaluations; returns how many were granted."""
        k = max(0, min(k, self.left))
        self.left -= k
        self.used += k
        return k


def encode(arr: np.ndarray) -> np.ndarray:
    """Real vector [Re, Im] of a complex array, the space the ascent works in."""
    return np.concatenate([arr.real.ravel(), arr.imag.ravel()])


def decode(vec: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of `encode`: the complex array of the given shape."""
    half = vec.size // 2
    return (vec[:half] + 1j * vec[half:]).reshape(shape)


def to_sphere(vec: np.ndarray) -> np.ndarray:
    """Projection for scale-invariant objectives: rescale to unit length."""
    nrm = np.linalg.norm(vec)
    return vec if nrm == 0.0 else vec / nrm


def real_gradient(g: np.ndarray) -> np.ndarray:
    """Encoded gradient of a real function of a complex array z whose
    differential is Re Σ g·dz."""
    return encode(np.conj(g))


def ascend(objective, x0, project, budget: Budget):
    """Maximize `objective` from `x0` with projected gradient ascent.

    `objective(x)` returns the value at a feasible point x and a function
    giving the encoded gradient there; `project` restores feasibility after
    each step.  The budget is charged as a forward-difference search was: 1
    evaluation for the start point and for each line-search candidate, and
    n = x.size for each gradient; with fewer than n left, the ascent spends
    them and stops without the gradient.  Returns the best feasible iterate
    and its value, or (None, -inf) if the budget was already exhausted.
    Step sizes backtrack from a unit-length move.
    """
    x = project(np.asarray(x0, dtype=float))
    if not budget.spend():
        return None, -np.inf
    value, gradient = objective(x)
    for _ in range(_MAX_STEPS):
        if budget.spend(x.size) < x.size:
            break
        grad = gradient()
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-12:
            break
        step = 1.0 / gnorm
        while step * gnorm > 1e-9:
            if not budget.spend():
                return x, value
            cand = project(x + step * grad)
            cval, cgrad = objective(cand)
            if cval > value:
                x, value, gradient = cand, cval, cgrad
                break
            step *= 0.5
        else:
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
