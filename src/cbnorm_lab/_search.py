"""The one search engine: every estimated supremum in the package (the level
sups of `cbnorm` and the separation certificates of `mconvex`) runs random
restarts of a projected gradient ascent over the [Re, Im] encoding of a
complex array; `gcb` counts its cost evaluations with the same `Budget`.
This module owns the encoding, the ascent and the restart loop.

Every objective is the top singular value of a map that is linear or
entrywise holomorphic in the point, so the SVD that gives its value also
gives its exact gradient, dσ₁ = Re(u*·dF·v) (Overton, SIAM J. Optim. 2, 1992).
"""

from __future__ import annotations

import numpy as np

from .matcore import as_int, derive_rng

_MAX_STEPS = 200
# Enough halvings of a unit-length step to pass the 1e-9 step floor.
_HALVINGS = np.arange(40)


class Budget:
    """Counts objective evaluations; an exhausted budget stops a search."""

    def __init__(self, evals: int):
        self.left = as_int(evals, "budget")
        self.used = 0

    def spend(self, k: int = 1) -> int:
        """Spend up to k evaluations; returns how many were granted."""
        k = max(0, min(k, self.left))
        self.left -= k
        self.used += k
        return k


def encode(arr: np.ndarray, stacked: bool = False) -> np.ndarray:
    """Real vector [Re, Im] of a complex array, the space the ascent works in;
    with `stacked`, one such row per index of the first axis."""
    flat = arr.reshape(len(arr), -1) if stacked else arr.reshape(-1)
    return np.concatenate([flat.real, flat.imag], axis=-1)


def decode(vec: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of `encode`: the complex array of the given shape, one per row
    of a 2-D stack of encoded points."""
    half = vec.shape[-1] // 2
    return (vec[..., :half] + 1j * vec[..., half:]).reshape(vec.shape[:-1] + shape)


def to_sphere(stack: np.ndarray) -> np.ndarray:
    """Projection for scale-invariant objectives: rescale each row to unit
    length, with the bits `np.linalg.norm` gives that row alone."""
    out = np.array(stack, dtype=float)
    for row in out:
        nrm = np.linalg.norm(row)
        if nrm != 0.0:
            row /= nrm
    return out


def real_gradient(g: np.ndarray) -> np.ndarray:
    """Encoded gradient of a real function of a complex array z whose
    differential is Re Σ g·dz."""
    return encode(np.conj(g))


def ascend(objective, x0, project, budget: Budget):
    """Maximize `objective` from `x0` with projected gradient ascent.

    Points travel as (k, n) stacks of encoded points.  `objective(stack)`
    returns the values of the rows and `gradient_at`, where `gradient_at(i)`
    is the encoded gradient at row i; it may stop at a row it cannot
    evaluate and return the values of the rows before it.  `project(stack)`
    restores feasibility row by row; the start point is a stack of one.

    The budget is charged as a forward-difference search was: 1 evaluation
    for the start point and for each line-search candidate, and n for each
    gradient; with fewer than n left, the ascent spends them and stops
    without the gradient.  The budget must have at least one evaluation left,
    as `restarts` ensures.  Returns the best feasible iterate and its value.
    """
    x = project(np.asarray(x0, dtype=float)[None])
    budget.spend()
    values, gradient_at = objective(x)
    x, value, row = x[0], float(values[0]), 0
    for _ in range(_MAX_STEPS):
        if budget.spend(x.size) < x.size:
            break
        found = _line_search(objective, project, x, value, gradient_at(row), budget)
        if found is None:
            break
        x, value, gradient_at, row = found
    return x, value


def _line_search(objective, project, x, value, grad, budget: Budget):
    """The first of the candidates x + s·grad, for s = 1/|grad|, s/2, s/4, ...
    while s·|grad| > 1e-9, whose value beats `value`: (point, value,
    gradient_at, row), or None if none does before the budget runs out.

    The candidates are evaluated in batches of 1, 2, 4, ... rows, each capped
    at what the budget has left.  A batch is charged up to and including its
    first improving row, or whole when no row improves, so the outcome and
    the budget spent are those of trying the candidates one at a time.
    """
    gnorm = float(np.linalg.norm(grad))
    if gnorm <= 1e-12:
        return None
    # Exact halvings: the floats that halving one step at a time gives.
    steps = np.ldexp(1.0 / gnorm, -_HALVINGS)
    steps = steps[steps * gnorm > 1e-9]
    batch = 1
    while steps.size and budget.left:
        cands = project(x + steps[: min(batch, steps.size, budget.left), None] * grad)
        values, gradient_at = objective(cands)
        better = np.flatnonzero(values > value)
        if better.size:
            i = int(better[0])
            budget.spend(i + 1)
            return cands[i], float(values[i]), gradient_at, i
        budget.spend(len(values))
        steps = steps[len(values):]
        batch *= 2
    return None


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
