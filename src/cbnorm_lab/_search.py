"""The one search engine: every estimated supremum in the package (the level
sups of `cbnorm` at levels m >= 2, at level 1 of a space function without a
scan unit, and the separation certificates of `mconvex`) runs random
restarts of a projected gradient ascent over complex arrays (a disk level
sup projects onto the scaled unitaries RADIUS_CAP·U(m), a space level sup
onto the cap sphere, a certificate onto the unit sphere); `gcb` counts its
cost evaluations with the same `Budget`.  Level 1 of a function with a scan
unit is `cbnorm`'s seedless scan of circles instead, and `polish`, a
Frank–Wolfe ascent, polishes a joint scan's witness (`cbnorm.level_sup`).
This module owns the ascent, the polish and the restart loop.

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
# The Frank–Wolfe step sizes γ = 1, ½, …, 2⁻⁷, tried as one stack.
_FW_STEPS = np.ldexp(1.0, -np.arange(8))


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


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re Σ conj(a)·b: the real inner product of two complex arrays."""
    # One dot product over all real parts, then all imaginary parts: this
    # summation order fixes the bits of every norm, step and projection built
    # on it, and so of every searched record.
    return float(_parts(a) @ _parts(b))


def _parts(z: np.ndarray) -> np.ndarray:
    """The real vector of all real parts, then all imaginary parts."""
    return np.concatenate([z.real.ravel(), z.imag.ravel()])


def to_sphere(stack: np.ndarray) -> np.ndarray:
    """Projection for scale-invariant objectives: rescale each point of the
    stack to unit length, with the bits that point alone gives."""
    out = np.array(stack, dtype=np.complex128)
    for row in out:
        nrm = np.sqrt(inner(row, row))
        if nrm != 0.0:
            # Divided part by part: complex division by nrm + 0j rounds differently.
            row.view(np.float64)[...] /= nrm
    return out


def ascend(objective, x0, project, budget: Budget):
    """Maximize `objective` from `x0` with projected gradient ascent.

    A point is a complex array, and points travel as stacks: arrays of shape
    (k, *point shape).  `objective(stack)` returns the values of the points
    and `gradient_at`, where `gradient_at(i)` is the gradient at point i: the
    array conj(G) of the point's shape for a value whose differential is
    Re Σ G·dz.  `project(stack)` restores feasibility point by point; the
    start point is a stack of one.

    The budget is charged as a forward-difference search was: 1 evaluation
    for the start point and for each line-search candidate, and 2·size for
    each gradient, one per real coordinate; with fewer left, the ascent
    spends them and stops without the gradient.  The budget must have at
    least one evaluation left, as `restarts` ensures.  Each line search
    after the first resumes at the candidate its predecessor accepted
    (`_line_search`).  Returns the best feasible iterate and its value.
    """
    x = project(np.asarray(x0, dtype=np.complex128)[None])
    budget.spend()
    values, gradient_at = objective(x)
    # `row` is the iterate's row in the stack `gradient_at` belongs to, and
    # k the candidate the last line search accepted.
    x, value, row, k = x[0], float(values[0]), 0, 0
    cost = 2 * x.size
    for _ in range(_MAX_STEPS):
        if budget.spend(cost) < cost:
            break
        found = _line_search(objective, project, x, value, gradient_at(row), budget, k + 1)
        if found is None:
            break
        x, value, gradient_at, row, k = found
    return x, value


def _line_search(objective, project, x, value, grad, budget: Budget, batch: int):
    """The first of the candidates x + s·grad, for s = 1/|grad|, s/2, s/4, ...
    while s·|grad| > 1e-9, whose value beats `value`: (point, value,
    gradient_at, row, k) for candidate k, row `row` of the stack that
    `gradient_at` belongs to, or None if none does before the budget runs
    out.

    The candidates are evaluated in batches of `batch`, 8·batch, 64·batch,
    ... points, each capped at the candidates and the budget left: `ascend`
    starts at 1 and resumes each later line search at the candidate the
    previous one accepted, k + 1 rows, the usual initial-step rule of a
    backtracking search (Nocedal & Wright, Numerical Optimization, 2006,
    §3.5).  A batch is charged up to and including its first improving
    point, or whole when no point improves, so the outcome and the budget
    spent are those of trying the candidates one at a time; rows after the
    first improving one are evaluated and discarded.
    """
    vec = _parts(grad)  # inner(grad, grad), its vector formed once
    gnorm = float(np.sqrt(vec @ vec))
    if gnorm <= 1e-12:
        return None
    # Exact halvings: the floats that halving one step at a time gives.
    steps = np.ldexp(1.0 / gnorm, -_HALVINGS)
    steps = steps[steps * gnorm > 1e-9]
    # Steps scale the gradient's real and imaginary parts, so a −0.0 part
    # stays −0.0, as it would not through a complex product.
    parts = grad.view(np.float64)
    tried = 0
    while tried < steps.size and budget.left:
        taken = steps[tried : tried + min(batch, budget.left)]
        moves = (taken.reshape((-1,) + (1,) * parts.ndim) * parts).view(np.complex128)
        cands = project(x + moves)
        values, gradient_at = objective(cands)
        better = np.flatnonzero(values > value)
        if better.size:
            i = int(better[0])
            budget.spend(i + 1)
            return cands[i], float(values[i]), gradient_at, i, tried + i
        budget.spend(taken.size)
        tried += taken.size
        batch *= 8
    return None


def polish(objective, oracle, x, value, budget: Budget):
    """Frank–Wolfe polish of the feasible point x, whose value is `value`
    (Frank & Wolfe, Naval Res. Logist. Q. 3, 1956; Jaggi, ICML 2013).

    `objective` is as `ascend` takes it, and `oracle(grad)` returns the
    feasible point s that maximizes inner(grad, s), the linear model of the
    objective at a point with gradient `grad`.  A step takes the gradient
    at x, charged 1, and s = oracle(gradient); it then evaluates the
    candidates x + γ·(s − x), for the γ of _FW_STEPS from 1 down, as one
    stack, charged 1 each and as many as the budget has left.  The first
    candidate of the best value becomes x if it beats x, and its gradient
    comes from that stack; the polish stops when the budget is spent or no
    candidate beats x.  Over a convex set every candidate is feasible, so
    nothing is projected.  Returns the last x and its value.
    """
    if not budget.left:
        return x, value
    # The start point's gradient comes from an evaluation of its own, every
    # later point's from the stack that accepted it.
    gradient_at, row = objective(x[None])[1], 0
    while budget.spend():
        steps = _FW_STEPS[: budget.spend(_FW_STEPS.size)]
        if not steps.size:
            break
        s = oracle(gradient_at(row))
        cands = x + steps.reshape((-1,) + (1,) * x.ndim) * (s - x)
        values, gradient_at = objective(cands)
        row = int(np.argmax(values))
        if not values[row] > value:
            break
        x, value = cands[row], values[row]
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
