"""The one search engine: every estimated supremum in the package (level sups,
dual norms, separation certificates) runs random restarts of a projected
forward-difference ascent over the [Re, Im] encoding of a complex array.
This module owns the encoding, the ascent and the restart loop.

Every objective maps a (k, n) stack of encoded points to their k values, so
a forward-difference gradient costs one call per stack of probes rather than
one per probe.
"""

from __future__ import annotations

import numpy as np

from .matcore import derive_rng

# Forward-difference step and step cap of every ascent.
_FD_STEP = 1e-5
_MAX_STEPS = 200

# Most encoded bytes in one stack of gradient probes.  A level-8 gradient (128
# probes of 1 KB) as one stack makes 128 KB temporaries, which the allocator
# may hand back to the kernel after each call and fault in again.  On a 2-core
# x86-64 VM with glibc that was 20 to 570 page faults per space-sandwich
# benchmark pass, depending on the process, and about 8000 per disk-sandwich
# pass; with 64 KB stacks every process settles at about 7 and 1250, near
# the unbatched search's 0 and 1110.
_STACK_BYTES = 64 * 1024


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
    """Inverse of `encode`: the complex array of the given shape.  A (k, n)
    stack of vectors decodes to a (k, *shape) stack of arrays."""
    half = vec.shape[-1] // 2
    return (vec[..., :half] + 1j * vec[..., half:]).reshape(vec.shape[:-1] + shape)


def to_sphere(vec: np.ndarray) -> np.ndarray:
    """Projection for scale-invariant objectives: rescale to unit length."""
    nrm = np.linalg.norm(vec)
    return vec if nrm == 0.0 else vec / nrm


def _probes(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The forward-difference probes x + h·e_i for i in [lo, hi), as a stack."""
    probes, i = np.repeat(x[None], hi - lo, axis=0), np.arange(hi - lo)
    probes[i, lo + i] += _FD_STEP
    return probes


def ascend(objective, x0, project, budget: Budget):
    """Maximize `objective` from `x0` with projected forward-difference ascent.

    `objective` maps a (k, n) stack of points to k values and must be well
    defined on all of R^n (it may clamp internally); `project` restores
    feasibility of one point after each accepted step.  Each step spends n
    evaluations at once on its gradient probes, x + h·e_i, and evaluates
    them in stacks of at most _STACK_BYTES; when fewer than n evaluations
    are left it spends them on the first probes and stops.  The start point
    and each line-search candidate are stacks of one.  Returns
    the best feasible iterate and its value, or (None, -inf) if the budget
    was already exhausted.  Step sizes backtrack from a unit-length move,
    which avoids derivative formulas at points where the spectral norm is
    not smooth.
    """
    x = project(np.asarray(x0, dtype=float))
    if not budget.spend():
        return None, -np.inf
    value = float(objective(x[None])[0])
    for _ in range(_MAX_STEPS):
        k = budget.spend(x.size)
        rows = max(1, _STACK_BYTES // x.nbytes)
        values = [objective(_probes(x, lo, min(lo + rows, k))) for lo in range(0, k, rows)]
        if k < x.size:
            break
        grad = (np.concatenate(values) - value) / _FD_STEP
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-12:
            break
        step = 1.0 / gnorm
        moved = False
        while step * gnorm > 1e-9:
            if not budget.spend():
                return x, value
            cand = project(x + step * grad)
            cval = float(objective(cand[None])[0])
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
