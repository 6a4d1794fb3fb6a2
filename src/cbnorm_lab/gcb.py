"""Numerical model of the predual of the scalar cb-holomorphic functions.

Elements are finite combinations Σ cᵢ·αᵢ·δ(xᵢ)·βᵢ of evaluation functionals at
points strictly inside matrix unit balls.  The norm is sandwiched between the
representation-cost infimum and pairings against a dictionary of functions
with certified bounds.  The infimum is searched with all terms in one group,
since merging groups never raises the cost, over value-preserving rescalings,
in which the cost is log-convex.  Dictionaries may contain plain scalar
functions and grids of linear functionals.  Every cb-holomorphic f factors
through δ by a linear map, so a linear entry pairs with u at its linearized
point Σ cᵢ·αᵢ·xᵢ·βᵢ.  The grid built from the ambient coordinates pairs that
point to its realization, so it is norming among the linear entries; it pins
evaluation elements to the norm of their base point exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import holofun, matcore, mconvex, opspace
from ._search import Budget
from .errors import InvalidInputError
from .holofun import HoloFunction
from .opspace import ConcreteOperatorSpace, OpSpaceMatrix, block_matrix, compress, matrix_norm, realize, same_space

# Points carried by predual elements stay this far inside the unit ball.
_INTERIOR_MARGIN = 1e-9

# The upper-bound search steps log-scales by at most _MAX_STEP along directions
# clipped to ±_CLIP; its cost is second order in the last step, so it stops
# once no step moves a scale by _STEP_FLOOR, an excess of order 1e-16.
_MAX_STEP, _CLIP, _STEP_FLOOR = 0.25, 4.0, 1e-8


@dataclass(frozen=True, eq=False)
class GcbTerm:
    c: complex
    alpha: np.ndarray  # n × k
    point: OpSpaceMatrix  # level k, matrix norm <= 1 - 1e-9
    beta: np.ndarray  # k × n


@dataclass(frozen=True, eq=False)
class GcbElement:
    space: ConcreteOperatorSpace
    level: int
    terms: tuple
    # ‖xᵢ‖ of each term's point, from the interior check.
    norms = ()

    def __post_init__(self):
        object.__setattr__(self, "level", matcore.check_level(self.level))
        terms = tuple(self.terms)
        norms = []
        for t in terms:
            if not isinstance(t, GcbTerm) or not same_space(t.point.space, self.space):
                raise InvalidInputError("terms must be GcbTerm values over the element's space")
            opspace.compression_pair(t.alpha, t.beta, self.level, t.point.level)
            norms.append(matrix_norm(t.point))
            if norms[-1] > 1.0 - _INTERIOR_MARGIN:
                raise InvalidInputError("points must lie strictly inside the matrix unit ball")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "norms", tuple(norms))


def delta_element(x: OpSpaceMatrix) -> GcbElement:
    """Trivial representation of the evaluation matrix at a single point."""
    eye = np.eye(x.level, dtype=np.complex128)
    return GcbElement(x.space, x.level, (GcbTerm(1.0 + 0.0j, eye, x, eye),))


# ---------------------------------------------------------------------------
# Representation cost and the searched upper bound


def gcb_upper_bound(u: GcbElement, budget: int) -> float:
    """The least cost found for u's terms as one group, over value-preserving
    rescalings: a valid upper bound for the norm.

    Scales e^sᵢ on αᵢ and wᵢ²·e^−sᵢ on βᵢ, with wᵢ = |cᵢ|·‖xᵢ‖ (`u.norms`),
    cost √‖Σ e^sᵢ·αᵢαᵢ*‖·√‖Σ wᵢ²e^−sᵢ·βᵢ*βᵢ‖.  One group is exact, since merging
    groups never costs (the Haagerup-norm triangle inequality, Effros–Ruan,
    Operator Spaces, ch. 9); one start is exact, since the cost is log-convex
    in s.  From s = 0 each step moves s along log(qᵢ/pᵢ), with pᵢ and qᵢ term
    i's shares of the two norms, a descent direction; the step halves on a
    rejected candidate and doubles back on an accepted one.  Budget counts
    cost evaluations, two SVDs each; zero terms are dropped.  No step draws
    a random number, so the bound needs no seed.
    """
    evals = Budget(matcore.check_budget(budget))
    grams = []
    for t, norm in zip(u.terms, u.norms):
        alpha, beta, w = np.asarray(t.alpha), np.asarray(t.beta), abs(t.c) * norm
        if alpha.any() and beta.any() and w > 0.0:  # otherwise the term is the zero functional
            grams.append((alpha @ alpha.conj().T, w**2 * (beta.conj().T @ beta)))
    if not grams:
        return 0.0
    grams = np.array(grams)  # (terms, 2, n, n)

    def evaluate(s):
        scales = np.exp(np.multiply.outer(s, [1.0, -1.0]))
        _, sv, vh = np.linalg.svd(sum(c[:, None, None] * g for c, g in zip(scales, grams)))
        # Each term's share of each norm, at the top singular vector vh[:, 0]* of that
        # side; a zero share gives a clipped direction.
        shares = scales * np.real(np.einsum("ja,kjab,jb->kj", vh[:, 0], grams, vh[:, 0].conj()))
        p, q = np.maximum(shares / shares.sum(axis=0), 1e-300).T
        return np.sqrt(sv[0, 0]) * np.sqrt(sv[1, 0]), np.clip(np.log(q / p), -_CLIP, _CLIP)

    evals.spend()  # the start; a budget is at least 1
    s, step = np.zeros(len(grams)), _MAX_STEP
    best, d = evaluate(s)
    while np.max(np.abs(step * d)) >= _STEP_FLOOR and evals.spend():
        value, trial_d = evaluate(s + step * d)
        if value < best:
            s, best, d, step = s + step * d, value, trial_d, min(2.0 * step, _MAX_STEP)
        else:
            step /= 2.0
    return float(best)


# ---------------------------------------------------------------------------
# Dictionaries and pairings


@dataclass(frozen=True, eq=False)
class ScalarEntry:
    """A scalar test function with a certified cb bound."""

    function: HoloFunction
    bound: float


@dataclass(frozen=True, eq=False)
class GridEntry:
    """An m×m grid of linear functionals (coefficient vectors) with a
    certified bound on its cb norm as a map into M_m."""

    space: ConcreteOperatorSpace
    grid: np.ndarray  # (m, m, d)
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "grid", mconvex.check_grid(self.space, self.grid))


@dataclass(frozen=True, eq=False)
class FunctionDictionary:
    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        for e in entries:
            bound = float(e.bound)
            if bound < 0.0 or not np.isfinite(bound):
                raise InvalidInputError("entry bounds must be finite and nonnegative")
        if not entries:
            raise InvalidInputError("dictionary must have at least one entry")
        object.__setattr__(self, "entries", entries)


def linearize(u: GcbElement) -> OpSpaceMatrix:
    """The level-n point Σ cᵢ·αᵢ·xᵢ·βᵢ.  Every cb-holomorphic f factors
    through δ by a linear map, so a linear f pairs with u as f_n at this point."""
    acc = np.zeros((u.level, u.level, u.space.dim), dtype=np.complex128)
    for t in u.terms:
        acc += t.c * compress(t.alpha, t.point, t.beta).entries
    return OpSpaceMatrix(u.space, acc)


def gcb_pairing(u: GcbElement, entry) -> np.ndarray:
    """⟨u, f⟩, an (n·m)×(n·m) matrix: a grid entry's amplification at
    linearize(u), or Σ cᵢ·αᵢ·f(xᵢ)·βᵢ for a scalar entry (m = 1)."""
    if isinstance(entry, GridEntry):
        if not same_space(entry.space, u.space):
            raise InvalidInputError("grid entry and element live over different spaces")
        # Contiguous like a space's basis, so that the coordinate grid pairs a
        # point to its realization bit for bit.
        functionals = np.ascontiguousarray(np.moveaxis(entry.grid, -1, 0))
        return block_matrix(linearize(u).entries, functionals)
    f = entry.function
    out = np.zeros((u.level, u.level), dtype=np.complex128)
    for t in u.terms:
        if f.domain_space is None:
            if t.point.space.ambient != 1:
                raise InvalidInputError("disk-domain dictionary entries need the scalar space")
            value = holofun.amplify(f, realize(t.point))
        else:
            value = holofun.amplify(f, t.point)
        out += t.c * (np.asarray(t.alpha) @ value @ np.asarray(t.beta))
    return out


def gcb_lower_bound(u: GcbElement, dictionary: FunctionDictionary) -> float:
    """Max over the entries of pairing norm / certified bound: a valid lower bound."""
    values = [matcore.operator_norm(gcb_pairing(u, e)) / e.bound for e in dictionary.entries if e.bound > 1e-12]
    return max(values, default=0.0)


# ---------------------------------------------------------------------------
# The evaluation-isometry check


@dataclass(frozen=True)
class DeltaIsometryReport:
    passed: bool
    point_norm: float
    upper: float
    lower: float
    upper_gap: float
    lower_gap: float


def delta_isometry_check(x: OpSpaceMatrix, budget: int) -> DeltaIsometryReport:
    """Sandwich the trivial evaluation element of x and compare with ‖x‖.

    The upper gap must stay within 1e-9, and it is 0: one term is one group,
    its start costs √‖I‖·√‖ ‖x‖²·I ‖ = ‖x‖ in floats too, and its two shares
    are both 1, so no rescaling moves it.  The lower gap must stay within
    1e-6.  The lower bound pairs δ(x) with the coordinate grid alone: its cb
    norm is exactly 1 and it pairs the linearized point x to realize(x), so
    it is norming among the linear entries, and no entry of cb norm <= 1 can
    exceed ‖δ(x)‖ = ‖x‖.
    """
    u = delta_element(x)
    nx = u.norms[0]
    upper = gcb_upper_bound(u, budget)
    coordinates = GridEntry(x.space, mconvex.coordinate_grid(x.space), 1.0)
    lower = gcb_lower_bound(u, FunctionDictionary((coordinates,)))
    upper_gap, lower_gap = upper - nx, nx - lower
    return DeltaIsometryReport(upper_gap <= 1e-9 and lower_gap <= 1e-6, nx, upper, lower, upper_gap, lower_gap)
