"""Numerical model of the predual of the scalar cb-holomorphic functions.

Elements are finite combinations Σ cᵢ·αᵢ·δ(xᵢ)·βᵢ of evaluation functionals at
points strictly inside matrix unit balls.  The norm is sandwiched between the
representation-cost infimum (searched over groupings and value-preserving
rescalings of a finite family) and pairings against a dictionary of functions
with certified bounds.  Dictionaries may contain plain scalar functions
and grids of linear functionals.  Every cb-holomorphic f factors through δ by
a linear map, so a linear entry pairs with u at its linearized point
Σ cᵢ·αᵢ·xᵢ·βᵢ.  The grid built from the ambient coordinates pairs that point
to its realization, so it is norming among the linear entries; it pins
evaluation elements to the norm of their base point exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import holofun, matcore, mconvex
from ._search import Budget
from .errors import InvalidInputError
from .holofun import HoloFunction
from .opspace import ConcreteOperatorSpace, OpSpaceMatrix, block_matrix, compress, matrix_norm, realize, same_space

# Points carried by predual elements stay this far inside the unit ball.
_INTERIOR_MARGIN = 1e-9

_RESCALE_GRID = 2.0 ** np.arange(-8, 9)  # 17 geometric points, exact in binary
# A sweep's moves of one term's (α, β) scales: (g, g) and (g, 1/g) for each g.
_MOVES = np.stack([np.repeat(_RESCALE_GRID, 2), np.ravel([_RESCALE_GRID, 1.0 / _RESCALE_GRID], order="F")])


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

    def __post_init__(self):
        object.__setattr__(self, "level", matcore.check_level(self.level))
        terms = tuple(self.terms)
        for t in terms:
            if not isinstance(t, GcbTerm) or not same_space(t.point.space, self.space):
                raise InvalidInputError("terms must be GcbTerm values over the element's space")
            k = t.point.level
            alpha = matcore.as_matrix(t.alpha)
            beta = matcore.as_matrix(t.beta)
            if alpha.shape != (self.level, k) or beta.shape != (k, self.level):
                raise InvalidInputError(
                    f"term shapes {alpha.shape}, {beta.shape} do not match level {self.level} "
                    f"and point level {k}"
                )
            if matrix_norm(t.point) > 1.0 - _INTERIOR_MARGIN:
                raise InvalidInputError("points must lie strictly inside the matrix unit ball")
        object.__setattr__(self, "terms", terms)


def delta_element(x: OpSpaceMatrix) -> GcbElement:
    """Trivial representation of the evaluation matrix at a single point."""
    eye = np.eye(x.level, dtype=np.complex128)
    return GcbElement(x.space, x.level, (GcbTerm(1.0 + 0.0j, eye, x, eye),))


# ---------------------------------------------------------------------------
# Representation cost and the searched upper bound


def _term_parts(t: GcbTerm):
    alpha = np.asarray(t.alpha)
    beta = np.asarray(t.beta)
    return alpha @ alpha.conj().T, beta.conj().T @ beta, abs(t.c) * matrix_norm(t.point)


def _group_cost(parts) -> np.ndarray:
    """‖Σ a_i·A_i‖^½ · ‖Σ b_i·B_i‖^½ · max w_i/√(a_i·b_i) for one group.

    Each scale is a float or a (k,) array of trial values; the costs come
    back as a (k,) array, of length 1 when every scale is a float.  Every
    entry has the bits of the same cost computed with float scales.
    """
    row = sum(np.multiply.outer(np.atleast_1d(a), A) for A, _, _, a, _ in parts)
    col = sum(np.multiply.outer(np.atleast_1d(b), B) for _, B, _, _, b in parts)
    peak = functools.reduce(np.maximum, [w / np.sqrt(a * b) for _, _, w, a, b in parts])
    return np.sqrt(matcore.operator_norms(row)) * np.sqrt(matcore.operator_norms(col)) * peak


def _partitions(items, max_groups):
    """All partitions of `items` into at most `max_groups` nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest, max_groups):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        if len(part) < max_groups:
            yield part + [[first]]


def gcb_upper_bound(u: GcbElement, budget: int, seed) -> float:
    """Minimum representation cost over groupings into <= 3 groups and
    value-preserving per-term rescalings: a valid upper bound for the norm.

    The rescaling knobs move positive scale between α, β and the coefficient
    (the element is unchanged); they are swept over a binary geometric grid by
    coordinate descent from two starts, the representation as given and the
    flattened one where every term contributes weight 1.  Rescaling c and the
    point together (c·t, x/t) changes neither the cost nor the searched
    minimum, since |c|·‖x‖ is invariant, so it is not iterated.  Budget counts
    cost evaluations; zero terms are dropped.  A sweep over one term's 34
    moves, (g, g) and (g, 1/g) for the 17 grid points g, is charged 34
    evaluations and evaluated as one stack, with the other groups' costs
    taken once per sweep; a budget that runs out mid-sweep keeps the moves it
    granted, in grid order, which is where a move-by-move search would stop.
    """
    evals = Budget(matcore.check_count(budget, "budget"))
    matcore.check_seed(seed)
    if not u.terms:
        return 0.0
    data, flat = [], []
    for t in u.terms:
        A, B, w = _term_parts(t)
        na, nb = matcore.operator_norm(A), matcore.operator_norm(B)
        if na <= 0.0 or nb <= 0.0 or w <= 0.0:
            continue  # the term is the zero functional; dropping it is value-preserving
        data.append((A, B, w))
        flat.append((w * np.sqrt(nb / na), w * np.sqrt(na / nb)))
    if not data:
        return 0.0

    def cost(groups, scales):
        return sum(_group_cost([(*data[i], *scales[i]) for i in group]) for group in groups)

    indices = list(range(len(data)))
    if len(data) <= 8:
        index_partitions = list(_partitions(indices, 3))
    else:
        # Full enumeration blows up; keep the two canonical groupings.
        index_partitions = [[indices], [[i] for i in indices]]
    best = np.inf
    for groups in index_partitions:
        for start in ([(1.0, 1.0)] * len(data), flat):
            scales = list(start)
            if not evals.spend():
                return float(best)
            current = cost(groups, scales)[0]
            best = min(best, current)
            for _ in range(2):
                for i in indices:
                    granted = evals.spend(_MOVES.shape[1])
                    if not granted:
                        return float(best)
                    moved = (scales[i][0] * _MOVES[0, :granted], scales[i][1] * _MOVES[1, :granted])
                    trials = cost(groups, scales[:i] + [moved] + scales[i + 1 :])
                    best = min(best, trials.min())
                    j = int(np.argmin(trials))
                    if trials[j] < current:
                        current, scales[i] = trials[j], (moved[0][j], moved[1][j])
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
    best = 0.0
    for entry in dictionary.entries:
        if entry.bound <= 1e-12:
            continue
        value = matcore.operator_norm(gcb_pairing(u, entry)) / entry.bound
        best = max(best, value)
    return float(best)


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


def delta_isometry_check(x: OpSpaceMatrix, budget: int, seed) -> DeltaIsometryReport:
    """Sandwich the trivial evaluation element of x and compare with ‖x‖.

    The upper gap must stay within 1e-9 (the trivial representation costs
    exactly ‖x‖ and no value-preserving move can beat it on a single term);
    the lower gap must stay within 1e-6.  The lower bound pairs δ(x) with the
    coordinate grid alone: its cb norm is exactly 1 and it pairs the
    linearized point x to realize(x), so it is norming among the linear
    entries, and no entry of cb norm <= 1 can exceed ‖δ(x)‖ = ‖x‖.
    """
    nx = matrix_norm(x)
    if nx > 1.0 - _INTERIOR_MARGIN:
        raise InvalidInputError("point must lie strictly inside the matrix unit ball")
    u = delta_element(x)
    upper = gcb_upper_bound(u, budget, seed)
    coordinates = GridEntry(x.space, mconvex.coordinate_grid(x.space), 1.0)
    lower = gcb_lower_bound(u, FunctionDictionary((coordinates,)))
    upper_gap = upper - nx
    lower_gap = nx - lower
    return DeltaIsometryReport(
        passed=upper_gap <= 1e-9 and lower_gap <= 1e-6,
        point_norm=float(nx),
        upper=float(upper),
        lower=float(lower),
        upper_gap=float(upper_gap),
        lower_gap=float(lower_gap),
    )
