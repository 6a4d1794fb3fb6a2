"""Sandwich bounds for the completely bounded norm of a holomorphic function.

The lower bound is the best of one `level_sup` at each of the sparse levels
DEFAULT_LEVELS = (1, 2, 4, 8), capped at max_level.  Level 1 of a function
with a scan unit is a seedless scan of circles (`_scan_unit`, `level_sup`).
Every other level is searched by projected ascent from Gaussian starts on
the set where its sup over the cap ball is attained (the scaled unitaries
RADIUS_CAP·U(m) of a disk function, the cap sphere ‖X‖ = RADIUS_CAP of a
space function, both by the maximum principle), with zero-padding used to
transfer witnesses upward (padding cannot change the amplified norm because
every function vanishes at 0); once the lower bound meets the cap-ball
bound, nothing can beat it: the level-1 scan stops there, and the higher
levels take the padded witness unsearched (`_lower_table`).  The upper
bound comes from the one certified analytic rule of the function's kind:
exact coefficient sums, quotient and geometric-functional bounds, and
product/sum/scale combination rules.  Each rule takes a radius t and
bounds the function on the ball of radius t (`_upper_rules`): the upper
bound is the rule at 1, W_cap the rule at RADIUS_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import holofun, matcore, opspace
from ._search import Budget, inner, polish, restarts
from .errors import DomainError, InvalidInputError, SandwichViolationError
from .holofun import (
    Blaschke,
    Composite,
    GeometricPhi,
    HoloFunction,
    MoebiusQuotient,
    PowerSeries,
    Product,
    Scale,
    Sum,
)

# Search stays strictly inside the open ball while approaching the supremum.
RADIUS_CAP = 1.0 - 1e-6
DEFAULT_LEVELS = (1, 2, 4, 8)
# A pair of bounds is in order when lower <= upper·(1 + SANDWICH_SLACK).
SANDWICH_SLACK = 1e-6

# The level-1 scan (`_circle_scan`): the most evaluations it keeps for
# zooming, how many grid maxima a unit with no parameter axes zooms, the
# points of its zoom round (shared by those maxima), and the most points the
# scan hands the objective at once.
_ZOOM_SHARE = 192
_ZOOM_PEAKS = 4
_ZOOM_ROWS = 16
_SCAN_STACK = 4096
# Scan values this close to the best, relatively, are ties: evaluation
# rounding alone spreads |z²| over the circle by 5 ulps.
_ROUNDING_TIE = 2.0**-50
# A unit with parameter axes (`_ScanUnit`), such as the (a, b) family of
# `_scan_unit`, zooms fewer grid maxima, with more points a round, each of
# its rounds computing new units.
_JOINT_PEAKS = 2
_JOINT_ROWS = 24


@dataclass(frozen=True)
class Witness:
    """A feasible matrix certifying a lower bound at one level, with the
    objective evaluations its search spent (0 when lifted) and, for a
    scanned level 1, how it was found: its scan unit's name, and
    " and Frank–Wolfe polish" when the polish ran (`level_sup`); "" for an
    ascended or lifted witness."""

    level: int
    matrix: object  # ndarray for disk functions, OpSpaceMatrix over a space
    value: float
    samples: int = 0
    source: str = ""


@dataclass(frozen=True)
class CbEstimate:
    lower: float
    upper: float | None
    level_table: dict  # level -> its Witness
    samples: dict  # level -> objective evaluations the level spent
    provenance: str


def _norms_and_gradients(values: np.ndarray, derivative: np.ndarray):
    """σ₁ of each entrywise image F of a stack of points, and a function
    returning row i's gradient, dσ₁ = Re Σ conj(u_j)·v_l·dF_jl with
    dF_jl = derivative[i, j, l]·dz_jl.  A 1×1 F = z has σ₁ = |z| and
    conj(u)·v = conj(z)/|z| (1 where z = 0), with no SVD."""
    norms = matcore.operator_norms(values)

    def gradient_at(i):
        if values.shape[-2:] == (1, 1):
            # The phase is divided part by part: a complex quotient of
            # subnormals overflows.
            z, r = values[i, 0, 0], norms[i]
            return (complex(z.real / r, z.imag / r) if r else 1.0) * np.conj(derivative[i])
        _, u, v = matcore.top_singular_pair(values[i])
        weights = u.conj()[:, None] * v
        der = derivative[i]
        return np.conj(der * weights.reshape(weights.shape + (1,) * (der.ndim - 2)))

    return norms, gradient_at


def _objective(f: HoloFunction):
    """The objective of f that `_search.ascend` and `_search.polish` take:
    σ₁ of f at each point of a stack, and its gradients
    (`_norms_and_gradients`)."""
    return lambda stack: _norms_and_gradients(*holofun._eval_array(f, stack))


def _disk_problem(f: HoloFunction, m: int):
    def project(stack):
        # The polar factor of each point, scaled: the nearest point of
        # RADIUS_CAP·U(m), where every level-m sup over the cap ball is
        # attained (see `level_sup`).
        u, _, vh = np.linalg.svd(stack, full_matrices=False)
        return RADIUS_CAP * (u @ vh)

    def start(rng):
        return matcore.gaussian(rng, (m, m))

    return _objective(f), project, start


def _space_problem(f: HoloFunction, m: int):
    space, raw = f.domain_space, _objective(f)

    def along_cap(grad, entries):
        # Every point lies on the cap sphere, where the gradient's part along
        # the sphere's normal would only be scaled back by `project`; drop it.
        normal = np.conj(opspace.norm_gradient(opspace.block_matrix(entries, space.basis), space.basis))
        return grad - (inner(grad, normal) / inner(normal, normal)) * normal

    def objective(entries):
        values, gradient_at = raw(entries)
        return values, lambda i: along_cap(gradient_at(i), entries[i])

    def project(stack):
        # Each point scaled onto the cap sphere (see `level_sup`), part by
        # part, so a −0.0 part stays −0.0.
        norms = matcore.operator_norms(opspace.block_matrix(stack, space.basis))
        scale = (RADIUS_CAP / norms).reshape(-1, 1, 1, 1)
        return (stack.view(np.float64) * scale).view(np.complex128)

    def start(rng):
        return matcore.gaussian(rng, (m, m, space.dim))

    return objective, project, start


class _ScanUnit:
    """A scan unit of level 1 (`_scan_unit`): the circles w·u,
    w = RADIUS_CAP·e^{iθ}, of the unit points u = units(p) of a (T, k) stack
    of parameters p, with one (length, offset) pair in `axes` for each of
    the k parameter axes; θ is always the last grid axis.  A unit with no
    axes is one circle, whose fixed point `units` returns for any stack: its
    circle holds the maximum, so its witness is not polished, and its zoom
    takes _ZOOM_PEAKS maxima and _ZOOM_ROWS points a round.  A unit with
    axes is a family whose circles are searched for the maximum: its zoom
    takes _JOINT_PEAKS maxima and _JOINT_ROWS points a round, each round
    computing new units, and its witness is polished (`level_sup`)."""

    def __init__(self, units, axes=()):
        self.units, self.axes, self.polished = units, axes, bool(axes)
        self.name = "joint norming scan" if axes else "circle scan"
        self.zoom = (_JOINT_PEAKS, _JOINT_ROWS) if axes else (_ZOOM_PEAKS, _ZOOM_ROWS)

    def grid(self, n: int):
        """(sizes, spacing, index → parameters) of the grid of at most n
        points, an s × … × s × t grid with s = ⌊n^(1/(k+1))⌋ points on each
        of the k parameter axes and t = ⌊n/sᵏ⌋ angles (n angles when k = 0).
        The point with flat index i and index tuple (i₁, …, i_k, l) has the
        parameters spacing·((i₁, …, i_k, l) + offsets), one row a point: a
        parameter axis has the spacing length/s and its own offset, and θ
        the spacing 2π/t and offset 0."""
        k = len(self.axes)
        s = round(n ** (1.0 / (k + 1)))
        s -= s ** (k + 1) > n
        sizes = (s,) * k + (n // s**k,)
        axes = (*self.axes, (2.0 * np.pi, 0.0))
        spacing = np.array([length / size for (length, _), size in zip(axes, sizes)])
        offset = np.array([start for _, start in axes])
        return sizes, spacing, lambda index: spacing * (np.array(np.unravel_index(index, sizes)).T + offset)

    def points(self, params: np.ndarray) -> np.ndarray:
        """The points w·u of a stack of parameters, θ last."""
        w, units = RADIUS_CAP * np.exp(1j * params[:, -1]), self.units(params[:, :-1])
        return w.reshape((-1,) + (1,) * (units.ndim - 1)) * units

    def moves(self, offsets: np.ndarray) -> np.ndarray:
        """A zoom round's moves around a peak: row j·q + i moves axis j by
        the i-th of the q offsets."""
        dims = len(self.axes) + 1
        return (np.eye(dims)[:, None] * offsets[:, None]).reshape(-1, dims)


def _functional_leaves(f: HoloFunction) -> list:
    """The `Composite` and `GeometricPhi` leaves of a space function, left
    to right."""
    if isinstance(f, (Composite, GeometricPhi)):
        return [f]
    if isinstance(f, Scale):
        return _functional_leaves(f.inner)
    if isinstance(f, (Product, Sum)):
        return _functional_leaves(f.left) + _functional_leaves(f.right)
    return []


def _scan_unit(f: HoloFunction):
    """The scan unit of f's level 1 (`_ScanUnit`), decided by f's functional
    leaves (`_functional_leaves`) alone: a unit with no parameter axes, one
    circle that holds the maximum of |f| over the level-1 ball of radius
    RADIUS_CAP; a unit over the parameters (a, b), whose circles are
    searched for it; or None when neither is known.

    This is the paper's linearization at level 1: a function of functionals
    factors through the linear map x ↦ (φ₁(x), φ₂(x)), and its scan units
    are norming elements of combinations of those functionals, whatever
    scales wrap them.  A disk function's level-1 ball is the disk, where |f|
    peaks on the circle (maximum modulus): u = [1].  A functional's cb norm
    is its norm, so φ maps the level-1 ball of a space onto the closed disk
    of radius RADIUS_CAP·‖φ‖, where c·g peaks in modulus on the circle; with
    u the norming element of φ (`opspace.norming_element`), φ(w·u) = w·‖φ‖
    runs over that circle.  So a function with one functional leaf over a
    builder space (g∘φ or φ/(1 − φ), scaled or not) takes the circle of its
    norming element, computed once.  A function with exactly two (a product
    or sum of two, scaled or not) takes the family of norming elements e_c
    of ψ_c = c₁φ₁ + c₂φ₂, c = (cos a, sin a·e^{ib}) on the unit sphere of
    ℂ², as (1, 1, d) entries: each e_c is a unit point of the space, and
    φᵢ(w·e_c) runs over one complex line of the joint image (φ₁, φ₂) of the
    level-1 ball.  That family is a source of seedless witnesses, not a
    proof that the maximum lies on one of its circles (|z₁z₂| on the ℓ₁
    ball of ℂ² peaks at (½, ½), no extreme point of the ball), so
    `level_sup` polishes the scan's witness.
    Functions with more leaves, and custom spaces, which have no closed-form
    norming element, have none.
    """
    space = f.domain_space
    if space is None:
        unit = np.array([[[1.0 + 0.0j]]])
        return _ScanUnit(lambda p: unit)
    leaves = _functional_leaves(f)
    if space.kind == "custom" or len(leaves) > 2:
        return None
    if len(leaves) == 1:
        unit = opspace.norming_element(space, leaves[0].phi).reshape(1, 1, 1, -1)
        return _ScanUnit(lambda p: unit)
    first, second = leaves[0].phi, leaves[1].phi

    def units(ab):
        # One `norming_element` call for the stack of ψ_c, which takes each
        # run of equal rows once (a scan moves θ with (a, b) fixed).
        starts = np.flatnonzero(np.concatenate(([True], np.any(ab[1:] != ab[:-1], axis=1))))
        a, b = ab[starts, :1], ab[starts, 1:]
        psi = np.cos(a) * first + (np.sin(a) * np.exp(1j * b)) * second
        units = opspace.norming_element(space, psi).reshape(-1, 1, 1, space.dim)
        return np.repeat(units, np.diff(np.append(starts, len(ab))), axis=0)

    # a at the midpoints of s cells of [0, π/2], b from 0 around the circle.
    return _ScanUnit(units, ((0.5 * np.pi, 0.5), (2.0 * np.pi, 0.0)))


def _polish_problem(f: HoloFunction):
    """(objective, oracle) of the Frank–Wolfe polish of level 1 over f's
    builder space (`_search.polish`).  At a level-1 point x with F = f(x),
    d|F| = Re ψ(dx) for ψ = conj(F)·F′/|F| (phase 1 where F = 0), and the
    linear maximization oracle over the ball of radius RADIUS_CAP is
    RADIUS_CAP times the norming element of ψ (`opspace.norming_element`)."""
    space = f.domain_space

    def oracle(grad):
        # The objective's gradient is conj(ψ), in `ascend`'s convention.
        return RADIUS_CAP * opspace.norming_element(space, np.conj(grad[0, 0]))[None, None]

    return _objective(f), oracle


def level_sup(f: HoloFunction, m: int, budget: int, seed, ceiling=math.inf) -> Witness:
    """Best found amplified norm over the level-m ball of radius 1 − 1e-6,
    every level's one entry: a valid lower bound for the level-m supremum,
    whose witness records the objective evaluations it spent, at most
    `budget`.

    Level 1 of a function with a scan unit (`_scan_unit`, decided here once)
    reads no seed.  `_circle_scan` scans the unit's circles on the whole
    budget, or on budget − budget // 2 when the unit is `polished` (a unit
    with parameter axes).  Then budget // 2 goes to the Frank–Wolfe polish of
    the scan's witness (`_search.polish`, `_polish_problem`): each step's
    oracle is RADIUS_CAP times the norming element of the functional ψ with
    d|f| = Re ψ(dx), each gradient and each of its 8 step-size candidates is
    charged 1, and the scan's witness stays unless a step beats it.  A scan
    that meets the `ceiling` stops (`_circle_scan`; `_lower_table` passes
    W_cap) and is not polished; no ceiling is `math.inf`, which no value
    meets.  Level 1 spends what its scan and its polish spent: a polish
    stops early when no step beats its point.  Its witness's `source` names
    the unit, and the polish when it ran.

    Every other level ignores the ceiling, runs random restarts of projected
    ascent, spends exactly `budget` and keeps the first restart that reaches
    the best value.  Each restart starts from a raw complex Gaussian, which
    the ascent's first projection places where the sup is attained.  A disk
    function's ascent runs on the scaled unitaries RADIUS_CAP·U(m): for
    fixed unitaries U, V the map s ↦ ‖f[U·diag(s)·V*]‖ is plurisubharmonic
    on the polydisk, so the sup over the level-m ball of radius RADIUS_CAP
    is attained there, on its Shilov boundary.  A space's level-m ball need
    not hold a unitary, but λ ↦ ‖f[λX]‖ is subharmonic on the disk
    |λ| <= RADIUS_CAP/‖X‖, so it peaks on its circle, and the space ascent
    projects onto the cap sphere ‖X‖ = RADIUS_CAP.  Scanned or searched,
    the point becomes the witness's matrix by `_witness`.
    """
    m = matcore.check_level(m)
    budget = matcore.check_budget(budget)
    matcore.check_seed(seed)
    unit = _scan_unit(f) if m == 1 else None
    if unit is None:
        problem = _disk_problem if f.domain_space is None else _space_problem
        runs = restarts(*problem(f, m), budget, seed, m)
        # max keeps the first of equal values.
        return _witness(f.domain_space, m, *max(runs, key=lambda run: run[1]), budget)
    share = budget // 2 if unit.polished else 0
    point, value, spent = _circle_scan(f, budget - share, unit, ceiling)
    source = unit.name
    if share and value < ceiling:
        left = Budget(share)
        point, value = polish(*_polish_problem(f), point, value, left)
        spent += left.used
        source += " and Frank–Wolfe polish"
    return _witness(f.domain_space, 1, point, value, spent, source)


def _witness(space, level: int, point: np.ndarray, value, samples: int = 0, source: str = "") -> Witness:
    """The witness at a point: a disk point (space None) as its matrix, a
    space point's entries wrapped over the space."""
    matrix = point if space is None else opspace.OpSpaceMatrix(space, point)
    return Witness(level, matrix, float(value), samples, source)


def _circle_scan(f: HoloFunction, budget: int, unit, ceiling=math.inf):
    """(point, value, evaluations spent) of the best of at most `budget`
    points of a scan unit's circles (`_ScanUnit`), by the amplified norm;
    the point has the shape of the unit's points.

    A uniform grid of the unit's parameters comes first (its `grid`).  The
    budget's last min(budget // 2, _ZOOM_SHARE) points, and any the grid
    leaves, then zoom in on the grid's best local maxima, periodic along
    every axis, θ and each parameter axis alike, as many as the unit's
    `zoom` takes.  Each zoom round tries q points around each peak's best
    parameters c along each axis (the unit's `moves`), at c ± h/(q + 1),
    c ± 3h/(q + 1), ... in that order, axis after axis and inner ones first,
    for a round the budget cuts short; q is the even share per peak and axis
    of the unit's points a round.  Then each axis's h, which starts at its
    grid spacing, shrinks to the spacing 2h/(q + 1) of those points.
    The `ceiling` is a value that no point beats but by rounding: the scan
    stops after the grid, or after the zoom round, whose best value reaches
    it, as further rounds could raise the best by rounding alone.  A grid
    that reaches it, or that spends the whole budget, sets up no zoom.  With
    no ceiling (`math.inf`) the scan spends the whole budget.
    Either way the witness is the earliest point, in scan order, whose value
    ties the best up to _ROUNDING_TIE.

    The scan keeps the grid's values (8 bytes a point), the points of the
    grid's first chunk (at most _SCAN_STACK of them) and the zoom's points.
    A grid witness past the first chunk is made again from its chunk of
    parameters, by the same arithmetic on the same array, so with its bits.
    """
    # The grid's last few points may go to the zoom.
    sizes, spacing, at_grid = unit.grid(budget - min(budget // 2, _ZOOM_SHARE))
    n, dims, points = math.prod(sizes), len(sizes), unit.points

    def norms(stack):
        return matcore.operator_norms(holofun._eval_array(f, stack, False)[0])

    def grid_point(k):
        lo = k - k % _SCAN_STACK
        return (first if lo == 0 else points(chunk(lo)))[k - lo]

    # Parameters of the grid chunk starting at point lo.
    chunk = lambda lo: at_grid(np.arange(lo, min(lo + _SCAN_STACK, n)))
    at = np.empty(n)
    first = points(chunk(0))
    at[:_SCAN_STACK] = norms(first)
    for lo in range(_SCAN_STACK, n, _SCAN_STACK):
        at[lo : lo + _SCAN_STACK] = norms(points(chunk(lo)))
    left, highest = budget - n, at.max()
    zoom = []  # (points, values) of each zoom round
    if left and highest < ceiling:
        # Local maxima of the periodic grid, compared axis by axis through
        # views, with no copy of `at`.
        grid, peak = at.reshape(sizes), np.ones(sizes, dtype=bool)
        for axis in range(dims):
            g, p = grid.swapaxes(0, axis), peak.swapaxes(0, axis)
            p[0] &= g[0] >= g[-1]
            p[1:] &= g[1:] >= g[:-1]
            p[-1] &= g[-1] >= g[0]
            p[:-1] &= g[:-1] >= g[1:]
        peaks = np.flatnonzero(peak)
        zoom_peaks, zoom_rows = unit.zoom
        peaks = peaks[np.argsort(-at[peaks], kind="stable")][:zoom_peaks]
        centers, best, h = at_grid(peaks), at[peaks], spacing
        q = zoom_rows // peaks.size // dims // 2 * 2
        odd = np.arange(1, q, 2) / (q + 1)
        moves = unit.moves(np.stack([-odd, odd], axis=1).ravel())
        while left and highest < ceiling:
            candidates = centers[:, None] + h * moves
            stack = points(candidates.reshape(-1, dims)[:left])
            tried = np.full(candidates.shape[0] * candidates.shape[1], -np.inf)
            tried[: len(stack)] = norms(stack)
            zoom.append((stack, tried[: len(stack)]))
            highest = max(highest, tried.max())
            tried = tried.reshape(candidates.shape[:2])
            top = np.argmax(tried, axis=1)
            rows = np.flatnonzero(tried[np.arange(peaks.size), top] > best)
            centers[rows], best[rows] = candidates[rows, top[rows]], tried[rows, top[rows]]
            h = h * (2.0 / (q + 1))
            left -= len(stack)
    tie, spent = highest * (1.0 - _ROUNDING_TIE), budget - left
    k = int(np.argmax(at >= tie))
    if at[k] >= tie:
        return grid_point(k), at[k], spent
    stack, values = next((stack, values) for stack, values in zoom if values.max() >= tie)
    i = int(np.argmax(values >= tie))
    return stack[i], values[i], spent


def witness_value(f: HoloFunction, w: Witness) -> float:
    """Recompute the amplified norm at a stored witness."""
    return matcore.operator_norm(holofun.amplify(f, w.matrix))


def lift_witness(w: Witness, level: int) -> Witness:
    """Pad the witness with zero rows and columns up to `level`, a level in
    [w.level, MAX_LEVEL]: same value.

    The witness's point goes into the top-left corner of a zero array, which
    gives np.pad's bits (+0.0 fill) at a fraction of its cost."""
    level = matcore.check_level(level)
    if level < w.level:
        raise InvalidInputError(f"cannot lift a level-{w.level} witness down to level {level}")
    corner = np.asarray(getattr(w.matrix, "entries", w.matrix))
    lifted = np.zeros((level, level, *corner.shape[2:]), corner.dtype)
    lifted[: w.level, : w.level] = corner
    return _witness(getattr(w.matrix, "space", None), level, lifted, w.value)


def _lower_table(f: HoloFunction, levels, budget: int, seed):
    """The witness of each level, the evaluations each level spent, and the
    cap-ball bound W_cap.

    Every level-m sup over the ball of radius RADIUS_CAP is at most
    Σ|aₙ|·RADIUS_CAPⁿ, because ‖f[X]‖ <= Σ|aₙ|·‖X‖ⁿ, and so at most W_cap,
    the certified rule at radius RADIUS_CAP.  Each searched level is one
    `level_sup` with W_cap, up to the scan's rounding tie, as its ceiling,
    and spends what its witness records.  Once the running lower bound
    reaches that ceiling nothing can beat it: each later level takes the
    lifted witness and spends nothing.  A lifted lower-level witness
    replaces a level's own only when its value is strictly larger.  W_cap
    passes `_finite_rule` before any search.
    """
    cap, _ = _finite_rule(f, RADIUS_CAP)
    met = cap * (1.0 - _ROUNDING_TIE)
    table, spent = {}, {}
    running = None
    for m in levels:
        if running is not None and running.value >= met:
            table[m], spent[m] = lift_witness(running, m), 0
            continue
        w = level_sup(f, m, budget, seed, ceiling=met)
        spent[m] = w.samples
        if running is not None and running.value > w.value:
            w = lift_witness(running, m)
        running = table[m] = w
    return table, spent, cap


def _levels(max_level: int) -> list:
    """The levels a bound searches: DEFAULT_LEVELS capped at max_level."""
    max_level = matcore.check_count(max_level, "max_level")
    return [m for m in DEFAULT_LEVELS if m <= max_level]


def cb_lower_bound(f: HoloFunction, max_level: int, budget: int, seed) -> CbEstimate:
    """Max of level sups over DEFAULT_LEVELS capped at max_level (`_levels`),
    with zero-pad lifting keeping the level table nondecreasing; each level
    is searched by `level_sup` until the lower bound meets the cap-ball
    bound W_cap (`_lower_table`), and `samples` records what each spent.
    The provenance names how level 1 was scanned (its witness's `source`),
    the ascended levels, and the levels lifted unsearched, with W_cap."""
    budget = matcore.check_budget(budget)
    levels = _levels(max_level)
    matcore.check_seed(seed)
    table, spent, cap = _lower_table(f, levels, budget, seed)
    lower = max(w.value for w in table.values())
    # Level 1 comes first and is always searched.
    searched = [m for m in levels if spent[m]]
    scanned = table[1].source
    sources = [f"{scanned} at level 1"] if scanned else []
    ascended = searched[1:] if scanned else searched
    if ascended:
        sources.append(f"projected-ascent level sups at levels {ascended}")
    provenance = f"lower: {', '.join(sources)}, budget {budget} per level, radius cap {RADIUS_CAP}"
    filled = [m for m in levels if not spent[m]]
    if filled:
        provenance += f", levels {filled} lifted unsearched: the lower bound met the cap-ball bound W_cap = {cap}"
    return CbEstimate(lower=float(lower), upper=None, level_table=table, samples=spent, provenance=provenance)


# ---------------------------------------------------------------------------
# Certified upper bounds


def _upper_rules(f: HoloFunction, t: float = 1.0):
    """The certified rule of the variant's kind at radius t, 0 < t <= 1 (each
    kind has exactly one): it majorizes Σ|aₙ|·tⁿ >= ‖f[X]‖ for ‖X‖ <= t at
    every level, and at t = 1 bounds the cb norm.

    Returns (bound, description of the rule).
    """
    if isinstance(f, PowerSeries):
        return _weighted_sum(f.coeffs, t), "coefficient-sum (exact polynomial)"
    if isinstance(f, Blaschke):
        if f.zeros.size == 0:
            return abs(f.c) * t**f.m, "coefficient-sum (monomial)"
        # The tail bound covers Σ_{n>K}|aₙ|, so Σ_{n>K}|aₙ|·tⁿ too.
        bound = _weighted_sum(f.taylor.coeffs, t) + f.taylor.tail_bound
        return bound, "coefficient-sum (rational form + majorant tail)"
    if isinstance(f, MoebiusQuotient):
        inner, _ = _upper_rules(f.inner, t)
        return inner / (1.0 - abs(f.a * t)), "quotient rule inner/(1-|a|)"
    if isinstance(f, GeometricPhi):
        r = f.certified_norm * t
        return r / (1.0 - r), "geometric functional r/(1-r)"
    if isinstance(f, Composite):
        # φ maps the ball of radius t into the disk of radius r·t.
        r = f.certified_norm
        if r == 0.0:
            return 0.0, "composite with zero functional"
        bound, rule = _upper_rules(f.scalar, r * t)
        return bound, f"composite via rescaled scalar part [{rule}]"
    if isinstance(f, Product):
        return _upper_rules(f.left, t)[0] * _upper_rules(f.right, t)[0], "product of factor bounds"
    if isinstance(f, Sum):
        return _upper_rules(f.left, t)[0] + _upper_rules(f.right, t)[0], "sum of summand bounds"
    if isinstance(f, Scale):
        inner, rule = _upper_rules(f.inner, t)
        return abs(f.c) * inner, f"scaled [{rule}]"
    raise InvalidInputError(f"no certified upper-bound rule for {type(f).__name__}")


def _finite_rule(f: HoloFunction, t: float = 1.0):
    """`_upper_rules` at radius t; a rule that overflows, or is positive but
    subnormal (a searched value there can round far past it), is refused.
    The whole rule walk runs under one overflow errstate, which
    `_weighted_sum` relies on."""
    with np.errstate(over="ignore"):
        bound, rule = _upper_rules(f, t)
    if not math.isfinite(bound):
        raise InvalidInputError(f"certified upper bound is not finite: {rule} = {bound}")
    if 0.0 < bound < np.finfo(float).smallest_normal:
        raise InvalidInputError(f"certified upper bound is subnormal: {rule} = {bound}")
    return bound, rule


def in_order(lower: float, upper: float) -> bool:
    """Whether a pair of bounds is in order: lower <= upper·(1 + SANDWICH_SLACK)."""
    return lower <= upper * (1.0 + SANDWICH_SLACK)


def _weighted_sum(coeffs: np.ndarray, t: float) -> float:
    """Σ|aₙ·tⁿ| over coefficients a₁, a₂, ...; at t = 1, Σ|aₙ| with its bits.
    A sum past the float range is inf, which `_finite_rule` refuses; the
    caller owns the overflow errstate (`_finite_rule` enters it once per rule
    walk), so an overflow outside it warns."""
    return float(np.abs(coeffs * t ** np.arange(1, coeffs.size + 1)).sum())


def cb_upper_bound(f: HoloFunction) -> float:
    """Certified upper bound for the cb norm; a rule that overflows, or is
    subnormal, is an input error (`_finite_rule`)."""
    return _finite_rule(f)[0]


def sandwich(f: HoloFunction, max_level: int, budget: int, seed) -> CbEstimate:
    """Both bounds, with the consistency check `in_order`; the lower bound is
    `cb_lower_bound`'s.  The certified upper comes first: a rule that
    overflows, or is subnormal, is an input error, raised before any search
    (`_finite_rule`)."""
    upper, rule = _finite_rule(f)
    est = cb_lower_bound(f, max_level, budget, seed)
    if not in_order(est.lower, upper):
        raise SandwichViolationError(
            f"lower bound {est.lower} exceeds certified upper bound {upper}; "
            "one of the two computations is wrong"
        )
    return replace(est, upper=upper, provenance=est.provenance + f"; upper: {rule} = {upper}")


# ---------------------------------------------------------------------------
# Property checks


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    trials: int
    worst_slack: float
    detail: str


def schwarz_check(f: HoloFunction, upper: float, trials: int, seed) -> CheckReport:
    """Sample (level, X) pairs and test ‖f_m(X)‖ <= upper·‖X‖·(1 + 1e-10) for a
    certified upper.  A disk function's X is the one entry of a sample over
    the scalar space.

    The trial levels come in trial order from `derive_rng(seed)`, the radii
    from `derive_rng(seed, 0)`, and the grids of the level-m trials in trial
    order from `derive_rng(seed, m)`.  Trials are taken in chunks that fill
    about `matcore.STACK_BYTES`: a chunk draws its levels and its radii with
    one call each, then each level's points with one
    `opspace._random_matrix_ball` call, and evaluates one stack per level.
    The streams run on across chunks, so the report does not depend on the
    chunk size, and every norm has the bits of the same trial evaluated
    alone.  A point outside the open ball is a DomainError, raised for the
    first such trial, as `holofun.amplify` raises it; the tightest trial is
    the first of the least slack."""
    if isinstance(upper, bool) or not isinstance(upper, (int, float)) or not math.isfinite(upper):
        raise InvalidInputError(f"schwarz check needs a finite upper bound, got {upper!r}")
    upper = float(upper)
    trials = matcore.check_budget(trials, "trials")
    space = f.domain_space
    sampled = opspace.space_scalar() if space is None else space
    # Rough bytes of one level-4 trial in the stacks: its grid and point, and
    # the realized point and its image.
    trial_bytes = 16 * 16 * (2 * sampled.dim + 2 * sampled.ambient**2)
    chunk = max(1, matcore.STACK_BYTES // trial_bytes)
    level_rng, radius_rng = matcore.derive_rng(seed), matcore.derive_rng(seed, 0)
    grid_rngs = {m: matcore.derive_rng(seed, m) for m in range(1, 5)}
    worst, worst_detail, failures = np.inf, "", 0
    for start in range(0, trials, chunk):
        levels = level_rng.integers(1, 5, size=min(chunk, trials - start))
        radii = radius_rng.uniform(0.05, RADIUS_CAP, size=levels.size)
        actual = np.empty(levels.size)
        offending = []  # (trial, norm) of each point outside the ball
        for m in range(1, 5):
            rows = np.flatnonzero(levels == m)
            if not rows.size:
                continue
            points = opspace._random_matrix_ball(grid_rngs[m], sampled, m, radii[rows])
            norms = matcore.operator_norms(opspace.block_matrix(points, sampled.basis))
            offending += [(rows[i], float(norms[i])) for i in np.flatnonzero(norms >= 1.0)]
            points = points[..., 0] if space is None else points
            actual[rows] = matcore.operator_norms(holofun._eval_array(f, points, False)[0])
        if offending:
            what = "operator" if space is None else "matrix"
            raise DomainError(f"matrix argument must have {what} norm < 1, got {min(offending)[1]}")
        slack = upper * radii - actual
        failures += int(np.count_nonzero(actual > upper * radii * (1.0 + 1e-10)))
        # The first least slack, as a trial-by-trial `slack < worst` keeps it:
        # NaN and +inf never replace the running worst.
        i = np.argmin(np.where(slack < np.inf, slack, np.inf))
        if slack[i] < worst:
            worst = slack[i]
            worst_detail = f"level {levels[i]}, radius {radii[i]:.6f}, amplified norm {actual[i]:.12f}"
    return CheckReport(
        passed=failures == 0,
        trials=trials,
        worst_slack=float(worst),
        detail=f"{failures} violations; tightest trial: {worst_detail}",
    )


def algebra_check(f: HoloFunction, g: HoloFunction, max_level: int, budget: int, seed) -> CheckReport:
    """Test the algebra inequality lower(f·g) <= upper(f)·upper(g)·(1 + SANDWICH_SLACK)."""
    uf = cb_upper_bound(f)
    ug = cb_upper_bound(g)
    lower = cb_lower_bound(Product(f, g), max_level, budget, seed).lower
    slack = uf * ug - lower
    return CheckReport(
        passed=in_order(lower, uf * ug),
        trials=1,
        worst_slack=float(slack),
        detail=f"lower(product) = {lower:.12f} vs bound product {uf * ug:.12f}",
    )

