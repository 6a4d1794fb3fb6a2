"""Sandwich bounds for the completely bounded norm of a holomorphic function.

The lower bound maximizes the amplified norm at a sparse schedule of levels:
level 1 of a disk function, or of a one-functional composite over a builder
space, by a scan of a circle of radius RADIUS_CAP (`_scan_unit`), every
other level by projected ascent from Gaussian starts on the set where its
sup over the cap ball is attained (the scaled unitaries RADIUS_CAP·U(m) of
a disk function, the cap sphere ‖X‖ = RADIUS_CAP of a space function, both
by the maximum principle), with zero-padding used to transfer
witnesses upward (padding cannot change the amplified norm because
every function vanishes at 0); once the lower bound meets the cap-ball
bound, nothing can beat it: the level-1 scan stops there, and the higher
levels take the padded witness unsearched (`_lower_table`).  The upper bound comes from the one
certified analytic rule of the function's kind: exact coefficient sums,
quotient and geometric-functional bounds, and product/sum/scale
combination rules.  Each rule takes a radius t and bounds the function on
the ball of radius t (`_upper_rules`): the upper bound is the rule at 1,
W_cap the rule at RADIUS_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import holofun, matcore, opspace
from ._search import inner, restarts
from .errors import InvalidInputError, SandwichViolationError
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

# The circle scan: the most evaluations it keeps for zooming, how many grid
# maxima it zooms, the points of one zoom round (shared by those maxima),
# and the most points it hands the objective at once.
_ZOOM_SHARE = 192
_ZOOM_PEAKS = 4
_ZOOM_ROWS = 16
_SCAN_STACK = 4096
# Scan values this close to the best, relatively, are ties: evaluation
# rounding alone spreads |z²| over the circle by 5 ulps.
_ROUNDING_TIE = 2.0**-50


@dataclass(frozen=True)
class Witness:
    """A feasible matrix certifying a lower bound at one level."""

    level: int
    matrix: object  # ndarray for disk functions, OpSpaceMatrix over a space
    value: float


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
    dF_jl = derivative[i, j, l]·dz_jl."""

    def gradient_at(i):
        _, u, v = matcore.top_singular_pair(values[i])
        weights = u.conj()[:, None] * v
        der = derivative[i]
        return np.conj(der * weights.reshape(weights.shape + (1,) * (der.ndim - 2)))

    return matcore.operator_norms(values), gradient_at


def _disk_problem(f: HoloFunction, m: int):
    def objective(stack):
        return _norms_and_gradients(*holofun._eval_array(f, stack))

    def project(stack):
        # The polar factor of each point, scaled: the nearest point of
        # RADIUS_CAP·U(m), where every level-m sup over the cap ball is
        # attained (see `level_sup`).
        u, _, vh = np.linalg.svd(stack, full_matrices=False)
        return RADIUS_CAP * (u @ vh)

    def start(rng):
        return matcore.gaussian(rng, (m, m))

    return objective, project, start


def _space_problem(f: HoloFunction, m: int):
    space = f.domain_space

    def along_cap(grad, entries):
        # Every point lies on the cap sphere, where the gradient's part along
        # the sphere's normal would only be scaled back by `project`; drop it.
        normal = np.conj(opspace.norm_gradient(opspace.block_matrix(entries, space.basis), space.basis))
        return grad - (inner(grad, normal) / inner(normal, normal)) * normal

    def objective(entries):
        values, gradient_at = _norms_and_gradients(*holofun._eval_array(f, entries))
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


def _scan_unit(f: HoloFunction):
    """The unit level-1 point u whose circle w·u, |w| = RADIUS_CAP, holds the
    maximum of |f| over the level-1 ball of radius RADIUS_CAP; None when
    none is known.

    A disk function's level-1 ball is the disk, where |f| peaks on the circle
    (maximum modulus): u = [1].  A functional's cb norm is its norm, so φ
    maps the level-1 ball of a space onto the closed disk of radius
    RADIUS_CAP·‖φ‖, where |g| peaks on the circle; with u the norming
    element of φ (`opspace.norming_element`), φ(w·u) = w·‖φ‖ runs over that
    circle.  So a composite g∘φ or a geometric functional over a builder
    space takes its norming element.  Products and sums of functionals, and
    custom spaces, have none.
    """
    if f.domain_space is None:
        return np.ones((1, 1), dtype=np.complex128)
    if isinstance(f, (Composite, GeometricPhi)):
        e = opspace.norming_element(f.space, f.phi)
        return None if e is None else e.reshape(1, 1, -1)
    return None


def level_sup(f: HoloFunction, m: int, budget: int, seed) -> Witness:
    """Best found amplified norm over the level-m ball of radius 1 − 1e-6.

    Always a valid lower bound for the level-m supremum, from exactly
    `budget` objective evaluations.  At level 1 of a function with a scan
    unit (`_scan_unit`: a disk function, or a one-functional composite over
    a builder space), |f| peaks on a circle of level-1 points, and
    `_circle_scan` searches that circle and reads no seed; here it has no
    ceiling and spends the whole budget, while `_lower_table` stops it at
    W_cap.  Every other level runs random restarts of projected ascent and
    keeps the first restart that reaches the best value.  Each restart
    starts from a raw complex Gaussian, which the ascent's first projection
    places where the sup is attained.  A disk function's ascent runs on the
    scaled unitaries RADIUS_CAP·U(m): for fixed unitaries U, V the map
    s ↦ ‖f[U·diag(s)·V*]‖ is plurisubharmonic on the polydisk, so the sup
    over the level-m ball of radius RADIUS_CAP is attained there, on its
    Shilov boundary.  A space's level-m ball need not hold a unitary, but
    λ ↦ ‖f[λX]‖ is subharmonic on the disk |λ| <= RADIUS_CAP/‖X‖, so it
    peaks on its circle, and the space ascent projects onto the cap sphere
    ‖X‖ = RADIUS_CAP.  Scanned or searched, the point becomes the witness's
    matrix by `_witness`.
    """
    m = matcore.check_level(m)
    budget = matcore.check_count(budget, "budget")
    matcore.check_seed(seed)
    unit = _scan_unit(f) if m == 1 else None
    if unit is not None:
        point, value, _ = _circle_scan(f, budget, unit)
    else:
        problem = _disk_problem if f.domain_space is None else _space_problem
        # max keeps the first of equal values.
        point, value = max(restarts(*problem(f, m), budget, seed, m), key=lambda run: run[1])
    return _witness(f.domain_space, m, point, value)


def _witness(space, level: int, point: np.ndarray, value) -> Witness:
    """The witness at a point: a disk point (space None) as its matrix, a
    space point's entries wrapped over the space."""
    matrix = point if space is None else opspace.OpSpaceMatrix(space, point)
    return Witness(level=level, matrix=matrix, value=float(value))


def _circle_scan(f: HoloFunction, budget: int, unit: np.ndarray, ceiling=None):
    """(point, value, evaluations spent) of the best of at most `budget`
    level-1 points w·unit, w = RADIUS_CAP·e^{iθ}, by the amplified norm
    |f(w·unit)|: `unit` is a disk function's 1×1 matrix [1] or the (1, 1, d)
    entries of a space's norming element (`_scan_unit`), and the point has
    its shape.

    A uniform grid from θ = 0 comes first; the budget's last
    min(budget // 2, _ZOOM_SHARE) points then zoom in on the grid's best
    local maxima, up to _ZOOM_PEAKS of them.  Each zoom round tries q points
    around each peak's best angle c, at c ± h/(q + 1), c ± 3h/(q + 1), ...
    in that order, inner ones first for a round the budget cuts short; q is
    the even share of _ZOOM_ROWS per peak.  Then h, which starts at the grid
    spacing, shrinks to the spacing 2h/(q + 1) of those points.
    With a `ceiling`, a value that no point beats but by rounding, the scan
    stops after the grid, or after the zoom round, whose best value reaches
    it: further rounds could raise the best by rounding alone.  Without one
    it spends the whole budget.
    The witness is the earliest point, in scan order, whose value ties the
    best up to _ROUNDING_TIE.

    The scan keeps the grid's values (8 bytes a point) and the zoom's points,
    no grid point: the witness, if a grid point, is made again from its chunk
    of angles, by the same arithmetic on the same array, so with its bits.
    """
    def points(theta):
        w = RADIUS_CAP * np.exp(1j * theta)
        return w.reshape((-1,) + (1,) * unit.ndim) * unit

    def norms(stack):
        return matcore.operator_norms(holofun._eval_array(f, stack, False)[0])

    n = budget - min(budget // 2, _ZOOM_SHARE)
    spacing = 2.0 * np.pi / n
    # Angles spacing·k of the grid chunk starting at k = lo.
    chunk = lambda lo: spacing * np.arange(lo, min(lo + _SCAN_STACK, n))
    at = np.empty(n)
    for lo in range(0, n, _SCAN_STACK):
        at[lo : lo + _SCAN_STACK] = norms(points(chunk(lo)))
    # Local maxima of the periodic grid, compared by slices with no copy of `at`.
    peak = np.empty(n, dtype=bool)
    peak[0], peak[1:] = at[0] >= at[-1], at[1:] >= at[:-1]
    peak[-1] &= at[-1] >= at[0]
    peak[:-1] &= at[:-1] >= at[1:]
    peaks = np.flatnonzero(peak)
    peaks = peaks[np.argsort(-at[peaks], kind="stable")][:_ZOOM_PEAKS]
    centers, best, h = spacing * peaks, at[peaks], spacing
    q = _ZOOM_ROWS // centers.size // 2 * 2
    odd = np.arange(1, q, 2) / (q + 1)
    offsets = np.stack([-odd, odd], axis=1).ravel()
    zoom = []  # (points, values) of each zoom round
    left, highest = budget - n, at.max()
    while left and (ceiling is None or highest < ceiling):
        candidates = centers[:, None] + h * offsets
        stack = points(candidates.ravel()[:left])
        tried = np.full(candidates.size, -np.inf)
        tried[: len(stack)] = norms(stack)
        zoom.append((stack, tried[: len(stack)]))
        highest = max(highest, tried.max())
        tried = tried.reshape(candidates.shape)
        top = np.argmax(tried, axis=1)
        rows = np.flatnonzero(tried[np.arange(centers.size), top] > best)
        centers[rows], best[rows] = candidates[rows, top[rows]], tried[rows, top[rows]]
        h *= 2.0 / (q + 1)
        left -= len(stack)
    tie, spent = highest * (1.0 - _ROUNDING_TIE), budget - left
    k = int(np.argmax(at >= tie))
    if at[k] >= tie:
        lo = k - k % _SCAN_STACK
        return points(chunk(lo))[k - lo], at[k], spent
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
    the certified rule at radius RADIUS_CAP.  Once the running lower bound
    reaches W_cap, up to the scan's rounding tie, nothing can beat it: the
    level-1 circle scan that `level_sup` would run stops, with W_cap as its
    ceiling, after the grid or the zoom round that reaches it, and spends
    only what it evaluated; each later level takes the lifted witness and
    spends nothing.  Any other searched level spends exactly `budget`
    evaluations (`level_sup`), and a lifted lower-level witness replaces its
    own only when its value is strictly larger.  W_cap passes `_finite_rule`
    before any search.
    """
    cap, _ = _finite_rule(f, RADIUS_CAP)
    met = cap * (1.0 - _ROUNDING_TIE)
    table, spent = {}, {}
    running = None
    for m in levels:
        if running is not None and running.value >= met:
            table[m], spent[m] = lift_witness(running, m), 0
            continue
        unit = _scan_unit(f) if m == 1 else None
        if unit is not None:
            point, value, spent[m] = _circle_scan(f, budget, unit, met)
            w = _witness(f.domain_space, m, point, value)
        else:
            w, spent[m] = level_sup(f, m, budget, seed), budget
        if running is not None and running.value > w.value:
            w = lift_witness(running, m)
        running = table[m] = w
    return table, spent, cap


def schedule_levels(schedule) -> list:
    """The distinct levels, ascending, of a schedule: a non-empty list of
    levels in [1, MAX_LEVEL]."""
    if not isinstance(schedule, (list, tuple)) or not schedule:
        raise InvalidInputError(f"schedule must be a non-empty list of levels, got {schedule!r}")
    return sorted({matcore.check_level(m, "schedule entry") for m in schedule})


def _levels(max_level: int, schedule) -> list:
    """The levels a bound searches: the schedule's (`schedule_levels`), each at
    most max_level, or with no schedule DEFAULT_LEVELS capped at max_level."""
    max_level = matcore.check_count(max_level, "max_level")
    if schedule is None:
        return [m for m in DEFAULT_LEVELS if m <= max_level]
    levels = schedule_levels(schedule)
    if levels[-1] > max_level:
        raise InvalidInputError(f"schedule level {levels[-1]} exceeds max_level {max_level}")
    return levels


def cb_lower_bound(f: HoloFunction, max_level: int, budget: int, seed, schedule=None) -> CbEstimate:
    """Max of level sups over the schedule's levels, or (1, 2, 4, 8), capped
    at max_level (`_levels`), with zero-pad lifting keeping the level table
    nondecreasing.  Level 1 of a function with a scan unit (a disk function,
    or a one-functional composite over a builder space) comes from the circle
    scan, every other level from projected ascent (`level_sup`).  Once the
    lower bound meets the cap-ball bound W_cap, nothing more is searched
    (`_lower_table`): the circle scan stops after the grid or zoom round that
    met it, and `samples` records what it spent; later levels take the
    lifted witness, spend 0 evaluations, and the provenance names them with
    W_cap."""
    budget = matcore.check_count(budget, "budget")
    levels = _levels(max_level, schedule)
    matcore.check_seed(seed)
    table, spent, cap = _lower_table(f, levels, budget, seed)
    lower = max(w.value for w in table.values())
    searched = [m for m in levels if spent[m]]
    scanned = 1 in searched and _scan_unit(f) is not None
    sources = ["circle scan at level 1"] if scanned else []
    ascended = searched[1:] if scanned else searched
    if ascended:
        sources.append(f"projected-ascent level sups at levels {ascended}")
    provenance = f"lower: {', '.join(sources)}, budget {budget} per level, radius cap {RADIUS_CAP}"
    filled = [m for m in levels if not spent[m]]
    if filled:
        provenance += f", levels {filled} lifted unsearched: the lower bound met the cap-ball bound W_cap = {cap}"
    return CbEstimate(
        lower=float(lower),
        upper=None,
        level_table=table,
        samples=spent,
        provenance=provenance,
    )


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
    subnormal (a searched value there can round far past it), is refused."""
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
    A sum past the float range is inf, which `_finite_rule` refuses."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(coeffs * t ** np.arange(1, coeffs.size + 1))))


def cb_upper_bound(f: HoloFunction) -> float:
    """Certified upper bound for the cb norm."""
    bound, _ = _upper_rules(f)
    return bound


def sandwich(f: HoloFunction, max_level: int, budget: int, seed, schedule=None) -> CbEstimate:
    """Both bounds, with the consistency check `in_order`; the lower bound
    searches the schedule's levels (`cb_lower_bound`).  The certified upper
    comes first: a rule that overflows, or is subnormal, is an input error,
    raised before any search (`_finite_rule`)."""
    upper, rule = _finite_rule(f)
    est = cb_lower_bound(f, max_level, budget, seed, schedule)
    if not in_order(est.lower, upper):
        raise SandwichViolationError(
            f"lower bound {est.lower} exceeds certified upper bound {upper}; "
            "one of the two computations is wrong"
        )
    return replace(
        est,
        upper=upper,
        provenance=est.provenance + f"; upper: {rule} = {upper}",
    )


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
    the scalar space."""
    if isinstance(upper, bool) or not isinstance(upper, (int, float)) or not math.isfinite(upper):
        raise InvalidInputError(f"schwarz check needs a finite upper bound, got {upper!r}")
    upper = float(upper)
    trials = matcore.check_count(trials, "trials")
    space = f.domain_space
    sampled = opspace.space_scalar() if space is None else space
    worst = np.inf
    worst_detail = ""
    failures = 0
    for t in range(trials):
        rng = matcore.derive_rng(seed, t)
        m = int(rng.integers(1, 5))
        radius = float(rng.uniform(0.05, RADIUS_CAP))
        x = opspace._random_matrix_ball(rng, sampled, m, radius)
        x = x[..., 0] if space is None else opspace.OpSpaceMatrix(space, x)
        actual = matcore.operator_norm(holofun.amplify(f, x))
        slack = upper * radius - actual
        if slack < worst:
            worst = slack
            worst_detail = f"level {m}, radius {radius:.6f}, amplified norm {actual:.12f}"
        if actual > upper * radius * (1.0 + 1e-10):
            failures += 1
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

