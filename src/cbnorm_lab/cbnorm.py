"""Sandwich bounds for the completely bounded norm of a holomorphic function.

The lower bound maximizes the amplified norm over sampled-and-ascended
matrices at a sparse schedule of levels, with zero-padding used to transfer
witnesses upward (padding cannot change the amplified norm because every
function vanishes at 0).  The upper bound is the minimum over certified
analytic rules: exact coefficient sums, quotient and geometric-functional
bounds, and product/sum/scale combination rules.
"""

from __future__ import annotations

import json
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
# How far a lower bound may pass its upper bound before the pair is out of order.
SANDWICH_SLACK = 1e-6

# Fewest Taylor terms the Blaschke rule sums before bounding the tail.
_MIN_TRUNCATION = 256


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
    budget: int
    provenance: str


def serialize_matrix(mat) -> str:
    """Canonical string form used for deterministic tie-breaking."""
    arr = np.asarray(getattr(mat, "entries", mat))
    flat = [[float(v.real), float(v.imag)] for v in arr.ravel()]
    return json.dumps([list(arr.shape), flat], separators=(",", ":"))


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
        return matcore.project_ball(stack, RADIUS_CAP)

    def start(rng, radius):
        return matcore._random_ball(rng, m, radius)

    def witness_matrix(point):
        return point

    return objective, project, start, witness_matrix


def _space_problem(f: HoloFunction, m: int):
    space = f.domain_space

    def along_cap(grad, entries):
        # On the cap, the outward part of the gradient along the cap normal
        # would only be scaled back by `project`; drop it.
        nrm, u, v = matcore.top_singular_pair(opspace.block_matrix(entries, space.basis))
        if nrm < RADIUS_CAP * (1.0 - 1e-12):
            return grad
        normal = np.conj(opspace.block_adjoint(u, v, space.basis))
        outward = inner(grad, normal)
        return grad - (outward / inner(normal, normal)) * normal if outward > 0.0 else grad

    def objective(entries):
        values, gradient_at = _norms_and_gradients(*holofun._amplify_space_entries(f, entries))
        return values, lambda i: along_cap(gradient_at(i), entries[i])

    def project(stack):
        norms = matcore.operator_norms(opspace.block_matrix(stack, space.basis))
        outside = norms > RADIUS_CAP
        if not outside.any():
            return stack
        # Scaled part by part, so a −0.0 part stays −0.0.
        scale = (RADIUS_CAP / norms[outside]).reshape(-1, 1, 1, 1)
        out = stack.copy()
        out[outside] = (stack[outside].view(np.float64) * scale).view(np.complex128)
        return out

    def start(rng, radius):
        return opspace._random_matrix_ball(rng, space, m, radius).entries

    def witness_matrix(point):
        return opspace.OpSpaceMatrix(space, point)

    return objective, project, start, witness_matrix


def level_sup(f: HoloFunction, m: int, budget: int, seed) -> Witness:
    """Best found amplified norm over the level-m ball of radius 1 − 1e-6.

    Always a valid lower bound for the level-m supremum; budget counts
    objective evaluations across random restarts, and equal values go to the
    witness with the smaller serialization.
    """
    m = matcore.check_level(m)
    budget = matcore.check_count(budget, "budget")
    matcore.check_seed(seed)
    problem = _disk_problem if f.domain_space is None else _space_problem
    objective, project, start, witness_matrix = problem(f, m)

    def start_inside(rng):
        # Radii crowd toward the cap; the radius is drawn before the start.
        u = float(rng.uniform(0.0, 1.0))
        return start(rng, RADIUS_CAP * (1.0 - 0.999 * u * u))

    best_value, best_point = -np.inf, None
    for point, value in restarts(objective, project, start_inside, budget, seed, m):
        # A point serializes as its witness matrix does.
        if _beats(value, point, best_value, best_point):
            best_value, best_point = value, point
    return Witness(level=m, matrix=witness_matrix(best_point), value=float(best_value))


def _beats(value: float, matrix, best_value: float, best_matrix) -> bool:
    """A larger value wins; an equal one wins with the smaller serialization,
    which only an exact tie computes."""
    return value > best_value or (
        value == best_value and serialize_matrix(matrix) < serialize_matrix(best_matrix)
    )


def witness_value(f: HoloFunction, w: Witness) -> float:
    """Recompute the amplified norm at a stored witness."""
    return matcore.operator_norm(holofun.amplify(f, w.matrix))


def _lift_to(w: Witness, level: int) -> Witness:
    """Pad the witness with zero rows and columns up to `level`: same value."""
    pad = ((0, level - w.level),) * 2
    if isinstance(w.matrix, opspace.OpSpaceMatrix):
        mat = opspace.OpSpaceMatrix(w.matrix.space, np.pad(w.matrix.entries, pad + ((0, 0),)))
    else:
        mat = np.pad(np.asarray(w.matrix), pad)
    return Witness(level=level, matrix=mat, value=w.value)


def lift_witness(w: Witness) -> Witness:
    """Pad the witness with one zero row/column: same value, level + 1."""
    return _lift_to(w, w.level + 1)


def _lower_table(f: HoloFunction, levels, budget: int, seed) -> dict:
    # level_sup restarts until its per-level budget is gone, so each level
    # spends exactly `budget` evaluations.  A lifted lower-level witness
    # replaces the level's own when it `_beats` it.
    table = {}
    running = None
    for m in levels:
        w = level_sup(f, m, budget, seed)
        if running is not None:
            lifted = _lift_to(running, m)
            if _beats(lifted.value, lifted.matrix, w.value, w.matrix):
                w = lifted
        running = w
        table[m] = w
    return table


def _default_levels(max_level: int) -> list:
    """The schedule DEFAULT_LEVELS capped at max_level."""
    max_level = matcore.check_count(max_level, "max_level")
    return [m for m in DEFAULT_LEVELS if m <= max_level]


def cb_lower_bound(f: HoloFunction, max_level: int, budget: int, seed) -> CbEstimate:
    """Max of level sups over the schedule (1, 2, 4, 8) capped at max_level,
    with zero-pad lifting keeping the level table nondecreasing."""
    budget = matcore.check_count(budget, "budget")
    levels = _default_levels(max_level)
    table = _lower_table(f, levels, budget, seed)
    lower = max(w.value for w in table.values())
    provenance = (
        f"lower: projected-ascent level sups at levels {levels}, "
        f"budget {budget} per level, radius cap {RADIUS_CAP}"
    )
    return CbEstimate(
        lower=float(lower),
        upper=None,
        level_table=table,
        budget=budget,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Certified upper bounds


def _blaschke_truncation(zeros: np.ndarray) -> int:
    """Degree past which the slowest pole's geometric terms, max|b|^K, fall
    below 2^-53, clamped to [_MIN_TRUNCATION, holofun._MAX_TRUNCATION]."""
    peak = float(np.max(np.abs(zeros)))
    k = math.ceil(53 * math.log(2) / -math.log(peak)) if peak > 0.0 else 0
    return min(max(k, _MIN_TRUNCATION), holofun._MAX_TRUNCATION)


def _upper_rules(f: HoloFunction):
    """Minimum over the certified rules that apply to the variant.

    Returns (bound, description of the winning rule).
    """
    if isinstance(f, PowerSeries):
        return float(np.sum(np.abs(f.coeffs))), "coefficient-sum (exact polynomial)"
    if isinstance(f, Blaschke):
        if f.zeros.size == 0:
            return abs(f.c), "coefficient-sum (monomial)"
        tc = holofun.taylor_coefficients(f, _blaschke_truncation(f.zeros))
        bound = float(np.sum(np.abs(tc.coeffs))) + tc.tail_bound
        return bound, "coefficient-sum (rational form + majorant tail)"
    if isinstance(f, MoebiusQuotient):
        inner, _ = _upper_rules(f.inner)
        return inner / (1.0 - abs(f.a)), "quotient rule inner/(1-|a|)"
    if isinstance(f, GeometricPhi):
        r = f.certified_norm
        return r / (1.0 - r), "geometric functional r/(1-r)"
    if isinstance(f, Composite):
        r = f.certified_norm
        if r == 0.0:
            return 0.0, "composite with zero functional"
        bound, rule = _upper_rules(holofun.rescale_argument(f.scalar, r))
        return bound, f"composite via rescaled scalar part [{rule}]"
    if isinstance(f, Product):
        return _upper_rules(f.left)[0] * _upper_rules(f.right)[0], "product of factor bounds"
    if isinstance(f, Sum):
        return _upper_rules(f.left)[0] + _upper_rules(f.right)[0], "sum of summand bounds"
    if isinstance(f, Scale):
        inner, rule = _upper_rules(f.inner)
        return abs(f.c) * inner, f"scaled [{rule}]"
    raise InvalidInputError(f"no certified upper-bound rule for {type(f).__name__}")


def cb_upper_bound(f: HoloFunction) -> float:
    """Certified upper bound for the cb norm."""
    bound, _ = _upper_rules(f)
    return bound


def sandwich(f: HoloFunction, max_level: int, budget: int, seed) -> CbEstimate:
    """Both bounds, with the consistency check lower <= upper + SANDWICH_SLACK."""
    est = cb_lower_bound(f, max_level, budget, seed)
    upper, rule = _upper_rules(f)
    if est.lower > upper + SANDWICH_SLACK:
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
    """Sample (level, X) pairs and test ‖f_m(X)‖ <= upper·‖X‖ + 1e-8 for a certified upper."""
    if isinstance(upper, bool) or not isinstance(upper, (int, float)) or not math.isfinite(upper):
        raise InvalidInputError(f"schwarz check needs a finite upper bound, got {upper!r}")
    upper = float(upper)
    trials = matcore.check_count(trials, "trials")
    space = f.domain_space
    worst = np.inf
    worst_detail = ""
    failures = 0
    for t in range(trials):
        rng = matcore.derive_rng(seed, t)
        m = int(rng.integers(1, 5))
        radius = float(rng.uniform(0.05, RADIUS_CAP))
        if space is None:
            x = matcore._random_ball(rng, m, radius)
        else:
            x = opspace._random_matrix_ball(rng, space, m, radius)
        actual = matcore.operator_norm(holofun.amplify(f, x))
        slack = upper * radius - actual
        if slack < worst:
            worst = slack
            worst_detail = f"level {m}, radius {radius:.6f}, amplified norm {actual:.12f}"
        if actual > upper * radius + 1e-8:
            failures += 1
    return CheckReport(
        passed=failures == 0,
        trials=trials,
        worst_slack=float(worst),
        detail=f"{failures} violations; tightest trial: {worst_detail}",
    )


def algebra_check(f: HoloFunction, g: HoloFunction, max_level: int, budget: int, seed) -> CheckReport:
    """Test the algebra inequality lower(f·g) <= upper(f)·upper(g) + SANDWICH_SLACK."""
    uf = cb_upper_bound(f)
    ug = cb_upper_bound(g)
    lower = cb_lower_bound(Product(f, g), max_level, budget, seed).lower
    slack = uf * ug - lower
    return CheckReport(
        passed=lower <= uf * ug + SANDWICH_SLACK,
        trials=1,
        worst_slack=float(slack),
        detail=f"lower(product) = {lower:.12f} vs bound product {uf * ug:.12f}",
    )


@dataclass(frozen=True)
class ProbeReport:
    levels: tuple
    values: tuple
    slope: float
    relative_growth: float
    verdict: str
    note: str


def probe_levels(schedule) -> list:
    """The distinct levels, ascending, of a probe schedule: a non-empty list of
    levels in [1, MAX_LEVEL]."""
    if not isinstance(schedule, (list, tuple)) or not schedule:
        raise InvalidInputError(f"schedule must be a non-empty list of levels, got {schedule!r}")
    return sorted({matcore.check_level(m, "schedule entry") for m in schedule})


def question_probe(f: HoloFunction, max_level: int, budget: int, seed, schedule=None) -> ProbeReport:
    """Level-sup growth table with a least-squares trend on value vs log(level).

    The verdict is HEURISTIC EVIDENCE about boundedness of the amplified sups,
    never a proof in either direction.
    """
    if f.domain_space is not None:
        raise InvalidInputError("growth probe applies to disk-domain functions")
    levels = probe_levels(_default_levels(max_level) if schedule is None else schedule)
    table = _lower_table(f, levels, budget, seed)
    values = [table[m].value for m in levels]
    if len(levels) < 2:
        slope = 0.0
        rel = 0.0
        verdict = "inconclusive"
    else:
        logs = np.log(np.asarray(levels, dtype=float))
        slope = float(np.polyfit(logs, np.asarray(values), 1)[0])
        span = slope * (logs[-1] - logs[0])
        rel = float(span / max(max(values), 1e-12))
        if rel <= 0.02:
            verdict = "bounded"
        elif rel >= 0.15:
            verdict = "growing"
        else:
            verdict = "inconclusive"
    return ProbeReport(
        levels=tuple(levels),
        values=tuple(float(v) for v in values),
        slope=slope,
        relative_growth=rel,
        verdict=verdict,
        note="HEURISTIC EVIDENCE from finite sampling; not a proof",
    )
