"""Matrix sets, absolutely matrix convex hull representations, and
separation certificates.

A hull representation realizes a point Σ αᵢ·xᵢ·βᵢ of the hull from generators
xᵢ under the contraction constraints ‖Σ αᵢαᵢ*‖ <= 1 and ‖Σ βᵢ*βᵢ‖ <= 1.
Certificates are grids of coefficient functionals whose matrix pairing stays
<= 1 on the generators but exceeds 1 at a target point, witnessing that the
target lies outside the closed hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, opspace
from ._search import restarts, to_sphere
from .errors import InvalidInputError, InvalidRepresentationError
from .opspace import ConcreteOperatorSpace, OpSpaceMatrix, matrix_norm, realize, same_space

_CONSTRAINT_TOL = 1e-10
_PAIRING_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MatrixSet:
    """A finite family of generators, each at its own matrix level."""

    space: ConcreteOperatorSpace
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise InvalidInputError("a matrix set needs at least one generator")
        for g in gens:
            if not isinstance(g, OpSpaceMatrix) or not same_space(g.space, self.space):
                raise InvalidInputError("generators must be OpSpaceMatrix values over the set's space")
        object.__setattr__(self, "generators", gens)


def set_norm(k: MatrixSet) -> float:
    """sup of the generator norms (the norm of the generated matrix set)."""
    return max(matrix_norm(g) for g in k.generators)


@dataclass(frozen=True, eq=False)
class HullTerm:
    alpha: np.ndarray  # n × k_i
    index: int
    beta: np.ndarray  # k_i × n


@dataclass(frozen=True, eq=False)
class HullRepresentation:
    terms: tuple
    target_level: int

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "target_level", matcore.check_level(self.target_level, "target level"))


def validate_representation(k: MatrixSet, rep: HullRepresentation) -> None:
    """Check each term's generator and shapes, then the two contraction constraints."""
    if not rep.terms:
        raise InvalidInputError("representation has no terms")
    pairs = []
    for t in rep.terms:
        if not 0 <= t.index < len(k.generators):
            raise InvalidInputError(f"generator index {t.index} out of range")
        pairs.append(opspace.compression_pair(t.alpha, t.beta, rep.target_level, k.generators[t.index].level))
    _check_constraints(*zip(*pairs))


def _grams(alphas, betas):
    """Σ αα* and Σ β*β, summed in term order, for matrices or (T, ·, ·) stacks."""
    row = sum(a @ a.conj().swapaxes(-1, -2) for a in alphas)
    col = sum(b.conj().swapaxes(-1, -2) @ b for b in betas)
    return row, col


def _constraint_norms(alphas, betas):
    """‖Σ αα*‖ and ‖Σ β*β‖: floats for matrices, (T,) arrays for stacks."""
    row, col = _grams(alphas, betas)
    return matcore.operator_norms(row, row.ndim), matcore.operator_norms(col, col.ndim)


def _check_constraints(alphas, betas) -> None:
    """Both contraction constraints, on every matrix of the stacks."""
    row, col = _constraint_norms(alphas, betas)
    if np.any(row > 1.0 + _CONSTRAINT_TOL):
        raise InvalidRepresentationError("row constraint ‖Σ αα*‖ <= 1 violated")
    if np.any(col > 1.0 + _CONSTRAINT_TOL):
        raise InvalidRepresentationError("column constraint ‖Σ β*β‖ <= 1 violated")


def hull_element(k: MatrixSet, rep: HullRepresentation) -> OpSpaceMatrix:
    """The hull point Σ αᵢ·xᵢ·βᵢ at the representation's target level."""
    validate_representation(k, rep)
    n, d = rep.target_level, k.space.dim
    acc = np.zeros((n, n, d), dtype=np.complex128)
    for term in rep.terms:
        gen = k.generators[term.index]
        acc += opspace.compress(term.alpha, gen, term.beta).entries
    return OpSpaceMatrix(k.space, acc)


def identity_representation(k: MatrixSet, index: int) -> HullRepresentation:
    """Single-term representation α = β = I of one generator."""
    level = k.generators[index].level
    eye = np.eye(level, dtype=np.complex128)
    return HullRepresentation(terms=(HullTerm(eye, index, eye),), target_level=level)


def _inv_sqrt(s: np.ndarray) -> np.ndarray:
    # Hermitian PSD inverse square roots of a (T, n, n) stack, with a small ridge.
    vals, vecs = np.linalg.eigh(s + 1e-12 * np.eye(s.shape[-1]))
    return (vecs / np.sqrt(vals)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def _split(k: MatrixSet, target_level: int, draws: np.ndarray):
    """Per-generator (T, n, k_i) α and (T, k_i, n) β stacks from T rows of
    4·n·Σk_i standard normal draws.  A row holds, for each generator in turn,
    the real and then the imaginary parts of α, then those of β."""
    n = target_level
    alphas, betas, start = [], [], 0
    for gen in k.generators:
        size = n * gen.level
        parts = draws[:, start:start + 4 * size].reshape(-1, 2, 2, size)
        pair = parts[:, :, 0] + 1j * parts[:, :, 1]
        alphas.append(pair[:, 0].reshape(-1, n, gen.level))
        betas.append(pair[:, 1].reshape(-1, gen.level, n))
        start += 4 * size
    return alphas, betas


def _rescale(stacks, excess) -> np.ndarray:
    """Divide each sample whose constraint norm is above 1 by its square
    root; returns which samples were rescaled."""
    over = excess > 1.0
    if over.any():
        scale = np.sqrt(excess[over])[:, None, None]
        for s in stacks:
            s[over] = s[over] / scale
    return over


def _normalize(alphas, betas):
    """Map (T, n, k_i) α and (T, k_i, n) β stacks into the constraint set,
    each of the T samples on its own, and check both constraints.  A sample
    the rescaling left alone has constraint norms <= 1, just computed, so
    only the rescaled samples are checked again."""
    row, col = _grams(alphas, betas)
    left = _inv_sqrt(row)
    right = _inv_sqrt(col)
    alphas = [left @ a for a in alphas]
    betas = [b @ right for b in betas]
    # The ridge leaves rank-deficient samples a hair outside the constraint
    # set; rescale onto it exactly.
    excess_row, excess_col = _constraint_norms(alphas, betas)
    rescaled = _rescale(alphas, excess_row) | _rescale(betas, excess_col)
    if rescaled.any():
        _check_constraints([a[rescaled] for a in alphas], [b[rescaled] for b in betas])
    return alphas, betas


def _sampled_norms(k: MatrixSet, target_level: int, draws: np.ndarray) -> np.ndarray:
    """Norms of the hull points of a (T, 4·n·Σk_i) array of same-level draws,
    one stack per step: the normalized and checked α and β (`_normalize`),
    the points Σ αᵢ·xᵢ·βᵢ and their realizations."""
    alphas, betas = _normalize(*_split(k, target_level, draws))
    points = sum(
        np.einsum("tpr,rsd,tsq->tpqd", a, gen.entries, b)
        for a, gen, b in zip(alphas, k.generators, betas)
    )
    return matcore.operator_norms(opspace.block_matrix(points, k.space.basis))


@dataclass(frozen=True)
class HullReport:
    passed: bool
    trials: int
    set_norm: float
    worst_excess: float
    identity_attained: bool
    detail: str


def hull_norm_check(k: MatrixSet, trials: int, seed) -> HullReport:
    """Sampled hull points must not beat the generator norm (within 1e-8);
    the identity representation must attain it exactly.

    The trials, levels 1 to 3, come from `matcore.trial_chunks`: the α, β
    rows of each level's trials in a chunk are one `standard_normal` call on
    its stream, evaluated as one stack (`_sampled_norms`)."""
    trials = matcore.check_budget(trials, "trials")
    gen_norms = [matrix_norm(g) for g in k.generators]
    bound = max(gen_norms)
    best_index = int(np.argmax(gen_norms))
    width = 4 * sum(g.level for g in k.generators)
    # Rough bytes of one level-3 trial in the stacks: draws, α, β, point and realization.
    trial_bytes = 8 * 3 * width + 16 * 9 * (k.space.ambient**2 + k.space.dim)
    worst = -np.inf
    failures = 0
    for _, groups in matcore.trial_chunks(seed, trials, 3, trial_bytes):
        for level, rows, rng in groups:
            excess = _sampled_norms(k, level, rng.standard_normal((rows.size, level * width))) - bound
            worst = max(worst, float(excess.max()))
            failures += int(np.count_nonzero(excess > 1e-8))
    attained = matrix_norm(hull_element(k, identity_representation(k, best_index))) == bound
    return HullReport(
        passed=failures == 0 and attained,
        trials=trials,
        set_norm=float(bound),
        worst_excess=float(worst),
        identity_attained=attained,
        detail=f"{failures} sampled violations; identity representation attains the bound: {attained}",
    )


# ---------------------------------------------------------------------------
# Separation certificates


def check_grid(space: ConcreteOperatorSpace, grid) -> np.ndarray:
    """A grid of functionals on the space as an (n, n, d) complex array of
    finite coefficient vectors: the one check of every stored grid."""
    g = np.asarray(grid, dtype=np.complex128)
    if g.ndim != 3 or g.shape[0] != g.shape[1] or g.shape[2] != space.dim:
        raise InvalidInputError(f"grid must have shape (n, n, {space.dim}), got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise InvalidInputError("grid entries must be finite")
    return g


@dataclass(frozen=True, eq=False)
class SeparationCertificate:
    """An n×n grid of functionals, stored as coefficient vectors against the
    basis dual to the space's basis."""

    space: ConcreteOperatorSpace
    grid: np.ndarray  # (n, n, d)

    def __post_init__(self):
        object.__setattr__(self, "grid", check_grid(self.space, self.grid))

    @property
    def level(self) -> int:
        return self.grid.shape[0]


def _pairings(grid: np.ndarray, x: OpSpaceMatrix) -> np.ndarray:
    """`pairing` of a raw (n, n, d) grid, or of each grid of a (k, n, n, d) stack."""
    return opspace.block_matrix(grid, x.entries.transpose(2, 0, 1))


def pairing(f: SeparationCertificate, x: OpSpaceMatrix) -> np.ndarray:
    """The nm×nm matrix (f_ij(x_kl)), rows indexed by (i,k), columns by (j,l)."""
    if not same_space(f.space, x.space):
        raise InvalidInputError("certificate and matrix live over different spaces")
    return _pairings(f.grid, x)


@dataclass(frozen=True)
class CertificateVerdict:
    valid: bool
    generator_values: tuple
    target_value: float


def check_certificate(f: SeparationCertificate, k: MatrixSet, x0: OpSpaceMatrix) -> CertificateVerdict:
    """VALID iff the pairing norm is <= 1 + 1e-9 on every generator and
    > 1 + 1e-9 at the target.  Generators suffice: compressions and direct
    sums cannot push the pairing norm past the generator supremum."""
    if not (same_space(f.space, k.space) and same_space(f.space, x0.space)):
        raise InvalidInputError("certificate, matrix set and target live over different spaces")
    gen_values = tuple(matcore.operator_norm(pairing(f, g)) for g in k.generators)
    target = matcore.operator_norm(pairing(f, x0))
    valid = all(v <= 1.0 + _PAIRING_TOL for v in gen_values) and target > 1.0 + _PAIRING_TOL
    return CertificateVerdict(valid=valid, generator_values=gen_values, target_value=target)


def coordinate_grid(space: ConcreteOperatorSpace) -> np.ndarray:
    """Grid of ambient-entry functionals: pairing with it rebuilds the
    realization, so as a map into M_N its cb norm is exactly 1."""
    return np.ascontiguousarray(np.transpose(space.basis, (1, 2, 0)))


def svd_compression_grid(x: OpSpaceMatrix) -> np.ndarray:
    """Grid y ↦ u_k*·(realized y)·v_l from the top singular pair (u, v) of
    realize(x): `find_certificate`'s warm start.  No grid of cb norm <= 1
    norms a point better than the coordinate grid, which pairs it to its
    realization, so `gcb`'s evaluation-isometry check pairs with that alone."""
    return opspace.norm_gradient(realize(x), x.space.basis)


def _scale_to_certificate(k, x0, grid):
    verdict = check_certificate(SeparationCertificate(k.space, grid), k, x0)
    gen_max, target = max(verdict.generator_values), verdict.target_value
    if target <= 0.0:
        return None
    if gen_max > 1e-12:
        if target <= gen_max * (1.0 + 1e-6):
            return None
        scaled = SeparationCertificate(k.space, grid / gen_max)
    else:
        scaled = SeparationCertificate(k.space, grid * (2.0 / target))
    verdict = check_certificate(scaled, k, x0)
    return scaled if verdict.valid else None


def find_certificate(k: MatrixSet, x0: OpSpaceMatrix, budget: int, seed):
    """Search for a separating certificate; None means the search failed
    (which says nothing about hull membership).

    Deterministic warm starts (the realization grid, the top singular pair of
    the target) come first, then random grids improved by gradient ascent on
    the unit sphere of T/G: the target pairing norm over the largest
    generator pairing norm, floored at 1e-12.  Its gradient is dT/G − T·dG/G²,
    with dG that of the active generator's pairing.
    """
    budget = matcore.check_budget(budget)
    matcore.check_seed(seed)
    if not same_space(k.space, x0.space):
        raise InvalidInputError("matrix set and target live over different spaces")
    space = k.space
    # Each warm start costs one evaluation, like a restart's first point.
    for warm in (coordinate_grid(space), svd_compression_grid(x0))[:budget]:
        found = _scale_to_certificate(k, x0, warm)
        if found is not None:
            return found

    def objective(grids):
        target = matcore.operator_norms(_pairings(grids, x0))
        gen_values = np.stack([matcore.operator_norms(_pairings(grids, g)) for g in k.generators], axis=1)
        active = np.argmax(gen_values, axis=1)
        peak = np.maximum(gen_values.max(axis=1), 1e-12)

        def gradient_at(i):
            # The quotient rule, through the active generator's pairing.
            top, value = float(peak[i]), float(target[i])
            grad_of = lambda x: opspace.norm_gradient(_pairings(grids[i], x), x.entries.transpose(2, 0, 1))
            grad = grad_of(x0) / top
            if gen_values[i, active[i]] > 1e-12:
                grad = grad - value / top**2 * grad_of(k.generators[active[i]])
            return np.conj(grad)

        return target / peak, gradient_at

    def start(rng):
        return matcore.gaussian(rng, (x0.level, x0.level, space.dim))

    for grid, _ in restarts(objective, to_sphere, start, budget - 2, seed):
        found = _scale_to_certificate(k, x0, grid)
        if found is not None:
            return found
    return None
