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
from ._search import decode, positive_budget, real_gradient, restarts, to_sphere
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
        if self.target_level < 1:
            raise InvalidInputError("target level must be >= 1")


def validate_representation(k: MatrixSet, rep: HullRepresentation) -> None:
    """Check shapes against generator levels and the two contraction constraints."""
    n = rep.target_level
    if not rep.terms:
        raise InvalidRepresentationError("representation has no terms")
    row = np.zeros((n, n), dtype=np.complex128)
    col = np.zeros((n, n), dtype=np.complex128)
    for term in rep.terms:
        if not 0 <= term.index < len(k.generators):
            raise InvalidRepresentationError(f"generator index {term.index} out of range")
        level = k.generators[term.index].level
        alpha = matcore.as_matrix(term.alpha)
        beta = matcore.as_matrix(term.beta)
        if alpha.shape != (n, level) or beta.shape != (level, n):
            raise InvalidRepresentationError(
                f"term shapes {alpha.shape}, {beta.shape} do not match target level {n} "
                f"and generator level {level}"
            )
        row += alpha @ alpha.conj().T
        col += beta.conj().T @ beta
    if matcore.operator_norm(row) > 1.0 + _CONSTRAINT_TOL:
        raise InvalidRepresentationError("row constraint ‖Σ αα*‖ <= 1 violated")
    if matcore.operator_norm(col) > 1.0 + _CONSTRAINT_TOL:
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
    # Hermitian PSD inverse square root with a small ridge.
    vals, vecs = np.linalg.eigh(s + 1e-12 * np.eye(s.shape[0]))
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def random_representation(k: MatrixSet, target_level: int, rng) -> HullRepresentation:
    """Gaussian α, β for every generator, normalized into the constraint set."""
    n = target_level
    alphas, betas = [], []
    for gen in k.generators:
        kk = gen.level
        alphas.append(rng.standard_normal((n, kk)) + 1j * rng.standard_normal((n, kk)))
        betas.append(rng.standard_normal((kk, n)) + 1j * rng.standard_normal((kk, n)))
    row = sum(a @ a.conj().T for a in alphas)
    col = sum(b.conj().T @ b for b in betas)
    left = _inv_sqrt(row)
    right = _inv_sqrt(col)
    alphas = [left @ a for a in alphas]
    betas = [b @ right for b in betas]
    # The ridge leaves rank-deficient samples a hair outside the constraint
    # set; rescale onto it exactly.
    excess_row = matcore.operator_norm(sum(a @ a.conj().T for a in alphas))
    excess_col = matcore.operator_norm(sum(b.conj().T @ b for b in betas))
    if excess_row > 1.0:
        alphas = [a / np.sqrt(excess_row) for a in alphas]
    if excess_col > 1.0:
        betas = [b / np.sqrt(excess_col) for b in betas]
    terms = tuple(HullTerm(a, i, b) for i, (a, b) in enumerate(zip(alphas, betas)))
    return HullRepresentation(terms=terms, target_level=n)


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
    the identity representation must attain it exactly."""
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    bound = set_norm(k)
    worst = -np.inf
    failures = 0
    for t in range(int(trials)):
        rng = matcore.derive_rng(seed, t)
        level = int(rng.integers(1, 4))
        rep = random_representation(k, level, rng)
        excess = matrix_norm(hull_element(k, rep)) - bound
        worst = max(worst, excess)
        if excess > 1e-8:
            failures += 1
    best_index = int(np.argmax([matrix_norm(g) for g in k.generators]))
    attained = matrix_norm(hull_element(k, identity_representation(k, best_index))) == bound
    return HullReport(
        passed=failures == 0 and attained,
        trials=int(trials),
        set_norm=float(bound),
        worst_excess=float(worst),
        identity_attained=attained,
        detail=f"{failures} sampled violations; identity representation attains the bound: {attained}",
    )


# ---------------------------------------------------------------------------
# Separation certificates


@dataclass(frozen=True, eq=False)
class SeparationCertificate:
    """An n×n grid of functionals, stored as coefficient vectors against the
    basis dual to the space's basis."""

    space: ConcreteOperatorSpace
    grid: np.ndarray  # (n, n, d)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.complex128)
        if g.ndim != 3 or g.shape[0] != g.shape[1] or g.shape[2] != self.space.dim:
            raise InvalidInputError(f"grid must have shape (n, n, {self.space.dim}), got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise InvalidInputError("grid entries must be finite")
        object.__setattr__(self, "grid", g)

    @property
    def level(self) -> int:
        return self.grid.shape[0]


def pairing(f: SeparationCertificate, x: OpSpaceMatrix) -> np.ndarray:
    """The nm×nm matrix (f_ij(x_kl)), rows indexed by (i,k), columns by (j,l)."""
    if not same_space(f.space, x.space):
        raise InvalidInputError("certificate and matrix live over different spaces")
    return opspace.block_matrix(f.grid, np.moveaxis(x.entries, -1, 0))


def _pairing_gradient(f: SeparationCertificate, x: OpSpaceMatrix) -> np.ndarray:
    """The grid G with dσ₁(pairing(f, x)) = Re Σ G·d(f.grid), x's entries as basis."""
    _, u, v = matcore.top_singular_pair(pairing(f, x))
    return opspace.block_adjoint(u, v, np.moveaxis(x.entries, -1, 0))


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


def svd_compression_grid(x: OpSpaceMatrix):
    """Grid y ↦ u_k*·(realized y)·v_l from the top singular pair (u, v) of
    realize(x), returned with the n×N matrices of blocks u_k and v_l."""
    _, u, v = matcore.top_singular_pair(realize(x))
    return opspace.block_adjoint(u, v, x.space.basis), u.reshape(x.level, -1), v.reshape(x.level, -1)


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
    budget = positive_budget(budget)
    if not same_space(k.space, x0.space):
        raise InvalidInputError("matrix set and target live over different spaces")
    space = k.space
    # Each warm start costs one evaluation, like a restart's first point.
    for warm in (coordinate_grid(space), svd_compression_grid(x0)[0])[:budget]:
        found = _scale_to_certificate(k, x0, warm)
        if found is not None:
            return found

    n, d = x0.level, space.dim
    shape = (n, n, d)

    def objective(vec):
        f = SeparationCertificate(space, decode(vec, shape))
        verdict = check_certificate(f, k, x0)
        active = int(np.argmax(verdict.generator_values))
        peak = max(verdict.generator_values[active], 1e-12)

        def gradient():
            # The quotient rule, through the active generator's pairing.
            grad = _pairing_gradient(f, x0) / peak
            if verdict.generator_values[active] > 1e-12:
                grad = grad - verdict.target_value / peak**2 * _pairing_gradient(f, k.generators[active])
            return real_gradient(grad)

        return verdict.target_value / peak, gradient

    start = lambda rng: rng.standard_normal(2 * n * n * d)
    for vec, _ in restarts(objective, to_sphere, start, budget - 2, seed):
        found = _scale_to_certificate(k, x0, decode(vec, shape))
        if found is not None:
            return found
    return None
