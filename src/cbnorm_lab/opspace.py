"""Concrete finite-dimensional operator spaces.

A space is given by a linearly independent family of N×N basis matrices; a
level-m matrix over the space is an m×m grid of coefficient vectors, and all
matrix-level norms are computed on the realized mN×mN block matrix.  This is
an exactly computable model: every norm in the package bottoms out here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _search, matcore
from .errors import InvalidInputError

# Smallest singular value of the d×N² coordinate matrix must exceed this for
# the basis to count as linearly independent.
_INDEPENDENCE_TOL = 1e-10

# Largest builder parameter: the basis of M_k takes 16·k⁴ bytes, the others 16·n³.
MAX_SPACE_PARAM = 32


@dataclass(frozen=True, eq=False)
class ConcreteOperatorSpace:
    """A d-dimensional subspace of M_N spanned by explicit basis matrices."""

    basis: np.ndarray  # (d, N, N) complex
    kind: str = "custom"
    param: int = 0

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.complex128)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2] or basis.shape[0] < 1:
            raise InvalidInputError("basis must be a (d, N, N) array of square matrices")
        if not np.all(np.isfinite(basis)):
            raise InvalidInputError("basis entries must be finite")
        coords = basis.reshape(basis.shape[0], -1)
        smin = np.linalg.svd(coords, compute_uv=False)[-1] if coords.shape[0] <= coords.shape[1] else 0.0
        if smin <= _INDEPENDENCE_TOL:
            raise InvalidInputError("basis matrices are not linearly independent")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient(self) -> int:
        return self.basis.shape[1]


def same_space(a: ConcreteOperatorSpace, b: ConcreteOperatorSpace) -> bool:
    return a is b or (a.basis.shape == b.basis.shape and np.array_equal(a.basis, b.basis))


@dataclass(frozen=True, eq=False)
class OpSpaceElement:
    """A vector in the space, stored as coefficients against the basis."""

    space: ConcreteOperatorSpace
    coeffs: np.ndarray  # (d,) complex

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.space.dim,):
            raise InvalidInputError(f"expected {self.space.dim} coefficients, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    def as_level1(self) -> "OpSpaceMatrix":
        return OpSpaceMatrix(self.space, self.coeffs.reshape(1, 1, -1))


@dataclass(frozen=True, eq=False)
class OpSpaceMatrix:
    """An m×m grid of space elements (a point of the level-m matrix space)."""

    space: ConcreteOperatorSpace
    entries: np.ndarray  # (m, m, d) complex

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.ndim != 3 or e.shape[0] != e.shape[1] or e.shape[2] != self.space.dim:
            raise InvalidInputError(
                f"entries must have shape (m, m, {self.space.dim}), got {e.shape}"
            )
        if not np.all(np.isfinite(e)):
            raise InvalidInputError("entries must be finite")
        object.__setattr__(self, "entries", e)

    @property
    def level(self) -> int:
        return self.entries.shape[0]


def block_matrix(entries: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The mN×mN block matrix whose (i, j) block is Σ_k entries[i,j,k]·B_k,
    from raw (m, m, d) and (d, N, N) arrays."""
    m, _, d = entries.shape
    n = basis.shape[1]
    blocks = (entries.reshape(m * m, d) @ basis.reshape(d, n * n)).reshape(m, m, n, n)
    return blocks.swapaxes(1, 2).reshape(m * n, m * n)


def block_adjoint(u: np.ndarray, v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The (m, m, d) grid u_i*·B_k·v_j of the N-blocks of mN-vectors u and v:
    Re(u*·block_matrix(dE, basis)·v) = Re Σ grid·dE, so at the top singular
    pair (u, v) it gives the block norm's gradient in the entries."""
    n = basis.shape[1]
    return np.einsum("ka,tab,lb->klt", u.reshape(-1, n).conj(), basis, v.reshape(-1, n))


def realize(x: OpSpaceMatrix) -> np.ndarray:
    """The realized block matrix of x (see block_matrix)."""
    return block_matrix(x.entries, x.space.basis)


def matrix_norm(x: OpSpaceMatrix) -> float:
    """Operator norm of the realization; these norms satisfy Ruan's axioms."""
    return matcore.operator_norm(realize(x))


def element_norm(x: OpSpaceElement) -> float:
    return matrix_norm(x.as_level1())


def compress(alpha, x: OpSpaceMatrix, beta) -> OpSpaceMatrix:
    """Two-sided scalar compression α·x·β, computed on coefficient grids.

    alpha is l×m and beta is m×l where m is the level of x; the result lives
    at level l.  Realizing the result equals (α⊗I_N)·realize(x)·(β⊗I_N).
    """
    alpha = matcore.as_matrix(alpha)
    beta = matcore.as_matrix(beta)
    m = x.level
    if alpha.ndim != 2 or alpha.shape[1] != m or beta.shape[0] != m or beta.shape[1] != alpha.shape[0]:
        raise InvalidInputError(
            f"compression shapes must be (l, {m}) and ({m}, l), got {alpha.shape} and {beta.shape}"
        )
    out = np.einsum("pr,rsd,sq->pqd", alpha, x.entries, beta)
    return OpSpaceMatrix(x.space, out)


def direct_sum_matrices(x: OpSpaceMatrix, y: OpSpaceMatrix) -> OpSpaceMatrix:
    """Block-diagonal x ⊕ y at level level(x)+level(y)."""
    if not same_space(x.space, y.space):
        raise InvalidInputError("direct sum needs matrices over the same space")
    m, n, d = x.level, y.level, x.space.dim
    out = np.zeros((m + n, m + n, d), dtype=np.complex128)
    out[:m, :m] = x.entries
    out[m:, m:] = y.entries
    return OpSpaceMatrix(x.space, out)


# ---------------------------------------------------------------------------
# Builders


def _matrix_units(n: int, positions) -> np.ndarray:
    out = np.zeros((len(positions), n, n), dtype=np.complex128)
    for k, (i, j) in enumerate(positions):
        out[k, i, j] = 1.0
    return out


def space_scalar() -> ConcreteOperatorSpace:
    """The scalar space: one basis matrix [1] inside M_1."""
    return ConcreteOperatorSpace(np.ones((1, 1, 1), dtype=np.complex128), kind="scalar", param=1)


def space_mk(k: int) -> ConcreteOperatorSpace:
    """All of M_k, with the matrix units as basis (row-major order)."""
    if not 1 <= k <= MAX_SPACE_PARAM:
        raise InvalidInputError(f"k must lie in [1, {MAX_SPACE_PARAM}], got {k}")
    units = _matrix_units(k, [(i, j) for i in range(k) for j in range(k)])
    return ConcreteOperatorSpace(units, kind="matrix", param=k)


def space_row(n: int) -> ConcreteOperatorSpace:
    """Row Hilbertian space: first-row matrix units of M_n."""
    if not 1 <= n <= MAX_SPACE_PARAM:
        raise InvalidInputError(f"n must lie in [1, {MAX_SPACE_PARAM}], got {n}")
    return ConcreteOperatorSpace(_matrix_units(n, [(0, j) for j in range(n)]), kind="row", param=n)


def space_column(n: int) -> ConcreteOperatorSpace:
    """Column Hilbertian space: first-column matrix units of M_n."""
    if not 1 <= n <= MAX_SPACE_PARAM:
        raise InvalidInputError(f"n must lie in [1, {MAX_SPACE_PARAM}], got {n}")
    return ConcreteOperatorSpace(_matrix_units(n, [(j, 0) for j in range(n)]), kind="column", param=n)


def space_min_linf(d: int) -> ConcreteOperatorSpace:
    """Minimal quantization of ℓ∞^d: diagonal matrix units of M_d."""
    if not 1 <= d <= MAX_SPACE_PARAM:
        raise InvalidInputError(f"d must lie in [1, {MAX_SPACE_PARAM}], got {d}")
    return ConcreteOperatorSpace(_matrix_units(d, [(j, j) for j in range(d)]), kind="min_linf", param=d)


def closed_form_dual_norm(space: ConcreteOperatorSpace, phi) -> float | None:
    """Exact dual norm of a coefficient functional, for the builder spaces.

    Returns None for custom spaces, where only the sampled lower bound from
    dual_functional_norm is available.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (space.dim,):
        raise InvalidInputError(f"functional must have {space.dim} coefficients")
    if space.kind == "scalar":
        return float(abs(phi[0]))
    if space.kind == "min_linf":
        return float(np.sum(np.abs(phi)))
    if space.kind in ("row", "column"):
        return float(np.linalg.norm(phi))
    if space.kind == "matrix":
        k = space.param
        return float(np.sum(np.linalg.svd(phi.reshape(k, k), compute_uv=False)))
    return None


# ---------------------------------------------------------------------------
# Sampling and dual-norm estimation


def _random_matrix_ball(rng, space: ConcreteOperatorSpace, level: int, radius: float) -> OpSpaceMatrix:
    while True:
        g = rng.standard_normal((level, level, space.dim)) + 1j * rng.standard_normal(
            (level, level, space.dim)
        )
        x = OpSpaceMatrix(space, g)
        nrm = matrix_norm(x)
        if nrm > 0.0:
            return OpSpaceMatrix(space, g * (radius / nrm))


def sample_matrix_ball(space: ConcreteOperatorSpace, level: int, radius: float, seed) -> OpSpaceMatrix:
    """Deterministic level-`level` matrix over the space of norm exactly `radius`."""
    if level < 1:
        raise InvalidInputError("level must be >= 1")
    radius = float(radius)
    if not 0.0 < radius < 1.0:
        raise InvalidInputError(f"radius must lie in (0, 1), got {radius}")
    return _random_matrix_ball(matcore.derive_rng(seed), space, level, radius)


def dual_functional_norm(space: ConcreteOperatorSpace, phi, budget: int, seed=0) -> float:
    """Best found value of |Σ φ_k x_k| over unit-ball elements: a lower bound
    on the dual norm of the functional.

    Random complex-Gaussian starts followed by gradient ascent on the unit
    sphere of the quotient |p|/t, p = φ·c and t = ‖Σ c_k B_k‖ > 0, whose
    gradient is d|p|/t − |p|·dt/t² with d|p| = Re(conj(p)/|p|·φ·dc) (Re(φ·dc)
    where p = 0) and dt from the top singular pair.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (space.dim,):
        raise InvalidInputError(f"functional must have {space.dim} coefficients")
    budget = _search.positive_budget(budget)
    if not np.any(phi):
        return 0.0
    d = space.dim

    def objective(vec):
        c = _search.decode(vec, (1, 1, d))  # a level-1 matrix over the space
        p, realized = np.sum(c * phi), block_matrix(c, space.basis)
        t = matcore.operator_norm(realized)

        def gradient():
            _, u, v = matcore.top_singular_pair(realized)
            phase = np.conj(p) / abs(p) if p else 1.0
            return _search.real_gradient(phase * phi / t - abs(p) / t**2 * block_adjoint(u, v, space.basis))

        return abs(p) / t, gradient

    start = lambda rng: rng.standard_normal(2 * d)
    runs = _search.restarts(objective, _search.to_sphere, start, budget, seed)
    return max([0.0, *(value for _, value in runs)])
