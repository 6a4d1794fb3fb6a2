"""Tests for the cb-norm sandwich: level sups, lifting, bound rules, checks."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cbnorm_lab import _search, cbnorm, descriptors, holofun, matcore, opspace
from cbnorm_lab.cbnorm import (
    RADIUS_CAP,
    Witness,
    _disk_problem,
    algebra_check,
    cb_lower_bound,
    cb_upper_bound,
    level_sup,
    lift_witness,
    sandwich,
    schwarz_check,
    witness_value,
)
from cbnorm_lab.errors import DomainError, InvalidInputError, SandwichViolationError
from cbnorm_lab.holofun import (
    Blaschke,
    Composite,
    GeometricPhi,
    MoebiusQuotient,
    PowerSeries,
    Product,
    Scale,
    Sum,
    amplify,
)
from cbnorm_lab.gcb import GcbElement
from cbnorm_lab.opspace import (
    MAX_SPACE_PARAM,
    ConcreteOperatorSpace,
    OpSpaceMatrix,
    closed_form_dual_norm,
    matrix_norm,
    space_column,
    space_min_linf,
    space_mk,
    space_row,
    space_scalar,
)

IDENTITY = PowerSeries([1.0])
SQUARE = PowerSeries([0.0, 1.0])
GEOMETRIC = MoebiusQuotient(IDENTITY, 0.5)
BLASCHKE_HALF = Blaschke(1.0, 1, [0.5])
MIN2 = space_min_linf(2)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _functional(space, r, seed):
    """A seeded functional on the space with dual norm r, and r as computed."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    phi *= r / closed_form_dual_norm(space, phi)
    return phi, closed_form_dual_norm(space, phi)


def lacunary(k_max=12):
    degrees = [2**k for k in range(1, k_max + 1)]
    coeffs = np.zeros(degrees[-1], dtype=complex)
    for k, deg in enumerate(degrees, start=1):
        coeffs[deg - 1] = 2.0**-k
    return PowerSeries(coeffs)


def test_level_sup_identity_reaches_cap():
    w = level_sup(IDENTITY, 1, 2000, 5)
    assert w.value >= 0.999
    assert w.value <= RADIUS_CAP + 1e-12


def test_level_sup_square_scalar():
    w = level_sup(SQUARE, 1, 10000, 5)
    assert w.value >= 0.99


def test_level_sup_moebius_matches_radial_oracle():
    # 1-D oracle: |z/(1-0.5z)| on the disk of radius RADIUS_CAP peaks on the
    # positive real axis.
    radii = np.linspace(0.0, RADIUS_CAP, 200001)
    oracle = float(np.max(radii / (1.0 - 0.5 * radii)))
    w = level_sup(GEOMETRIC, 1, 20000, 5)
    assert w.value <= oracle + 1e-12
    assert w.value >= oracle - 1e-3


def test_level_sup_witness_recomputable():
    w = level_sup(GEOMETRIC, 2, 3000, 5)
    assert abs(witness_value(GEOMETRIC, w) - w.value) < 1e-9


# Each projected value is within 16 ulps of RADIUS_CAP (ulp 2^-53 below 1).
_ON_CAP = 16 * 2.0**-53


def _on_the_scaled_unitaries(a):
    return np.all(np.abs(np.linalg.svd(a, compute_uv=False) - RADIUS_CAP) <= _ON_CAP)


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_disk_projection_rows_have_the_bits_of_one_point(m):
    # The line search evaluates its candidates as one stack; its outcome is
    # that of projecting each candidate alone only if the bits agree.
    _, project, _ = _disk_problem(GEOMETRIC, m)
    rng = np.random.default_rng(40 + m)
    for k in (1, 2, 8, 64):
        points = rng.standard_normal((k, m, m)) + 1j * rng.standard_normal((k, m, m))
        stack = points * (np.linspace(0.2, 2.0, k) / matcore.operator_norms(points))[:, None, None]
        out = project(stack)
        assert out.shape == stack.shape
        for point, row in zip(stack, out):
            assert row.tobytes() == project(point[None])[0].tobytes()
            assert _on_the_scaled_unitaries(row)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_searched_disk_witness_lies_on_the_scaled_unitaries(m):
    for f in (GEOMETRIC, BLASCHKE_HALF, Sum(SQUARE, Scale(-0.5j, GEOMETRIC))):
        w = level_sup(f, m, 300, 7)
        assert w.matrix.shape == (m, m) and _on_the_scaled_unitaries(w.matrix)
        assert witness_value(f, w).hex() == w.value.hex()


@pytest.mark.parametrize("seed", range(10))
def test_level_two_blaschke_search_leaves_the_cap_value(seed):
    # Clipped into the ball, 7 of these 10 searches crept along the cap and
    # ended near |f(RADIUS_CAP)| = 0.99999; on the scaled unitaries each
    # passes 1.05.
    assert level_sup(BLASCHKE_HALF, 2, 300, seed).value > 1.05


# ---------------------------------------------------------------------------
# Level 1 of a disk function: the circle scan


def _nonnegative_catalog():
    """The disk functions with nonnegative coefficients that the benchmark
    sandwiches: z, z², z/(1−z/2), z/(1−0.9z), Σ 2^-k·z^(2^k) and
    z·z/(1−z/2)."""
    return [IDENTITY, SQUARE, GEOMETRIC, MoebiusQuotient(IDENTITY, 0.9), lacunary(), Product(IDENTITY, GEOMETRIC)]


_SCAN_BUDGETS = [1, 2, 7, 300, 2 * cbnorm._SCAN_STACK + 300]
_BLASCHKE_COMPOSITE = Composite(BLASCHKE_HALF, space_mk(2), *_functional(space_mk(2), 0.6, 0))


def _unprojected(problem):
    """A search problem whose projection fails the test."""

    def failing(f, m):
        objective, _, start = problem(f, m)
        return objective, lambda stack: pytest.fail("the scan projected a point"), start

    return failing


@pytest.mark.parametrize(
    "budget, f",
    [pytest.param(b, BLASCHKE_HALF, id=str(b)) for b in _SCAN_BUDGETS]
    + [pytest.param(b, _BLASCHKE_COMPOSITE, id=f"composite-{b}") for b in _SCAN_BUDGETS],
)
def test_circle_scan_hands_the_objective_exactly_its_budget(monkeypatch, budget, f):
    # Only the calls on the scanned function itself are counted: a composite
    # evaluates its scalar part in a further call on the same stack.  Each
    # call counted is one stack of the scan, its points shaped as the scan
    # unit: 1×1 matrices, or a composite's 1×1 grids.  Points on the circle
    # need no projection.
    stacks = []
    eval_array = holofun._eval_array
    monkeypatch.setattr(
        holofun, "_eval_array", lambda g, z, *rest: (g is f and stacks.append(z.shape)) or eval_array(g, z, *rest)
    )
    for name in ("_disk_problem", "_space_problem"):
        monkeypatch.setattr(cbnorm, name, _unprojected(getattr(cbnorm, name)))
    w = level_sup(f, 1, budget, 5)
    assert sum(shape[0] for shape in stacks) == budget
    unit_shape = cbnorm._scan_unit(f).points(np.zeros((1, 1))).shape[1:]
    assert all(shape[1:] == unit_shape and shape[0] <= cbnorm._SCAN_STACK for shape in stacks)
    assert w.level == 1 and 0.0 < w.value < 1.0


def test_circle_scan_reads_no_seed():
    for f in (GEOMETRIC, BLASCHKE_HALF, lacunary()):
        first, second = level_sup(f, 1, 300, 1), level_sup(f, 1, 300, 2)
        assert first.value.hex() == second.value.hex()
        assert first.matrix.tobytes() == second.matrix.tobytes()


@pytest.mark.parametrize("budget", [1, 300, 2000])
def test_circle_scan_witness_recomputes_bit_for_bit(budget):
    for f in (*_nonnegative_catalog(), BLASCHKE_HALF, Sum(SQUARE, Scale(-0.5j, GEOMETRIC))):
        w = level_sup(f, 1, budget, 3)
        assert w.matrix.shape == (1, 1)
        assert matcore.operator_norm(w.matrix) < 1.0
        assert witness_value(f, w).hex() == w.value.hex()


@pytest.mark.parametrize("budget", [1, 300, 2000])
def test_circle_scan_takes_the_cap_for_nonnegative_coefficients(budget):
    # |f| <= f(|z|) on the disk, so z = RADIUS_CAP is a maximizer; points on
    # the circle that beat it do so by rounding alone, and tie with it.
    cap = np.array([[RADIUS_CAP]], dtype=np.complex128)
    for f in _nonnegative_catalog():
        w = level_sup(f, 1, budget, 3)
        assert w.matrix.tobytes() == cap.tobytes()
        assert w.value == matcore.operator_norm(amplify(f, cap))


def test_circle_scan_memory_does_not_grow_with_the_points_it_scans():
    # The scan keeps 8 bytes of grid value per point and no grid point.  When
    # it kept every point and value, a budget-2 000 000 scan of this function
    # peaked at 112 MB under tracemalloc (56 bytes a point), with the witness
    # whose bits are asserted here.
    budget = 2_000_000
    level_sup(BLASCHKE_HALF, 1, 300, 1)
    tracemalloc.start()
    try:
        w = level_sup(BLASCHKE_HALF, 1, budget, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * budget
    assert w.value.hex() == "0x1.ffffd342c17adp-1"
    assert w.matrix.tobytes().hex() == "b2db10e4fdffefbff7cc9a78db001c3f"


@pytest.mark.parametrize("f", [IDENTITY, BLASCHKE_HALF], ids=["first-chunk", "later-chunk"])
def test_circle_scan_stops_at_a_grid_that_meets_its_ceiling(monkeypatch, f):
    # Any grid meets the ceiling 0: the scan hands the objective the grid's
    # chunks, one call each, and no zoom round.  z peaks at θ = 0, in the
    # first chunk, whose points the scan keeps; the Blaschke product at
    # θ = π, in the second chunk, which the witness is rebuilt from.
    budget = 3 * cbnorm._SCAN_STACK
    grid = budget - cbnorm._ZOOM_SHARE
    stacks = []
    eval_array = holofun._eval_array
    monkeypatch.setattr(
        holofun, "_eval_array", lambda g, z, *rest: (g is f and stacks.append(len(z))) or eval_array(g, z, *rest)
    )
    point, value, spent = cbnorm._circle_scan(f, budget, cbnorm._scan_unit(f), 0.0)
    assert spent == sum(stacks) == grid
    assert stacks == [cbnorm._SCAN_STACK, cbnorm._SCAN_STACK, grid - 2 * cbnorm._SCAN_STACK]
    spacing = 2.0 * np.pi / grid
    k = int(round(np.angle(point[0, 0]) / spacing)) % grid
    assert (k == 0) is (f is IDENTITY)
    lo = k - k % cbnorm._SCAN_STACK
    chunk = RADIUS_CAP * np.exp(1j * (spacing * np.arange(lo, min(lo + cbnorm._SCAN_STACK, grid))))
    assert point.tobytes() == (chunk.reshape(-1, 1, 1) * np.ones((1, 1)))[k - lo].tobytes()
    assert value.tobytes() == np.float64(witness_value(f, Witness(1, point, value))).tobytes()


def test_circle_scan_finds_the_blaschke_maximum_at_minus_the_cap():
    # |z(z−½)/(1−½z)| on |z| = r peaks at z = −r: r(r + ½)/(1 + r/2).
    w = level_sup(BLASCHKE_HALF, 1, 300, 3)
    assert abs(abs(np.angle(w.matrix[0, 0])) - np.pi) < 1e-6
    r = RADIUS_CAP
    assert w.value == pytest.approx(r * (r + 0.5) / (1.0 + 0.5 * r), rel=1e-15)


# ---------------------------------------------------------------------------
# Level 1 of a one-functional composite: the circle scan through a norming element


# One space of each builder kind, with a composite g∘φ (g = z/(1−z/2)) and a
# geometric functional φ/(1−φ), both with nonnegative coefficients, so that
# |f| peaks at φ(x) = RADIUS_CAP·‖φ‖.
SCANNED = [
    pytest.param(space, kind, seed, id=f"{space.kind}{space.param}-{kind}")
    for seed, space in enumerate([space_scalar(), space_mk(2), space_mk(3), space_row(3), space_column(2), MIN2])
    for kind in ("composite", "geometric_phi")
]


def _scanned(space, kind, seed):
    phi, r = _functional(space, 0.6, seed)
    if kind == "composite":
        return Composite(GEOMETRIC, space, phi, r), lambda t: t / (1.0 - 0.5 * t)
    return GeometricPhi(space, phi, r), lambda t: t / (1.0 - t)


@pytest.mark.parametrize("space, kind, seed", SCANNED)
def test_one_functional_level_one_takes_the_cap_circle(space, kind, seed):
    f, g = _scanned(space, kind, seed)
    w = level_sup(f, 1, 300, 3)
    expected = g(RADIUS_CAP * closed_form_dual_norm(space, f.phi))
    assert abs(w.value - expected) <= 1e-12 * expected
    assert isinstance(w.matrix, OpSpaceMatrix) and w.matrix.level == 1
    assert matrix_norm(w.matrix) < 1.0
    assert witness_value(f, w).hex() == w.value.hex()
    other = level_sup(f, 1, 300, 4)
    assert other.value.hex() == w.value.hex()
    assert other.matrix.entries.tobytes() == w.matrix.entries.tobytes()


@pytest.mark.parametrize("m", [1, 2], ids=["scanned", "searched"])
def test_level_sup_wraps_every_witness_for_its_domain(m):
    # Level 1 is the circle scan and level 2 the ascent: either way a
    # function over a space gets an OpSpaceMatrix over that space, and a
    # disk function a complex array.
    f, _ = _scanned(space_mk(2), "composite", 1)
    w = level_sup(f, m, 50, 1)
    assert type(w.matrix) is OpSpaceMatrix and w.matrix.space is f.space and w.matrix.level == m
    w = level_sup(BLASCHKE_HALF, m, 50, 1)
    assert type(w.matrix) is np.ndarray and w.matrix.dtype == np.complex128 and w.matrix.shape == (m, m)


def test_one_functional_provenance_names_the_scan():
    # The Blaschke composite's level 1 stays below its cap-ball bound, so
    # levels 2 and 4 are searched; g∘φ with g = z/(1−z/2), and φ/(1 − φ),
    # meet it at level 1.
    f = Composite(BLASCHKE_HALF, MIN2, *_functional(MIN2, 0.6, 0))
    est = cb_lower_bound(f, 4, 50, 1)
    assert est.provenance.startswith("lower: circle scan at level 1, projected-ascent level sups at levels [2, 4]")
    for kind in ("composite", "geometric_phi"):
        f, _ = _scanned(MIN2, kind, 0)
        est = cb_lower_bound(f, 4, 50, 1)
        assert est.provenance.startswith("lower: circle scan at level 1, budget 50 per level, radius cap 0.999999, ")
        assert "levels [2, 4] lifted unsearched" in est.provenance


@pytest.mark.parametrize("kind", ["composite", "geometric_phi"])
def test_a_stopped_sandwich_finds_one_norming_element(kind, monkeypatch):
    # Level 1's scan unit is decided once, in `level_sup`, and the
    # provenance reads its witness: over M_2 each norming element costs two
    # SVDs, and one is found.
    calls = []
    norming_element = opspace.norming_element
    monkeypatch.setattr(opspace, "norming_element", lambda *args: calls.append(args) or norming_element(*args))
    f, _ = _scanned(space_mk(2), kind, 1)
    est = sandwich(f, 4, 300, 1)
    assert est.samples == {1: 150, 2: 0, 4: 0}
    assert len(calls) == 1


# The composite z∘φ over M_2 with φ = (0.3, 0.2i, −0.1, 0.4), whose level 1
# once took the seeded ascent when scaled.
_IDENTITY_COMPOSITE = Composite(IDENTITY, space_mk(2), np.array([0.3, 0.2j, -0.1, 0.4]), 0.5)


@pytest.mark.parametrize("c", [0.5, -2j], ids=["half", "minus-2i"])
@pytest.mark.parametrize("kind", ["composite", "geometric_phi", "identity_composite"])
def test_a_scaled_lone_leaf_scans_the_circle_of_its_leaf(kind, c, monkeypatch):
    # A scale changes no functional leaf, so c·g scans g's circle: level 1
    # reads no seed, finds g's witness, and its value is |c| times g's, bit
    # for bit, since scaling by 0.5 or −2i is exact.  Like g, c·g meets its
    # cap-ball bound at level 1, and the sandwich stops there.
    g = _IDENTITY_COMPOSITE if kind == "identity_composite" else _scanned(space_mk(2), kind, 1)[0]
    f = Scale(c, g)
    _seedless(monkeypatch)
    bare, w = level_sup(g, 1, 300, 1), level_sup(f, 1, 300, 2)
    assert w.matrix.entries.tobytes() == bare.matrix.entries.tobytes()
    assert w.value.hex() == (abs(c) * bare.value).hex()
    assert w.samples == bare.samples and w.source == "circle scan"
    est = sandwich(f, 4, 300, 3)
    assert est.samples == {1: 150, 2: 0, 4: 0}
    assert est.lower.hex() == (abs(c) * sandwich(g, 4, 300, 3).lower).hex()
    assert est.provenance.startswith("lower: circle scan at level 1, budget 300 per level, ")


def test_custom_space_and_two_functionals_still_search_level_one():
    # A custom space has no closed-form norming element, for one functional
    # or for a combination of two, and a product of three functionals is no
    # function of two: all keep the seeded ascent.  (A product of two
    # functionals over a builder space takes the joint norming scan.)
    custom = ConcreteOperatorSpace(space_row(2).basis)
    phi = np.array([0.3, 0.4j])
    two = Product(Composite(GEOMETRIC, custom, phi, 0.5), GeometricPhi(custom, 0.5 * phi[::-1], 0.25))
    a, b, c = (_scanned(MIN2, kind, seed)[0] for kind, seed in (("composite", 0), ("geometric_phi", 0), ("composite", 1)))
    three = Product(Product(a, b), c)
    for f in (Composite(GEOMETRIC, custom, phi, 0.5), two, three):
        assert cbnorm._scan_unit(f) is None
        first, second = level_sup(f, 1, 300, 1), level_sup(f, 1, 300, 2)
        for w in (first, second):
            assert matrix_norm(w.matrix) <= RADIUS_CAP * (1.0 + 1e-12)
            assert abs(witness_value(f, w) - w.value) <= 1e-12 * w.value
        assert first.matrix.entries.tobytes() != second.matrix.entries.tobytes()
        assert cb_lower_bound(f, 2, 50, 1).provenance.startswith("lower: projected-ascent level sups at levels [1, 2]")


# ---------------------------------------------------------------------------
# Level 1 of a two-functional function: the joint norming scan


_BUILDER_SPACES = [space_scalar(), space_mk(2), space_mk(3), space_row(3), space_column(2), MIN2]


def _two_functionals(space, kind, seed):
    """A seeded product or sum of two functional leaves over the space:
    g∘φ₁ and, for odd seeds, h∘φ₂, for even ones the geometric functional
    φ₂/(1 − φ₂), with g and h drawn from a few disk functions."""
    rng = np.random.default_rng(seed)
    scalars = (IDENTITY, SQUARE, GEOMETRIC, BLASCHKE_HALF, PowerSeries([0.3, -0.5j, 0.2]))
    (phi1, r1), (phi2, r2) = (_functional(space, rng.uniform(0.3, 0.8), 100 * seed + i) for i in (1, 2))
    first = Composite(scalars[rng.integers(len(scalars))], space, phi1, r1)
    second = (
        Composite(scalars[rng.integers(len(scalars))], space, phi2, r2) if seed % 2 else GeometricPhi(space, phi2, r2)
    )
    return Product(first, second) if kind == "product" else Sum(first, Scale(0.5 - 0.25j, second))


TWO_FUNCTIONALS = [
    pytest.param(space, kind, seed, id=f"{space.kind}{space.param}-{kind}-{seed}")
    for space in _BUILDER_SPACES
    for kind in ("product", "sum")
    for seed in (1, 2)
]


@pytest.mark.parametrize("space, kind, seed", TWO_FUNCTIONALS)
def test_two_functional_level_one_witness_recomputes_bit_for_bit(space, kind, seed):
    f = _two_functionals(space, kind, seed)
    assert len(cbnorm._scan_unit(f).axes) == 2
    w = level_sup(f, 1, 300, seed)
    assert isinstance(w.matrix, OpSpaceMatrix) and w.matrix.level == 1
    assert matrix_norm(w.matrix) < 1.0
    assert witness_value(f, w).hex() == w.value.hex()
    est = cb_lower_bound(f, 2, 300, seed)
    assert witness_value(f, est.level_table[1]).hex() == est.level_table[1].value.hex()
    met = cbnorm._finite_rule(f, RADIUS_CAP)[0] * (1.0 - cbnorm._ROUNDING_TIE)
    if est.level_table[1].value < met:
        # The scan spends its 150, the polish at least 1 of its 150.
        assert 150 < est.samples[1] == w.samples <= 300
        assert est.level_table[1].value.hex() == w.value.hex()
        assert est.provenance.startswith("lower: joint norming scan and Frank–Wolfe polish at level 1, ")
    else:
        # Over the scalar space both functionals norm at one point: a scan
        # that meets W_cap stops, and is not polished.
        assert space.kind == "scalar" and kind == "product"
        assert est.samples == {1: 64, 2: 0}
        assert est.provenance.startswith("lower: joint norming scan at level 1, budget 300 per level, ")


@pytest.mark.parametrize(
    "space, kind, seed, budget",
    [pytest.param(*case.values, 300, id=case.id) for case in TWO_FUNCTIONALS]
    + [pytest.param(space_scalar(), "product", 1, 2000, id="scalar-product-stopped")],
)
def test_level_one_source_names_the_polish_exactly_when_it_spent(space, kind, seed, budget):
    # A joint scan spends at most budget − budget // 2 and a polish that
    # runs at least 1, so the samples tell whether the polish ran, and the
    # witness's source says the same.  The last case's scan meets W_cap on
    # its grid and stops.
    est = cb_lower_bound(_two_functionals(space, kind, seed), 2, budget, seed)
    polished = est.samples[1] > budget - budget // 2
    assert est.level_table[1].source == "joint norming scan" + " and Frank–Wolfe polish" * polished
    assert est.provenance.startswith(f"lower: {est.level_table[1].source} at level 1, ")
    if budget == 2000:
        assert est.samples == {1: 729, 2: 0} and not polished


def _seedless(monkeypatch):
    """Make every seeded generator fail: `_search` holds its own name for
    `matcore.derive_rng`."""
    fail = lambda *args: pytest.fail("read a seed")
    monkeypatch.setattr(matcore, "derive_rng", fail)
    monkeypatch.setattr(_search, "derive_rng", fail)


@pytest.mark.parametrize("space, kind, seed", TWO_FUNCTIONALS)
def test_joint_scan_reads_no_seed_and_never_loses_to_its_ascent(space, kind, seed, monkeypatch):
    # Level 1's ascent is the Frank–Wolfe polish of the scan's witness: it
    # starts there, reads no seed, so two seeds give one witness, and never
    # ends below the scan's value.
    f = _two_functionals(space, kind, seed)
    scan = cbnorm._circle_scan(f, 150, cbnorm._scan_unit(f))
    starts = []
    polish = cbnorm.polish
    monkeypatch.setattr(cbnorm, "polish", lambda *args: starts.append(args[2:4]) or polish(*args))
    _seedless(monkeypatch)
    first, second = (level_sup(f, 1, 300, other) for other in (seed, seed + 1))
    assert [(x.tobytes(), value.hex()) for x, value in starts] == 2 * [(scan[0].tobytes(), scan[1].hex())]
    assert second.value.hex() == first.value.hex()
    assert second.matrix.entries.tobytes() == first.matrix.entries.tobytes()
    assert first.value >= scan[1]


@pytest.mark.parametrize("budget", [1, 2, 3, 7, 300, 2001])
def test_joint_scan_spends_half_the_budget_and_the_ascent_the_rest(budget, monkeypatch):
    # The scan hands the objective stacks of (1, 1, d) points without
    # derivatives, budget − budget // 2 of them (budget 1 is a one-point
    # scan); the Frank–Wolfe polish, level 1's ascent, gets the rest, and
    # evaluates at most that many points; at budget 1 the rest is 0 and the
    # polish does not run.  Level 1 counts what the scan and the polish
    # spent, and reads no seed.
    f = _two_functionals(space_mk(2), "product", 1)
    scanned, polished, granted = [], [], []
    eval_array = holofun._eval_array

    def counted(g, z, *rest):
        if g is f:
            (scanned if rest == (False,) else polished).append(len(z))
        return eval_array(g, z, *rest)

    monkeypatch.setattr(holofun, "_eval_array", counted)
    polish = cbnorm.polish
    monkeypatch.setattr(cbnorm, "polish", lambda *args: granted.append(args[-1]) or polish(*args))
    _seedless(monkeypatch)
    est = cb_lower_bound(f, 1, budget, 5)
    assert sum(scanned) == budget - budget // 2 and all(n <= cbnorm._SCAN_STACK for n in scanned)
    assert [b.left + b.used for b in granted] == [budget // 2] * (budget > 1)
    used = sum(b.used for b in granted)
    assert sum(polished) <= used <= budget // 2 and (used > 0) is (budget > 1)
    assert est.samples == {1: budget - budget // 2 + used}
    w = est.level_table[1]
    assert matrix_norm(w.matrix) < 1.0
    assert witness_value(f, w).hex() == w.value.hex()
    if budget == 1:
        assert not polished
        assert est.provenance.startswith("lower: joint norming scan at level 1, budget 1 per level, ")
    else:
        assert est.provenance.startswith("lower: joint norming scan and Frank–Wolfe polish at level 1, budget ")


def test_joint_scan_keeps_the_first_of_equal_values_the_scan_first(monkeypatch):
    # A polish whose candidates tie the scan leaves the scan's witness; of
    # candidates that beat it by an ulp, the first (the largest step) wins.
    f = _two_functionals(MIN2, "sum", 1)
    point, value, _ = cbnorm._circle_scan(f, 150, cbnorm._scan_unit(f))
    objective, oracle = cbnorm._polish_problem(f)
    up = np.nextafter(value, np.inf)
    for tried, expected in (([value] * 8, None), ([value, up, up, value, up, value, value, value], 1)):
        stacks = []

        def stub(stack):
            values, gradient_at = objective(stack)
            if len(stack) > 1:
                stacks.append(stack)
                # The first candidate stack as given, every later one no better.
                values = np.array(tried if len(stacks) == 1 else [value] * len(stack))
            return values, gradient_at

        monkeypatch.setattr(cbnorm, "_polish_problem", lambda g: (stub, oracle))
        w = level_sup(f, 1, 300, 1)
        if expected is None:
            assert w.matrix.entries.tobytes() == point.tobytes() and w.value == value
        else:
            assert w.matrix.entries.tobytes() == stacks[0][expected].tobytes() and w.value == up


def test_joint_scan_that_meets_the_ceiling_runs_no_ascent(monkeypatch):
    # Any grid meets the ceiling 0: the scan spends its grid, of the
    # budget − budget // 2 it is given, and the Frank–Wolfe polish, level
    # 1's ascent, does not run.
    f = _two_functionals(space_row(3), "product", 2)
    monkeypatch.setattr(cbnorm, "polish", lambda *args: pytest.fail("polished"))
    w = level_sup(f, 1, 300, 1, ceiling=0.0)
    sizes, _, _ = cbnorm._scan_unit(f).grid(150 - 75)
    assert w.samples == int(np.prod(sizes)) <= 75
    assert witness_value(f, w).hex() == w.value.hex()


def test_joint_scan_finds_the_catalog_product_level_one_sup():
    # The benchmark's two-functional product over M_2, g₁∘φ₁·g₂∘φ₂ with
    # g₁ = z/(1−z/2), g₂ = z: budget-20 000 searches reach 0.27163 at level
    # 1, the budget-300 seeded ascent alone 0.129–0.2706 over the
    # benchmark's seeds, and the 150-point joint scan 0.2715728.  The
    # polished scan witness reaches 0.27163, and is the same for every seed.
    config = json.loads((CONFIG_DIR / "sandwich_product_mk2.json").read_text())
    f = descriptors.function_from_descriptor(config["function"])
    witnesses = [level_sup(f, 1, 300, seed) for seed in (1, 2, 3, 7)]
    for w in witnesses:
        assert w.value >= 0.27163
        assert w.matrix.entries.tobytes() == witnesses[0].matrix.entries.tobytes()


def test_joint_scan_grid_witness_past_the_first_chunk_has_its_bits(monkeypatch):
    # |φ₁ + φ₂| peaks at the norming element of φ₁ + φ₂, c ∝ (1, 1): on a
    # 25 × 25 × 25 grid that is a = π/4, b = θ = 0, grid point 12·625, in
    # the second chunk, which the witness is rebuilt from.
    (phi1, r1), (phi2, r2) = _functional(MIN2, 0.4, 11), _functional(MIN2, 0.5, 12)
    f = Sum(Composite(IDENTITY, MIN2, phi1, r1), Composite(IDENTITY, MIN2, phi2, r2))
    budget = 25**3 + cbnorm._ZOOM_SHARE
    stacks = []
    eval_array = holofun._eval_array
    monkeypatch.setattr(
        holofun, "_eval_array", lambda g, z, *rest: (g is f and stacks.append(len(z))) or eval_array(g, z, *rest)
    )
    point, value, spent = cbnorm._circle_scan(f, budget, cbnorm._scan_unit(f), 0.0)
    assert spent == sum(stacks) == 25**3 and max(stacks) == cbnorm._SCAN_STACK
    expected = RADIUS_CAP * opspace.norming_element(MIN2, np.cos(np.pi / 4) * phi1 + np.sin(np.pi / 4) * phi2)
    assert np.allclose(point[0, 0], expected, rtol=0.0, atol=1e-15)
    assert value.hex() == witness_value(f, Witness(1, OpSpaceMatrix(MIN2, point), value)).hex()
    assert value == pytest.approx(RADIUS_CAP * closed_form_dual_norm(MIN2, phi1 + phi2), rel=1e-14)


def _family_units(space, first, second, ab):
    """The units e_c, by `norming_element`, of ψ_c = c₁φ₁ + c₂φ₂ for
    c = (cos a, sin a·e^{ib}), each row of (a, b) alone."""
    psi = [np.cos(a) * first + (np.sin(a) * np.exp(1j * b)) * second for a, b in ab]
    return np.stack([opspace.norming_element(space, p) for p in psi]).reshape(-1, 1, 1, space.dim)


def test_scan_unit_takes_two_functional_leaves_through_scales():
    # The unit is decided by the functional leaves alone: a scaled lone
    # leaf scans the circle of its norming element, two leaves the joint
    # family of (φ₁, φ₂), left to right, and three leaves have none.
    a, b = (_scanned(MIN2, kind, 0)[0] for kind in ("composite", "geometric_phi"))
    ab = np.array([[0.0, 0.0], [0.4, 1.0], [0.5 * np.pi, 3.0]])
    for f, first, second in (
        (Product(a, b), a, b),
        (Sum(Scale(2.0, a), b), a, b),
        (Scale(-1j, Product(b, Scale(0.5, a))), b, a),
    ):
        unit = cbnorm._scan_unit(f)
        assert len(unit.axes) == 2
        assert unit.units(ab).tobytes() == _family_units(MIN2, first.phi, second.phi, ab).tobytes()
    unit = cbnorm._scan_unit(Scale(2.0, a))
    assert unit.axes == ()
    assert unit.units(ab[:, :0]).tobytes() == opspace.norming_element(MIN2, a.phi).tobytes()
    assert cbnorm._scan_unit(Product(Product(a, b), a)) is None


def test_norming_family_units_norm_their_combinations():
    # e_c is a unit point with ψ_c(e_c) = ‖ψ_c‖ for c = (cos a, sin a·e^{ib}),
    # equal rows of (a, b) take one unit, and c with ψ_c = 0 takes the first
    # basis element.
    phi = np.array([0.3, -0.1j, 0.2, 0.05])
    space = space_mk(2)
    ab = np.array([[0.1, 0.0], [0.1, 0.0], [np.pi / 4, 0.0], [0.7, 2.0], [0.7, 2.0], [0.7, 2.0]])

    def family(first, second):
        return cbnorm._scan_unit(Sum(GeometricPhi(space, first, 0.0), GeometricPhi(space, second, 0.0)))

    units = family(phi, -phi).units(ab)
    assert units.shape == (6, 1, 1, 4)
    assert units[0].tobytes() == units[1].tobytes() and units[3].tobytes() == units[5].tobytes()
    psi = np.cos(ab[:, :1]) * phi - (np.sin(ab[:, :1]) * np.exp(1j * ab[:, 1:])) * phi
    for e, p in zip(units[:, 0, 0], psi):
        if np.any(np.abs(p) > 1e-15):
            assert abs(matrix_norm(OpSpaceMatrix(space, e.reshape(1, 1, -1))) - 1.0) <= 1e-14
            assert abs(p @ e - closed_form_dual_norm(space, p)) <= 1e-14
    zero = family(np.zeros(4, complex), np.zeros(4, complex)).units(ab[:2])
    assert zero.tobytes() == np.tile(np.eye(1, 4, dtype=complex), (2, 1)).tobytes()


def _lone_and_joint():
    """A lone functional leaf over M_2 and a product of two."""
    a, b = (_scanned(MIN2, kind, 0)[0] for kind in ("composite", "geometric_phi"))
    return Scale(2.0, a), Product(a, b)


@pytest.mark.parametrize("n", [1, 2, 7, 150, 4097])
def test_circle_grid_is_n_angles_from_zero(n):
    # A unit with no parameter axes has a grid of n angles θ = (2π/n)·k.
    for f in (BLASCHKE_HALF, _lone_and_joint()[0]):
        sizes, spacing, at_grid = cbnorm._scan_unit(f).grid(n)
        theta = at_grid(np.arange(n))
        assert sizes == (n,) and theta.shape == (n, 1)
        assert spacing.tobytes() == np.array([2.0 * np.pi / n]).tobytes()
        assert theta.tobytes() == ((2.0 * np.pi / n) * np.arange(n)).tobytes()


@pytest.mark.parametrize("n", [1, 7, 8, 150, 2000])
def test_joint_grid_is_the_s_by_s_by_t_grid_of_a_b_and_theta(n):
    # The (a, b) family's grid, written out for its three axes: s = ⌊∛n⌋
    # points of a at the midpoints of s cells of [0, π/2], s of b and
    # t = ⌊n/s²⌋ of θ from 0 around the circle, one row a point.
    s = round(n ** (1.0 / 3.0))
    s -= s**3 > n
    t = n // (s * s)
    spacing = np.array([0.5 * np.pi / s, 2.0 * np.pi / s, 2.0 * np.pi / t])
    index = np.arange(s * s * t)
    expected = spacing * (np.stack(np.unravel_index(index, (s, s, t)), axis=1) + np.array([0.5, 0.0, 0.0]))
    sizes, got_spacing, at_grid = cbnorm._scan_unit(_lone_and_joint()[1]).grid(n)
    assert sizes == (s, s, t)
    assert got_spacing.tobytes() == spacing.tobytes()
    assert at_grid(index).tobytes() == expected.tobytes()


@pytest.mark.parametrize("q", [2, 4, 8])
def test_zoom_moves_step_one_axis_at_a_time(q):
    # Row j·q + i moves axis j by the i-th offset, as the Kronecker product
    # of the identity on the axes with the column of offsets.
    odd = np.arange(1, q, 2) / (q + 1)
    offsets = np.stack([-odd, odd], axis=1).ravel()
    for f, dims in zip(_lone_and_joint(), (1, 3)):
        moves = cbnorm._scan_unit(f).moves(offsets)
        assert moves.tobytes() == np.kron(np.eye(dims), offsets[:, None]).tobytes()


def test_scan_unit_name_zoom_and_polish_follow_from_its_axes():
    # A unit with no parameter axes is one circle, which holds the maximum;
    # a unit with axes is a family, whose scan witness is polished.
    lone, joint = _lone_and_joint()
    circle = ("circle scan", cbnorm._ZOOM_PEAKS, False)
    family = ("joint norming scan", cbnorm._JOINT_PEAKS, True)
    for f, axes, expected, shape in (
        (BLASCHKE_HALF, 0, circle, (3, 1, 1)),
        (lone, 0, circle, (3, 1, 1, MIN2.dim)),
        (joint, 2, family, (3, 1, 1, MIN2.dim)),
    ):
        unit = cbnorm._scan_unit(f)
        assert len(unit.axes) == axes and (unit.name, unit.zoom, unit.polished) == expected
        assert unit.points(np.zeros((3, axes + 1))).shape == shape


@pytest.mark.parametrize("f", [BLASCHKE_HALF, _lone_and_joint()[1]], ids=["circle", "joint"])
def test_zoom_steps_give_the_points_per_round_of_sixteen_and_twenty_four(f):
    # A zoom round once had 16 points on a circle (4 peaks, 1 axis) and 24
    # for the (a, b) family (2 peaks, 3 axes), shared by the P peaks found:
    # 4 steps per axis and per peak give the same q for every P.
    unit = cbnorm._scan_unit(f)
    dims = len(unit.axes) + 1
    rows = {1: 16, 3: 24}[dims]
    for found in range(1, unit.zoom + 1):
        assert cbnorm._ZOOM_STEPS * unit.zoom // found // 2 * 2 == rows // found // dims // 2 * 2


class _Unknown(holofun.HoloFunction):
    """A variant with no upper-bound rule."""


def test_cb_upper_bound_refuses_a_variant_it_has_no_rule_for():
    with pytest.raises(InvalidInputError) as raised:
        cb_upper_bound(_Unknown())
    assert str(raised.value) == "no certified upper-bound rule for _Unknown"


@pytest.mark.parametrize("f", [SQUARE, Product(SQUARE, BLASCHKE_HALF)], ids=["square", "product"])
def test_a_disk_function_has_no_functional_leaves(f):
    assert cbnorm._functional_leaves(f) == []
    assert cbnorm._functional_leaves(Scale(2.0, f)) == []


def test_level_sup_keeps_the_first_restart_of_equal_values(monkeypatch):
    # Stub restarts: the second and third tie exactly, and the third has
    # the smaller entries.
    points = [np.full((2, 2), c, dtype=np.complex128) for c in (0.1, 0.3, 0.2, 0.4)]
    runs = list(zip(points, (0.5, 0.7, 0.7, 0.6)))
    monkeypatch.setattr(cbnorm, "restarts", lambda *args: iter(runs))
    w = level_sup(GEOMETRIC, 2, 10, 5)
    assert w.matrix is points[1] and w.value == 0.7


def test_lower_table_keeps_the_direct_witness_on_a_tie_with_the_lifted_one(monkeypatch):
    # Stub level sups, each spending its budget: level 2 ties the lifted
    # level-1 witness exactly, and level 4 falls below it.
    direct = {
        1: Witness(level=1, matrix=np.array([[0.5]], dtype=np.complex128), value=0.8, samples=10),
        2: Witness(level=2, matrix=np.diag([0.75, 0.0]).astype(np.complex128), value=0.8, samples=10),
        4: Witness(level=4, matrix=0.1 * np.eye(4, dtype=np.complex128), value=0.7, samples=10),
    }
    monkeypatch.setattr(cbnorm, "level_sup", lambda f, m, budget, seed, ceiling: direct[m])
    table, spent, _ = cbnorm._lower_table(GEOMETRIC, [1, 2, 4], 10, 5)
    assert spent == {1: 10, 2: 10, 4: 10}
    assert table[1].matrix is direct[1].matrix and table[1].value == 0.8 and table[2] is direct[2]
    assert table[4].value == 0.8
    assert table[4].matrix.tobytes() == lift_witness(direct[2], 4).matrix.tobytes()


def test_lower_table_stops_once_the_lower_bound_meets_the_cap_ball_bound(monkeypatch):
    # Level 1 of z reaches W_cap = RADIUS_CAP on the scan's grid, so only the
    # grid's 150 points reach the objective, and no zoom round; levels 2, 4
    # and 8 are padded copies of its witness.  Every searched level is one
    # `level_sup`: level 1 alone for z, levels 1, 2 and 4 for the Blaschke
    # product, whose level 1 stays below W_cap.
    levels, shapes = [], []
    search, eval_array = cbnorm.level_sup, holofun._eval_array
    monkeypatch.setattr(cbnorm, "level_sup", lambda f, m, *rest, **kw: levels.append(m) or search(f, m, *rest, **kw))
    monkeypatch.setattr(holofun, "_eval_array", lambda f, z, *rest: shapes.append(z.shape) or eval_array(f, z, *rest))
    est = sandwich(IDENTITY, 8, 300, 1)
    assert levels == [1]
    assert sum(shape[0] for shape in shapes) == 150 and all(shape[1:] == (1, 1) for shape in shapes)
    assert est.samples == {1: 150, 2: 0, 4: 0, 8: 0}
    first = est.level_table[1]
    for m in (2, 4, 8):
        w = est.level_table[m]
        assert w.level == m and w.value == first.value == est.lower
        assert w.matrix.tobytes() == lift_witness(first, m).matrix.tobytes()
    assert "levels [2, 4, 8] lifted unsearched: the lower bound met the cap-ball bound W_cap = 0.999999;" in est.provenance
    levels.clear()
    assert sandwich(BLASCHKE_HALF, 4, 300, 1).samples == {1: 300, 2: 300, 4: 300}
    assert levels == [1, 2, 4]


def test_lower_table_stops_on_zero_functions():
    # W_cap = 0 for the zero series and for a composite through φ = 0.
    zero_phi = Composite(GEOMETRIC, MIN2, np.zeros(2), 0.0)
    for f in (PowerSeries([0.0]), zero_phi):
        est = cb_lower_bound(f, 4, 50, 1)
        assert est.lower == 0.0 and est.samples == {1: 25, 2: 0, 4: 0}


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True])
def test_lower_bound_refuses_a_bad_seed_that_only_a_scan_would_meet(seed):
    # Level 1 of z is a circle scan, which reads no seed, and levels above it
    # are lifted unsearched: the seed is still checked.
    with pytest.raises(InvalidInputError, match="seed must"):
        cb_lower_bound(IDENTITY, 2, 50, seed)


def _level_one_table(monkeypatch, f, budget, max_level):
    """cb_lower_bound of f up to max_level, the sizes of the stacks of f
    itself that its scan handed the objective (without derivatives), and
    the unstopped level-1 `level_sup`.  The table's level 1 is the
    `level_sup` with W_cap as its ceiling, bit for bit and in samples."""
    seen = []
    eval_array = holofun._eval_array
    with monkeypatch.context() as patch:
        scanned = lambda g, z, *rest: (g is f and rest == (False,) and seen.append(len(z))) or eval_array(g, z, *rest)
        patch.setattr(holofun, "_eval_array", scanned)
        est = cb_lower_bound(f, max_level, budget, 3)
    met = cbnorm._finite_rule(f, RADIUS_CAP)[0] * (1.0 - cbnorm._ROUNDING_TIE)
    capped = level_sup(f, 1, budget, 3, ceiling=met)
    assert _same_bits(est.level_table[1], capped) and est.samples[1] == capped.samples
    return est, seen, level_sup(f, 1, budget, 3)


def _same_bits(w, other):
    bits = lambda w: np.asarray(getattr(w.matrix, "entries", w.matrix)).tobytes()
    return w.value.hex() == other.value.hex() and bits(w) == bits(other)


def _scan_share(f, budget):
    """The budget that f's level-1 scan is given: all of it, or what a
    polished unit's polish leaves."""
    return budget - budget // 2 if cbnorm._scan_unit(f).polished else budget


# Each lower-table scan test at three budgets, over a function whose scan
# unit is one circle and one whose unit has the (a, b) axes; the circle
# cases keep their old ids.
_TABLE_CASES = [pytest.param(b, "circle", id=str(b)) for b in (1, 300, 2000)] + [
    pytest.param(b, "family", id=f"family-{b}") for b in (1, 300, 2000)
]


@pytest.mark.parametrize("budget, unit", _TABLE_CASES)
def test_lower_table_scan_stops_after_the_grid_that_meets_the_cap_ball_bound(monkeypatch, budget, unit):
    # These peak at θ = 0, the grid's first point, where the grid meets
    # W_cap: the objective sees the grid's points alone, the record counts
    # them, the joint scan's witness is not polished, and the witness is the
    # unstopped `level_sup`'s, bit for bit.  Over the scalar space both
    # functionals of the product norm at one point.
    if unit == "circle":
        functions = (*_nonnegative_catalog(), _scanned(space_mk(2), "composite", 1)[0])
    else:
        functions = (_two_functionals(space_scalar(), "product", 1),)
    for f in functions:
        share = _scan_share(f, budget)
        grid = math.prod(cbnorm._scan_unit(f).grid(share - min(share // 2, cbnorm._ZOOM_SHARE))[0])
        est, seen, full = _level_one_table(monkeypatch, f, budget, 2)
        assert sum(seen) == grid and est.samples == {1: grid, 2: 0}
        assert _same_bits(est.level_table[1], full)


@pytest.mark.parametrize("budget, unit", _TABLE_CASES)
def test_lower_table_scan_below_the_cap_ball_bound_spends_its_budget(monkeypatch, budget, unit):
    # Level 1 of these stays below W_cap, so the scan, and a joint scan's
    # polish, are the unstopped ones: a circle scan spends the budget, a
    # joint scan its share, and the polish at least 1 of the rest.
    if unit == "circle":
        functions = (BLASCHKE_HALF, Sum(SQUARE, Scale(-0.5j, GEOMETRIC)), _BLASCHKE_COMPOSITE)
    else:
        functions = (_two_functionals(MIN2, "sum", 1), _two_functionals(space_mk(2), "product", 2))
    for f in functions:
        est, seen, full = _level_one_table(monkeypatch, f, budget, 1)
        share = _scan_share(f, budget)
        assert sum(seen) == share <= est.samples[1] == full.samples <= budget
        assert est.samples[1] == budget if share == budget else est.samples[1] > share
        assert _same_bits(est.level_table[1], full)


@pytest.mark.parametrize(
    "f, refusal",
    [(Scale(1e308, PowerSeries([1e308])), "not finite"), (PowerSeries([1e-320]), "subnormal")],
    ids=["overflowing", "subnormal"],
)
def test_lower_table_refuses_a_cap_ball_bound_before_any_search(f, refusal, monkeypatch):
    # Evaluating the overflowing function would warn, and a subnormal one
    # rounds its level values above the exact rule.
    for name in ("level_sup", "_circle_scan"):
        monkeypatch.setattr(cbnorm, name, lambda *args: pytest.fail("searched"))
    with pytest.raises(InvalidInputError, match=f"certified upper bound is {refusal}: "):
        cb_lower_bound(f, 2, 50, 1)


def test_lift_witness_preserves_value():
    w = level_sup(GEOMETRIC, 1, 2000, 7)
    lifted = lift_witness(w, w.level + 1)
    assert lifted.level == w.level + 1
    assert lifted.value == w.value
    assert abs(witness_value(GEOMETRIC, lifted) - w.value) < 1e-12


def test_lift_twice_is_two_by_two_zero_block():
    w = level_sup(SQUARE, 1, 500, 3)
    twice = lift_witness(lift_witness(w, 2), 3)
    mat = np.asarray(twice.matrix)
    assert mat.shape == (3, 3)
    assert np.all(mat[1:, :] == 0) and np.all(mat[:, 1:] == 0)


def test_lift_witness_to_its_own_level_keeps_it():
    for w in (level_sup(GEOMETRIC, 2, 200, 7), level_sup(Composite(GEOMETRIC, MIN2, [0.3, 0.2], 0.5), 2, 200, 7)):
        same = lift_witness(w, w.level)
        assert same.level == w.level and same.value == w.value
        assert np.asarray(getattr(same.matrix, "entries", same.matrix)).tobytes() == (
            np.asarray(getattr(w.matrix, "entries", w.matrix)).tobytes()
        )


@pytest.mark.parametrize(
    "level, message",
    [(1, "cannot lift a level-2 witness down to level 1"), (matcore.MAX_LEVEL + 1, "level must lie in"),
     (2.5, "level must be an integer"), (True, "level must be an integer")],
)
def test_lift_witness_refuses_a_level_it_cannot_reach(level, message):
    w = level_sup(IDENTITY, 2, 10, 0)
    with pytest.raises(InvalidInputError, match=message):
        lift_witness(w, level)


@pytest.mark.parametrize(
    "f",
    [GEOMETRIC, GeometricPhi(space_row(2), np.array([0.3, 0.4]), 0.5)],
    ids=["disk", "space"],
)
def test_lift_to_equals_repeated_lift_witness(f):
    w = level_sup(f, 1, 200, 3)
    direct, stepwise = lift_witness(w, 4), lift_witness(lift_witness(lift_witness(w, 2), 3), 4)
    assert direct.level == stepwise.level == 4
    assert direct.value == stepwise.value == w.value
    assert type(direct.matrix) is type(stepwise.matrix)
    arrays = [np.asarray(getattr(x.matrix, "entries", x.matrix)) for x in (direct, stepwise)]
    assert arrays[0].dtype == arrays[1].dtype and arrays[0].tobytes() == arrays[1].tobytes()


def _padded_reference(w, level):
    """The lift as np.pad builds it."""
    pad = ((0, level - w.level),) * 2
    if isinstance(w.matrix, OpSpaceMatrix):
        return np.pad(w.matrix.entries, pad + ((0, 0),))
    return np.pad(w.matrix, pad)


@pytest.mark.parametrize("start, level", [(1, 2), (1, 8), (2, 4)])
@pytest.mark.parametrize("over_space", [False, True], ids=["disk", "space"])
def test_lift_witness_has_the_bits_of_np_pad(over_space, start, level):
    rng = np.random.default_rng(start * level)
    shape = (start, start, 2) if over_space else (start, start)
    entries = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    entries.flat[0] = complex(-0.0, -0.0)
    entries.flat[-1] = complex(-0.0, 0.25)
    w = Witness(level=start, matrix=OpSpaceMatrix(space_row(2), entries) if over_space else entries, value=0.5)
    lifted = lift_witness(w, level)
    assert (lifted.level, lifted.value) == (level, 0.5)
    assert type(lifted.matrix) is type(w.matrix)
    array = lifted.matrix.entries if over_space else lifted.matrix
    reference = _padded_reference(w, level)
    assert array.shape == reference.shape and array.dtype == reference.dtype
    assert array.tobytes() == reference.tobytes()


def test_cb_lower_identity():
    est = cb_lower_bound(IDENTITY, 4, 2000, 11)
    assert est.lower >= 1.0 - 1e-3
    assert est.lower < 1.0


def test_cb_lower_scaled_identity():
    est = cb_lower_bound(Scale(0.5, IDENTITY), 2, 2000, 11)
    assert 0.5 - 1e-3 <= est.lower <= 0.5


def test_level_table_nondecreasing():
    est = cb_lower_bound(GEOMETRIC, 8, 800, 13)
    values = [est.level_table[m].value for m in sorted(est.level_table)]
    assert values == sorted(values)
    assert est.lower == values[-1]


def test_lower_bound_monotone_in_budget_and_level():
    small = cb_lower_bound(GEOMETRIC, 2, 400, 17).lower
    bigger_budget = cb_lower_bound(GEOMETRIC, 2, 1600, 17).lower
    more_levels = cb_lower_bound(GEOMETRIC, 4, 400, 17).lower
    assert bigger_budget >= small
    assert more_levels >= small


def test_upper_bound_rules():
    assert cb_upper_bound(IDENTITY) == 1.0
    assert cb_upper_bound(GEOMETRIC) == 2.0
    assert cb_upper_bound(Blaschke(1.0, 3, [])) == 1.0
    assert cb_upper_bound(GeometricPhi(MIN2, np.array([0.5, 0.0], dtype=complex), 0.5)) == 1.0
    assert cb_upper_bound(Product(IDENTITY, GEOMETRIC)) == 2.0
    assert cb_upper_bound(Sum(IDENTITY, GEOMETRIC)) == 3.0
    assert cb_upper_bound(Scale(2.0j, GEOMETRIC)) == 4.0


def test_upper_bound_blaschke_monomial_is_the_modulus_of_its_constant():
    # The constructor allows |c| up to 1 + 1e-12, and such a c·z reaches past 1.
    f = Blaschke(1.0 + 5e-13, 1)
    reached = matcore.operator_norm(amplify(f, 0.9999999999999 * np.eye(2)))
    assert reached > 1.0
    assert cb_upper_bound(f) == abs(f.c) >= reached
    for c in (1.0, -1.0, 1.0j, -1.0j):
        assert cb_upper_bound(Blaschke(c, 2)) == 1.0


def test_upper_bound_blaschke_certifies():
    f = Blaschke(1.0, 1, [0.5])
    bound = cb_upper_bound(f)
    # Coefficient sum of z(z-0.5)/(1-0.5z) converges to 2.
    assert 1.0 <= bound <= 2.0 + 1e-3


def test_upper_bound_blaschke_zeros_near_circle():
    # Σ|a_n| of z(z − a)/(1 − a·z) is 1 + 2a; the truncation grows with the
    # zero's modulus until the majorant tail past it is below rounding.
    assert 2.98 <= cb_upper_bound(Blaschke(1.0, 1, [0.99])) <= 3.0
    assert cb_upper_bound(Blaschke(1.0, 1, [0.5])) <= 2.0 + 1e-9


def test_a_blaschke_sandwich_expands_its_taylor_series_once(monkeypatch):
    # The upper bound and W_cap weigh one expansion, held by the function
    # object, at radii 1 and RADIUS_CAP; their bits are those of expanding
    # for each.  A fresh function object expands afresh.
    expand, calls = holofun.taylor_coefficients, []
    monkeypatch.setattr(holofun, "taylor_coefficients", lambda *args: calls.append(args) or expand(*args))
    f = Blaschke(1.0, 1, [0.5])
    est = sandwich(f, 8, 300, 1)
    assert len(calls) == 1
    assert est.upper.hex() == (2.0000000000013713).hex()
    assert cbnorm._upper_rules(f, RADIUS_CAP)[0].hex() == (1.9999950000073712).hex()
    tc = expand(Blaschke(1.0, 1, [0.5]), holofun.blaschke_truncation(f.zeros))
    for t in (1.0, RADIUS_CAP):
        weighted = cbnorm._weighted_sum(tc.coeffs, t) + tc.tail_bound
        assert cbnorm._upper_rules(f, t)[0].hex() == weighted.hex()
    assert len(calls) == 1
    sandwich(Blaschke(1.0, 1, [0.5]), 8, 300, 1)
    assert len(calls) == 2


def test_size_caps_reject_before_allocation():
    with pytest.raises(InvalidInputError):
        level_sup(IDENTITY, matcore.MAX_LEVEL + 1, 1, 1)
    for build in (space_mk, space_row, space_column, space_min_linf):
        with pytest.raises(InvalidInputError):
            build(MAX_SPACE_PARAM + 1)
    with pytest.raises(InvalidInputError):
        GcbElement(MIN2, matcore.MAX_LEVEL + 1, ())


def test_upper_bound_composite_linear_is_certified_norm():
    phi = np.array([0.3, 0.4], dtype=complex)
    f = Composite(IDENTITY, MIN2, phi, 0.7)
    assert cb_upper_bound(f) == 0.7


def test_scaling_covariance():
    c = 1.5 - 2.0j
    for f in (IDENTITY, GEOMETRIC, Blaschke(1.0, 1, [0.5])):
        assert cb_upper_bound(Scale(c, f)) == abs(c) * cb_upper_bound(f)
    w = level_sup(GEOMETRIC, 2, 1500, 19)
    scaled_value = matcore.operator_norm(amplify(Scale(c, GEOMETRIC), w.matrix))
    assert abs(scaled_value - abs(c) * w.value) < 1e-12


def test_sandwich_identity():
    est = sandwich(IDENTITY, 2, 2000, 23)
    assert est.upper == 1.0
    assert 0.999 <= est.lower <= est.upper


def test_sandwich_geometric():
    est = sandwich(GEOMETRIC, 2, 4000, 23)
    assert est.upper == 2.0
    assert 1.95 <= est.lower <= 2.0


def test_sandwich_product_rule():
    est = sandwich(Product(IDENTITY, GEOMETRIC), 2, 3000, 23)
    assert est.upper == 2.0
    assert est.lower <= 2.0


def test_sandwich_on_zoo_is_consistent():
    zoo = [
        IDENTITY,
        SQUARE,
        GEOMETRIC,
        Blaschke(1.0, 1, [0.5]),
        Sum(SQUARE, Scale(0.25, GEOMETRIC)),
        GeometricPhi(MIN2, np.array([0.5, 0.0], dtype=complex), 0.5),
        lacunary(8),
    ]
    for f in zoo:
        est = sandwich(f, 2, 600, 29)
        assert est.upper is not None
        assert est.lower <= est.upper + 1e-6


def test_understated_functional_norm_is_replaced_by_the_computed_one():
    # φ = (0.5, 0.45) on min-ℓ∞² has norm 0.95 and states 0.5.  With the
    # stated norm as r the upper bound was 0.5, `sandwich` raised on a lower
    # bound of 0.94998, and `schwarz_check` found 158 violations in 200.
    phi = [0.5, 0.45]
    f = Composite(IDENTITY, MIN2, phi, 0.5)
    upper = cb_upper_bound(f)
    assert upper == closed_form_dual_norm(MIN2, phi) == 0.95
    est = sandwich(f, 2, 300, 1)
    # Level 1 scans the circle φ(x) = RADIUS_CAP·‖φ‖·e^{iθ}, which holds the sup.
    assert est.lower == pytest.approx(RADIUS_CAP * upper, rel=1e-12)
    assert est.lower <= est.upper == upper
    report = schwarz_check(f, upper, 200, 1)
    assert report.passed and report.detail.startswith("0 violations")


def test_tiny_row_functional_sandwich_keeps_its_order():
    # The dual norm of φ once underflowed to 0.0, an upper bound under the
    # lower bound 4.999995e-170.
    f = Composite(IDENTITY, space_row(2), np.array([3e-170, 4e-170j]), 0.0)
    est = sandwich(f, 2, 50, 1)
    assert est.upper == pytest.approx(5e-170, rel=1e-15, abs=0.0)
    assert 0.0 < est.lower <= est.upper


def test_sandwich_order_is_checked_at_every_scale(monkeypatch):
    # Upper bounds halved under lower bounds of about 1e-170 are out of order
    # by far more than rounding; an absolute slack of 1e-6 let both pass.
    f, g = Scale(1e-170, IDENTITY), Scale(1e-85, IDENTITY)
    upper_rules = cbnorm._upper_rules

    def halved(h, t=1.0):
        bound, rule = upper_rules(h, t)
        return (bound / 2.0 if h is f or h is g else bound), rule

    monkeypatch.setattr(cbnorm, "_upper_rules", halved)
    with pytest.raises(SandwichViolationError):
        sandwich(f, 2, 50, 1)
    assert not algebra_check(g, g, 2, 50, 1).passed


def test_linear_composite_matches_closed_form_dual_norm():
    phi = np.array([0.3, 0.4], dtype=complex)
    f = Composite(IDENTITY, MIN2, phi, 0.7)
    est = cb_lower_bound(f, 2, 4000, 31)
    assert closed_form_dual_norm(MIN2, phi) == 0.7
    assert est.lower == pytest.approx(RADIUS_CAP * closed_form_dual_norm(MIN2, phi), rel=1e-12)


def test_schwarz_check_identity_tight():
    est = sandwich(IDENTITY, 2, 500, 37)
    report = schwarz_check(IDENTITY, est.upper, 200, 37)
    assert report.passed
    assert report.worst_slack >= -1e-12


@pytest.mark.parametrize("trials", [matcore.MAX_BUDGET + 1, 1e300])
def test_schwarz_check_refuses_trials_past_the_cap(trials):
    # Refused before the first trial: 1e300 trials would run until killed.
    with pytest.raises(InvalidInputError, match=f"trials must be at most {matcore.MAX_BUDGET}, got "):
        schwarz_check(IDENTITY, 1.0, trials, 1)


def _schwarz_reference(f, upper, trials, seed):
    """The trial-by-trial loop that `schwarz_check` stacks: each trial's
    level from `derive_rng(seed)`, its radius from `derive_rng(seed, 0)`
    and its point from its level's `derive_rng(seed, m)`, sampled one point
    at a time by `opspace._random_matrix_ball` and amplified alone."""
    space = f.domain_space
    sampled = space_scalar() if space is None else space
    levels, radii = matcore.derive_rng(seed), matcore.derive_rng(seed, 0)
    grids = {m: matcore.derive_rng(seed, m) for m in range(1, 5)}
    worst, detail, failures = np.inf, "", 0
    for _ in range(trials):
        m = int(levels.integers(1, 5))
        radius = float(radii.uniform(0.05, cbnorm.RADIUS_CAP))
        x = opspace._random_matrix_ball(grids[m], sampled, m, radius)
        x = x[..., 0] if space is None else OpSpaceMatrix(space, x)
        actual = matcore.operator_norm(amplify(f, x))
        if upper * radius - actual < worst:
            worst = upper * radius - actual
            detail = f"level {m}, radius {radius:.6f}, amplified norm {actual:.12f}"
        failures += actual > upper * radius * (1.0 + 1e-10)
    return failures == 0, trials, float(worst), f"{failures} violations; tightest trial: {detail}"


def _report(report):
    return report.passed, report.trials, report.worst_slack, report.detail


_SCHWARZ_FUNCTIONS = [
    IDENTITY,
    SQUARE,
    BLASCHKE_HALF,
    PowerSeries([1e-9]),
    _scanned(space_mk(2), "composite", 1)[0],
    _scanned(space_row(3), "geometric_phi", 2)[0],
    _two_functionals(space_column(2), "sum", 1),
]


@pytest.mark.parametrize("f", _SCHWARZ_FUNCTIONS, ids=lambda f: type(f).__name__)
def test_schwarz_check_stacks_give_the_trial_by_trial_report(f, monkeypatch):
    # Every norm has the bits of its trial alone, and every stream runs on
    # across chunks, so the report is the loop's, worst slack to the bit,
    # whatever the chunk size.
    upper = cb_upper_bound(f)
    for stated, trials, seed in ((upper, 100, 5), (0.9 * upper, 37, 2), (upper, 1, 9)):
        expected = _schwarz_reference(f, stated, trials, seed)
        assert _report(schwarz_check(f, stated, trials, seed)) == expected
        with monkeypatch.context() as patch:
            patch.setattr(matcore, "STACK_BYTES", 1)
            assert _report(schwarz_check(f, stated, trials, seed)) == expected


class _ZeroFirst:
    """A generator whose first `standard_normal` draw comes out zero."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, False

    def standard_normal(self, shape):
        draw, first, self.drawn = self.rng.standard_normal(shape), not self.drawn, True
        return 0.0 * draw if first else draw

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_schwarz_check_redraws_a_zero_grid_from_its_own_level_stream(monkeypatch):
    # Each level's first grid is zero: it is drawn again from its level's
    # stream, as `opspace._random_matrix_ball` draws one point.  One trial a
    # chunk samples as the loop does; a whole chunk of zero grids is drawn
    # again grid by grid, so its report is finite too.
    derive_rng = matcore.derive_rng
    monkeypatch.setattr(matcore, "derive_rng", lambda *args: _ZeroFirst(derive_rng(*args)))
    f = _scanned(MIN2, "composite", 3)[0]
    report = schwarz_check(f, cb_upper_bound(f), 40, 3)
    assert report.passed and math.isfinite(report.worst_slack)
    expected = _schwarz_reference(f, cb_upper_bound(f), 40, 3)
    monkeypatch.setattr(matcore, "STACK_BYTES", 1)
    assert _report(schwarz_check(f, cb_upper_bound(f), 40, 3)) == expected
    assert math.isfinite(expected[2])


@pytest.mark.parametrize("f", [SQUARE, _scanned(space_mk(2), "composite", 1)[0]], ids=["disk", "space"])
def test_schwarz_check_raises_the_domain_error_of_the_first_trial_outside_the_ball(f, monkeypatch):
    # With radii drawn up to 1.5, some points leave the open ball: the
    # error is the first such trial's, in trial order, as the loop raised it.
    monkeypatch.setattr(cbnorm, "RADIUS_CAP", 1.5)
    with pytest.raises(DomainError) as expected:
        _schwarz_reference(f, 1.0, 60, 4)
    for stack_bytes in (matcore.STACK_BYTES, 1):
        monkeypatch.setattr(matcore, "STACK_BYTES", stack_bytes)
        with pytest.raises(DomainError) as raised:
            schwarz_check(f, 1.0, 60, 4)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("trials", [1, 100, 2000])
def test_schwarz_check_makes_at_most_six_streams(monkeypatch, trials):
    # One stream for the levels, one for the radii and one per level,
    # whatever the trial count.
    calls = []
    derive_rng = matcore.derive_rng
    monkeypatch.setattr(matcore, "derive_rng", lambda *args: calls.append(args) or derive_rng(*args))
    schwarz_check(SQUARE, 1.0, trials, 4)
    assert len(calls) <= 6


def test_schwarz_check_square_has_positive_slack():
    est = sandwich(SQUARE, 2, 500, 37)
    report = schwarz_check(SQUARE, est.upper, 200, 37)
    assert report.passed
    assert report.worst_slack > 0.0


def test_schwarz_check_geometric():
    est = sandwich(GEOMETRIC, 2, 500, 37)
    report = schwarz_check(GEOMETRIC, est.upper, 300, 41)
    assert report.passed


def test_schwarz_check_tolerance_is_relative():
    # ‖f_m(X)‖ = 1e-9·‖X‖ exceeds the stated 1e-12·‖X‖ in every trial, by far
    # less than an absolute 1e-8 but by 1000 times relatively.
    report = schwarz_check(PowerSeries([1e-9]), 1e-12, 50, 1)
    assert not report.passed
    assert report.detail.startswith("50 violations")


def test_schwarz_check_needs_upper():
    est = cb_lower_bound(IDENTITY, 1, 200, 1)
    for upper in (est.upper, float("inf"), float("nan")):
        with pytest.raises(InvalidInputError):
            schwarz_check(IDENTITY, upper, 10, 1)


def test_algebra_check_pairs():
    assert algebra_check(IDENTITY, IDENTITY, 2, 800, 43).passed
    assert algebra_check(IDENTITY, GEOMETRIC, 2, 800, 43).passed
    report = algebra_check(GEOMETRIC, GEOMETRIC, 2, 1200, 43)
    assert report.passed
    assert report.worst_slack >= -1e-6


# The certified upper bounds every level's value, and upper − value is that
# level's gap.


def test_sandwich_identity_bounded():
    est = sandwich(IDENTITY, 4, 600, 47)
    assert est.upper == 1.0
    assert all(w.value <= 1.0 for w in est.level_table.values())


def test_sandwich_geometric09_bounded_near_nine():
    f = MoebiusQuotient(IDENTITY, 0.9)
    est = sandwich(f, 4, 2500, 47)
    assert est.level_table[1].value >= 8.5
    assert max(w.value for w in est.level_table.values()) <= 10.0 <= est.upper


def test_sandwich_lacunary_control():
    f = lacunary(12)
    est = sandwich(f, 4, 600, 47)
    assert est.upper == cb_upper_bound(f) < 1.0
    assert max(w.value for w in est.level_table.values()) <= 1.0


def test_sandwich_runs_over_a_space():
    f = GeometricPhi(MIN2, np.array([0.5, 0.0], dtype=complex), 0.5)
    est = sandwich(f, 2, 100, 1)
    assert sorted(est.level_table) == [1, 2]
    assert all(0.0 < w.value <= est.upper for w in est.level_table.values())


def test_validation_errors():
    with pytest.raises(InvalidInputError):
        level_sup(IDENTITY, 0, 100, 1)
    with pytest.raises(InvalidInputError):
        level_sup(IDENTITY, 1, 0, 1)
    with pytest.raises(InvalidInputError):
        cb_lower_bound(IDENTITY, 0, 100, 1)


@pytest.mark.parametrize("trials", [True, False, 1.5, "3", None])
def test_schwarz_check_rejects_non_integer_trials(trials):
    est = sandwich(IDENTITY, 1, 50, 1)
    with pytest.raises(InvalidInputError):
        schwarz_check(IDENTITY, est.upper, trials, 1)


def test_schwarz_check_accepts_integral_trials():
    est = sandwich(SQUARE, 1, 50, 1)
    report = schwarz_check(SQUARE, est.upper, 60, 7)
    assert report.trials == 60
    assert schwarz_check(SQUARE, est.upper, np.int64(60), 7) == report
    assert schwarz_check(SQUARE, est.upper, 60.0, 7) == report
