"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Budgets follow the criteria exactly, so this module is the slow
part of the suite (around a minute or two on a laptop-class machine).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cbnorm_lab import cli, matcore
from cbnorm_lab.cbnorm import (
    cb_lower_bound,
    cb_upper_bound,
    lift_witness,
    sandwich,
    schwarz_check,
    witness_value,
)
from cbnorm_lab.gcb import delta_isometry_check
from cbnorm_lab.holofun import (
    Blaschke,
    Composite,
    GeometricPhi,
    MoebiusQuotient,
    PowerSeries,
    Product,
    taylor_coefficients,
)
from cbnorm_lab.mconvex import (
    MatrixSet,
    check_certificate,
    find_certificate,
    hull_norm_check,
    identity_representation,
    hull_element,
)
from cbnorm_lab.opspace import (
    OpSpaceMatrix,
    compress,
    direct_sum_matrices,
    matrix_norm,
    sample_matrix_ball,
    space_column,
    space_min_linf,
    space_mk,
    space_row,
    space_scalar,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

IDENTITY = PowerSeries([1.0])
SQUARE = PowerSeries([0.0, 1.0])
GEOMETRIC = MoebiusQuotient(IDENTITY, 0.5)
GEOMETRIC09 = MoebiusQuotient(IDENTITY, 0.9)
BLASCHKE = Blaschke(1.0, 1, [0.5])
MIN2 = space_min_linf(2)
GEOM_PHI = GeometricPhi(MIN2, np.array([0.5, 0.0], dtype=complex), 0.5)

SHIPPED_SPACES = [space_scalar(), space_mk(2), space_row(2), space_column(2), MIN2]


def lacunary(k_max=12):
    coeffs = np.zeros(2**k_max, dtype=complex)
    for k in range(1, k_max + 1):
        coeffs[2**k - 1] = 2.0**-k
    return PowerSeries(coeffs)


SHIPPED_FUNCTIONS = {
    "identity": IDENTITY,
    "square": SQUARE,
    "geometric_05": GEOMETRIC,
    "geometric_09": GEOMETRIC09,
    "blaschke_05": BLASCHKE,
    "lacunary_12": lacunary(),
    "geometric_phi": GEOM_PHI,
    "product_z_geometric": Product(IDENTITY, GEOMETRIC),
    "linear_composite": Composite(IDENTITY, MIN2, np.array([0.3, 0.4], dtype=complex), 0.7),
}


def announce(number, detail):
    print(f"ACCEPTANCE {number}: PASS ({detail})")


@pytest.fixture(scope="module")
def identity_estimate():
    started = time.perf_counter()
    est = sandwich(IDENTITY, 4, 10**4, 101)
    return est, time.perf_counter() - started


@pytest.fixture(scope="module")
def geometric_estimate():
    started = time.perf_counter()
    est = sandwich(GEOMETRIC, 4, 10**5, 202)
    return est, time.perf_counter() - started


@pytest.fixture(scope="module")
def geom_phi_estimate():
    est = sandwich(GEOM_PHI, 4, 10**5, 303)
    return est


def test_criterion_1_identity_sandwich(identity_estimate):
    est, elapsed = identity_estimate
    assert 0.999 <= est.lower <= 1.0
    assert est.upper == 1.0
    assert elapsed < 5.0
    announce(1, f"identity lower {est.lower:.6f}, upper exactly 1.0, {elapsed:.1f}s")


def test_criterion_2_quotient_bound(geometric_estimate):
    est, elapsed = geometric_estimate
    assert est.upper == 2.0
    assert est.lower >= 1.99
    assert elapsed < 30.0
    announce(2, f"z/(1-0.5z) upper exactly 2.0, lower {est.lower:.6f}, {elapsed:.1f}s")


def test_criterion_3_geometric_functional_bound(geom_phi_estimate):
    est = geom_phi_estimate
    assert est.upper == 1.0
    assert 0.95 <= est.lower <= 1.0
    announce(3, f"functional geometric series upper exactly 1.0, lower {est.lower:.6f}")


def test_criterion_4_schur_suite():
    rng = np.random.default_rng(404)
    violations = 0
    worst = np.inf
    for size in range(2, 9):
        for _ in range(1000):
            a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            b = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            slack = (
                matcore.operator_norm(a) * matcore.operator_norm(b)
                - matcore.operator_norm(matcore.schur_product(a, b))
            )
            worst = min(worst, slack)
            if slack < -1e-10:
                violations += 1
    assert violations == 0
    announce(4, f"7000 Schur pairs, zero violations, worst slack {worst:.3e}")


def test_criterion_5_schwarz_suite():
    checked = 0
    for name, f in SHIPPED_FUNCTIONS.items():
        upper = cb_upper_bound(f)
        assert upper is not None, name
        report = schwarz_check(f, upper, 1000, 505 + checked)
        assert report.passed, (name, report.detail)
        checked += 1
    announce(5, f"{checked} shipped functions x 1000 trials, zero violations")


def test_criterion_6_witness_lifting(identity_estimate, geometric_estimate, geom_phi_estimate):
    pairs = [
        (IDENTITY, identity_estimate[0]),
        (GEOMETRIC, geometric_estimate[0]),
        (GEOM_PHI, geom_phi_estimate),
    ]
    witnesses = 0
    for f, est in pairs:
        values = [est.level_table[m].value for m in sorted(est.level_table)]
        assert values == sorted(values)
        for w in est.level_table.values():
            lifted = lift_witness(w, w.level + 1)
            assert lifted.value == w.value
            assert abs(witness_value(f, lifted) - w.value) < 1e-12
            witnesses += 1
    announce(6, f"{witnesses} stored witnesses lift exactly; tables nondecreasing")


def test_criterion_7_ruan_axioms():
    rng = np.random.default_rng(707)
    for space in SHIPPED_SPACES:
        for _ in range(1000):
            m, l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            entries = rng.standard_normal((m, m, space.dim)) + 1j * rng.standard_normal(
                (m, m, space.dim)
            )
            x = OpSpaceMatrix(space, entries)
            alpha = rng.standard_normal((l, m)) + 1j * rng.standard_normal((l, m))
            beta = rng.standard_normal((m, l)) + 1j * rng.standard_normal((m, l))
            bound = matcore.operator_norm(alpha) * matrix_norm(x) * matcore.operator_norm(beta)
            assert matrix_norm(compress(alpha, x, beta)) <= bound + 1e-10
        for _ in range(1000):
            x = OpSpaceMatrix(
                space,
                rng.standard_normal((2, 2, space.dim)) + 1j * rng.standard_normal((2, 2, space.dim)),
            )
            y = OpSpaceMatrix(
                space,
                rng.standard_normal((1, 1, space.dim)) + 1j * rng.standard_normal((1, 1, space.dim)),
            )
            lhs = matrix_norm(direct_sum_matrices(x, y))
            assert abs(lhs - max(matrix_norm(x), matrix_norm(y))) <= 1e-12
    announce(7, f"{len(SHIPPED_SPACES)} spaces x 1000 instances for each axiom")


def shipped_generator_sets():
    scalar = space_scalar()
    entries = np.zeros((1, 1, 1), dtype=complex)
    entries[0, 0, 0] = 0.7
    yield MatrixSet(scalar, (OpSpaceMatrix(scalar, entries),))

    mk2 = space_mk(2)
    g1 = sample_matrix_ball(mk2, 1, 0.3, 808)
    g2 = sample_matrix_ball(mk2, 2, 0.9, 809)
    yield MatrixSet(mk2, (g1, g2))

    g3 = OpSpaceMatrix(MIN2, np.array([0.8, 0.0]).reshape(1, 1, -1))
    g4 = sample_matrix_ball(MIN2, 2, 0.6, 810)
    yield MatrixSet(MIN2, (g3, g4))


def test_criterion_8_hull_norm_invariance():
    sets = 0
    for k in shipped_generator_sets():
        report = hull_norm_check(k, 1000, 811 + sets)
        assert report.passed, report.detail
        assert report.identity_attained
        best = int(np.argmax([matrix_norm(g) for g in k.generators]))
        attained = matrix_norm(hull_element(k, identity_representation(k, best)))
        assert attained == report.set_norm
        sets += 1
    announce(8, f"{sets} generator sets x 1000 representations, identity attains the norm")


def test_criterion_9_separation_soundness():
    scalar = space_scalar()
    entries = np.zeros((1, 1, 1), dtype=complex)
    entries[0, 0, 0] = 0.5
    k = MatrixSet(scalar, (OpSpaceMatrix(scalar, entries),))
    x0 = OpSpaceMatrix(scalar, 4 * entries)
    cert = find_certificate(k, x0, 1000, 909)
    assert cert is not None
    assert check_certificate(cert, k, x0).valid

    found = 0
    for trial, kset in enumerate(shipped_generator_sets()):
        target = sample_matrix_ball(kset.space, 2, 0.95, 910 + trial)
        scale = 1.2 * (matrix_norm(kset.generators[0]) + 0.4) / matrix_norm(target)
        outside = OpSpaceMatrix(kset.space, target.entries * scale)
        result = find_certificate(kset, outside, 5000, 911 + trial)
        if result is not None:
            assert check_certificate(result, kset, outside).valid
            found += 1
    assert found >= 1
    announce(9, f"scalar certificate found within budget 1000; {found} extra separations validated")


def test_criterion_10_delta_isometry():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    checked = 0
    worst_upper = 0.0
    worst_lower = 0.0
    while checked < 20:
        space = SHIPPED_SPACES[checked % len(SHIPPED_SPACES)]
        level = int(rng.integers(1, 4))
        radius = float(rng.uniform(0.2, 0.95))
        x = sample_matrix_ball(space, level, radius, 2000 + checked)
        report = delta_isometry_check(x, 600)
        assert report.upper_gap <= 1e-9, report
        assert report.lower_gap <= 1e-4, report
        worst_upper = max(worst_upper, report.upper_gap)
        worst_lower = max(worst_lower, report.lower_gap)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(
        10,
        f"20 points pinned; worst gaps upper {worst_upper:.2e} / lower {worst_lower:.2e}, {elapsed:.1f}s",
    )


def test_criterion_11_taylor_monomials():
    tc = taylor_coefficients(GEOMETRIC, 20)
    expected = 0.5 ** np.arange(20)
    assert np.max(np.abs(tc.coeffs - expected)) < 1e-9
    upper = cb_upper_bound(GEOMETRIC)
    assert upper == 2.0
    for degree in range(1, 21):
        coeffs = np.zeros(degree, dtype=complex)
        coeffs[degree - 1] = tc.coeffs[degree - 1]
        monomial = PowerSeries(coeffs)
        est = cb_lower_bound(monomial, 2, 300, 1100 + degree)
        assert est.lower <= upper + 1e-6
    announce(11, "20 extracted coefficients match 0.5^(n-1); monomial sups below the bound")


def test_criterion_12_determinism():
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs
    for path in configs:
        with open(path) as fh:
            config = json.load(fh)
        record_a, _ = cli.run(config["command"], config)
        record_b, _ = cli.run(config["command"], config)
        record_a.pop("runtime_ms")
        record_b.pop("runtime_ms")
        assert json.dumps(record_a, sort_keys=True) == json.dumps(record_b, sort_keys=True), path
    announce(12, f"{len(configs)} shipped configs rerun byte-identical (runtime_ms aside)")
