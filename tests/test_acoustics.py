import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import j0, jnp_zeros, jv, jvp

from parsim import acoustics, quantities
from parsim.acoustics import cylinder_modes


@pytest.fixture
def fat_cell():
    # length comparable to the radius so radial and axial modes interleave
    return quantities.CellGeometry(length=0.1, radius=0.05)


def _bisect_root(f, lo, hi, iterations=200):
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_uniform_mode_present(anthrax, mode_pressure):
    modes = cylinder_modes(anthrax.cell, anthrax.gas, max_axial=2, max_radial=1,
                           max_azimuthal=0)
    uniform = modes[0]
    assert uniform.is_uniform
    assert uniform.index == (0, 0, 0)
    assert uniform.omega == 0.0
    assert uniform.norm == 1.0
    assert mode_pressure(uniform, anthrax.cell, 0.03, 1.0e-5) == 1.0


def test_mode_frequencies_closed_form(anthrax):
    c = quantities.sound_speed(anthrax.gas)
    cell = anthrax.cell
    modes = cylinder_modes(cell, anthrax.gas, max_axial=3, max_radial=2,
                           max_azimuthal=0)
    by_index = {m.index: m for m in modes}
    for q in range(4):
        for n in range(3):
            mode = by_index[(q, 0, n)]
            expected = c * math.hypot(q * math.pi / cell.length,
                                      mode.bessel_root / cell.radius)
            assert math.isclose(mode.omega, expected, rel_tol=1e-13)
    assert math.isclose(by_index[(1, 0, 0)].omega, 10377.685870383077,
                        rel_tol=1e-12)


def test_modes_sorted_and_counted(anthrax):
    modes = cylinder_modes(anthrax.cell, anthrax.gas, max_axial=4, max_radial=2,
                           max_azimuthal=0)
    assert len(modes) == 5 * 3
    omegas = [m.omega for m in modes]
    assert omegas == sorted(omegas)
    with pytest.raises(ValueError):
        cylinder_modes(anthrax.cell, anthrax.gas, max_axial=-1, max_radial=2,
                       max_azimuthal=0)


def test_axial_frequencies_against_finite_differences(anthrax):
    # independent check: second-order Neumann Laplacian on the cell axis
    c = quantities.sound_speed(anthrax.gas)
    length = anthrax.cell.length
    n = 10_000
    h = length / (n - 1)
    main = np.full(n, 2.0)
    off = np.full(n - 1, 1.0)
    off[0] = math.sqrt(2.0)   # symmetrized ghost-point closure at the walls
    off[-1] = math.sqrt(2.0)
    vals = eigh_tridiagonal(main, -off, select="i", select_range=(0, 3),
                            eigvals_only=True)
    fd_omegas = np.sqrt(np.abs(vals)) * c / h

    modes = cylinder_modes(anthrax.cell, anthrax.gas, max_axial=3, max_radial=0,
                           max_azimuthal=0)
    for k in range(1, 4):
        mode = next(m for m in modes if m.index == (k, 0, 0))
        assert abs(mode.omega - fd_omegas[k]) / mode.omega < 1.0e-6


def test_radial_root_against_bisection(fat_cell, anthrax):
    modes = cylinder_modes(fat_cell, anthrax.gas, max_axial=0, max_radial=1,
                           max_azimuthal=0)
    first_radial = next(m for m in modes if m.index == (0, 0, 1))
    # J0' = -J1, so the first interior extremum of J0 is the first J1 zero
    root = _bisect_root(lambda x: jv(1, x), 3.0, 4.5)
    assert math.isclose(first_radial.bessel_root, 3.8317059702075125,
                        rel_tol=1e-13)
    assert math.isclose(first_radial.bessel_root, root, rel_tol=1e-10)


def test_mode_orthonormality_by_quadrature(fat_cell, anthrax, mode_pressure):
    # Gauss-Legendre in z and r, uniform grid in phi (exact for trig
    # polynomials); cell-mean of p_i p_j must be the identity matrix
    modes = cylinder_modes(fat_cell, anthrax.gas, max_axial=3, max_radial=2,
                           max_azimuthal=2)[:10]
    a, l = fat_cell.radius, fat_cell.length

    zn, zw = np.polynomial.legendre.leggauss(80)
    z = 0.5 * l * (zn + 1.0)
    zw = 0.5 * l * zw
    rn, rw = np.polynomial.legendre.leggauss(160)
    r = 0.5 * a * (rn + 1.0)
    rw = 0.5 * a * rw * r            # cylindrical weight
    nphi = 32
    phi = np.arange(nphi) * 2.0 * math.pi / nphi
    phiw = np.full(nphi, 2.0 * math.pi / nphi)

    zz, rr, pp = np.meshgrid(z, r, phi, indexing="ij")
    www = (zw[:, None, None] * rw[None, :, None] * phiw[None, None, :])
    fields = [mode_pressure(m, fat_cell, zz, rr, pp) for m in modes]

    volume = fat_cell.volume
    gram = np.empty((len(modes), len(modes)))
    for i in range(len(modes)):
        for j in range(len(modes)):
            gram[i, j] = float(np.sum(fields[i] * fields[j] * www)) / volume
    assert np.max(np.abs(gram - np.eye(len(modes)))) < 1.0e-10


def test_oversized_table_refused_before_any_root(anthrax):
    limit = acoustics.MAX_MODES
    with pytest.raises(ValueError, match=f"^a table of {limit + 1} modes is "
                                         f"above the limit of {limit}$"):
        cylinder_modes(anthrax.cell, anthrax.gas, max_axial=0, max_radial=limit,
                       max_azimuthal=0)


def _within_ulps(a, b, ulps=2):
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


def test_radial_table_roots_meet_the_residual_limit():
    for m, row in enumerate(acoustics._RADIAL_TABLE):
        for alpha, _ in row:
            assert abs(jvp(m, alpha)) <= 1e-10, (m, alpha)


def test_radial_table_matches_scipy():
    # bit-equal with the scipy that wrote it; 2 ulp leaves room for a later one
    assert [len(row) for row in acoustics._RADIAL_TABLE] == [4] * 5
    for m, row in enumerate(acoustics._RADIAL_TABLE):
        roots = jnp_zeros(m, len(row))
        for (alpha, j_m), root in zip(row, roots):
            value = j0(root) if m == 0 else jv(m, root)
            assert _within_ulps(alpha, float(root)), (m, alpha, root)
            assert _within_ulps(j_m, float(value)), (m, j_m, value)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(q=st.integers(0, 6), m=st.integers(0, 4), n=st.integers(0, 4))
def test_table_and_scipy_paths_agree(anthrax, q, m, n):
    # reference: scipy's roots and J_m values through the same omega and
    # N formulas, for every mode of caps inside the table
    modes = cylinder_modes(anthrax.cell, anthrax.gas, q, n, m)
    axial = range(q + 1)
    expected = ([(qq, 0, 0) for qq in axial]
                + [(qq, mm, nn) for qq in axial for mm in range(m + 1)
                   for nn in range(1, n + 1)])
    assert sorted(mode.index for mode in modes) == sorted(expected)
    c = quantities.sound_speed(anthrax.gas)
    a, l = anthrax.cell.radius, anthrax.cell.length
    for mode in modes:
        qq, mm, nn = mode.index
        alpha = float(jnp_zeros(mm, nn)[-1]) if nn else 0.0
        j_m = float(j0(alpha) if mm == 0 else jv(mm, alpha))
        want = {"omega": c * math.hypot(qq * math.pi / l, alpha / a),
                "bessel_root": alpha,
                "norm": acoustics._norm_constant(qq, mm, alpha, j_m)}
        for name, value in want.items():
            assert _within_ulps(getattr(mode, name), value), (mode.index, name)
