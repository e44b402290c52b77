import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import eigh_tridiagonal
from scipy.special import j0, jnp_zeros, jv, jvp

from parsim import acoustics, quantities
from parsim.acoustics import (
    AcousticMode,
    BeamCylinder,
    HeatSourceField,
    PointSources,
    PulseTrainEnvelope,
    SinusoidalEnvelope,
    SpectrumSeries,
    UniformCell,
    cylinder_modes,
    mode_overlap,
    pressure_field,
    signal_spectrum,
)


@pytest.fixture
def fat_cell():
    # length comparable to the radius so radial and axial modes interleave
    return quantities.CellGeometry(length=0.1, radius=0.05)


def _overlap_quadrature(mode, shape, cell):
    """Reference overlap of a BeamCylinder shape by adaptive quadrature.

    Scaled coordinates keep both integrals O(1), so the error targets mean
    the same for any cell size; the combined error estimate must stay below
    1e-8 relative (or 1e-10 absolute in scaled units).
    """
    if mode.bessel_order > 0:
        return 0.0  # axisymmetric shapes cannot excite m > 0
    a, l = cell.radius, cell.length
    kz = mode.axial_wavenumber * l
    kr = mode.radial_wavenumber * a
    tolerances = dict(epsabs=1e-14, epsrel=1e-10, limit=200)

    za, za_err = integrate.quad(lambda t: math.cos(kz * t), 0.0, 1.0,
                                **tolerances)
    # the unit-average beam profile is a^2 / rb^2 inside the beam, 0 outside
    boost = a**2 / shape.radius**2
    ra, ra_err = integrate.quad(lambda t: boost * j0(kr * t) * t,
                                0.0, shape.radius / a, **tolerances)
    scaled = za * ra
    scaled_err = abs(za) * ra_err + abs(ra) * za_err + za_err * ra_err
    assert scaled_err <= max(1e-8 * abs(scaled), 1e-10), mode.index
    return mode.norm * 2.0 * math.pi * a**2 * l * scaled


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


def test_uniform_mode_present(anthrax):
    modes = cylinder_modes(anthrax.cell, anthrax.gas, max_axial=2, max_radial=1)
    uniform = modes[0]
    assert uniform.is_uniform
    assert uniform.index == (0, 0, 0)
    assert uniform.omega == 0.0
    assert uniform.norm == 1.0
    assert uniform.pressure(0.03, 1.0e-5) == 1.0


def test_mode_frequencies_closed_form(anthrax):
    c = quantities.sound_speed(anthrax.gas)
    cell = anthrax.cell
    modes = cylinder_modes(cell, anthrax.gas, max_axial=3, max_radial=2)
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
    modes = cylinder_modes(anthrax.cell, anthrax.gas, max_axial=4, max_radial=2)
    assert len(modes) == 5 * 3
    omegas = [m.omega for m in modes]
    assert omegas == sorted(omegas)
    with pytest.raises(ValueError):
        cylinder_modes(anthrax.cell, anthrax.gas, max_axial=-1)


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

    modes = cylinder_modes(anthrax.cell, anthrax.gas, max_axial=3, max_radial=0)
    for k in range(1, 4):
        mode = next(m for m in modes if m.index == (k, 0, 0))
        assert abs(mode.omega - fd_omegas[k]) / mode.omega < 1.0e-6


def test_radial_root_against_bisection(fat_cell, anthrax):
    modes = cylinder_modes(fat_cell, anthrax.gas, max_axial=0, max_radial=1)
    first_radial = next(m for m in modes if m.index == (0, 0, 1))
    # J0' = -J1, so the first interior extremum of J0 is the first J1 zero
    root = _bisect_root(lambda x: jv(1, x), 3.0, 4.5)
    assert math.isclose(first_radial.bessel_root, 3.8317059702075125,
                        rel_tol=1e-13)
    assert math.isclose(first_radial.bessel_root, root, rel_tol=1e-10)


def test_mode_orthonormality_by_quadrature(fat_cell, anthrax):
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
    fields = [m.pressure(zz, rr, pp) for m in modes]

    volume = fat_cell.volume
    gram = np.empty((len(modes), len(modes)))
    for i in range(len(modes)):
        for j in range(len(modes)):
            gram[i, j] = float(np.sum(fields[i] * fields[j] * www)) / volume
    assert np.max(np.abs(gram - np.eye(len(modes)))) < 1.0e-10


def test_root_residuals_verified(anthrax):
    # caps beyond the table take scipy's roots, checked against J_m' on
    # construction
    modes = cylinder_modes(anthrax.cell, anthrax.gas, max_axial=0,
                           max_radial=6, max_azimuthal=5)
    assert len(modes) == 1 + 6 * 6


def test_root_residual_above_the_limit_raises(anthrax, monkeypatch):
    monkeypatch.setattr(acoustics, "_ROOT_RESIDUAL_LIMIT", 0.0)
    # inside the table nothing is computed, so nothing can fail
    cylinder_modes(anthrax.cell, anthrax.gas, max_axial=0, max_radial=4,
                   max_azimuthal=4)
    with pytest.raises(acoustics.RootFindingFailure, match="J_0' root residual"):
        cylinder_modes(anthrax.cell, anthrax.gas, max_axial=0, max_radial=5)


def _within_ulps(a, b, ulps=2):
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


def test_radial_table_roots_meet_the_residual_limit():
    for m, row in enumerate(acoustics._RADIAL_TABLE):
        for alpha, _ in row:
            assert abs(jvp(m, alpha)) <= acoustics._ROOT_RESIDUAL_LIMIT, (m, alpha)


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
@given(q=st.integers(0, 6), m=st.integers(0, 7), n=st.integers(0, 7))
def test_table_and_scipy_paths_agree(anthrax, q, m, n):
    tabled = cylinder_modes(anthrax.cell, anthrax.gas, q, n, m)
    with mock.patch.object(acoustics, "_RADIAL_TABLE", ()):
        computed = cylinder_modes(anthrax.cell, anthrax.gas, q, n, m)
    assert [mode.index for mode in tabled] == [mode.index for mode in computed]
    for a, b in zip(tabled, computed):
        for name in ("omega", "bessel_root", "norm"):
            assert _within_ulps(getattr(a, name), getattr(b, name)), (a.index, name)


def test_overlap_uniform_source(anthrax):
    modes = cylinder_modes(anthrax.cell, anthrax.gas, max_axial=2, max_radial=1)
    volume = anthrax.cell.volume
    for mode in modes:
        overlap = mode_overlap(mode, UniformCell(), anthrax.cell)
        if mode.is_uniform:
            assert overlap == volume
        else:
            assert overlap == 0.0


def test_overlap_beam_uniform_mode_is_volume(anthrax):
    # any axisymmetric unit-average source drives the uniform mode by V
    uniform = cylinder_modes(anthrax.cell, anthrax.gas, 0, 0)[0]
    for fraction in (0.01, 0.1, 0.9, 1.0):
        beam = BeamCylinder(radius=fraction * anthrax.cell.radius)
        overlap = mode_overlap(uniform, beam, anthrax.cell)
        assert math.isclose(overlap, anthrax.cell.volume, rel_tol=1e-12)
        quad = _overlap_quadrature(uniform, beam, anthrax.cell)
        assert math.isclose(quad, anthrax.cell.volume, rel_tol=1e-8)


def test_overlap_beam_reference(fat_cell, anthrax):
    mode = next(m for m in cylinder_modes(fat_cell, anthrax.gas, 0, 1)
                if m.index == (0, 0, 1))
    beam = BeamCylinder(radius=0.1 * fat_cell.radius)
    closed = mode_overlap(mode, beam, fat_cell)
    quad = _overlap_quadrature(mode, beam, fat_cell)
    assert math.isclose(closed, 0.0019144732285547692, rel_tol=1e-10)
    assert math.isclose(quad, closed, rel_tol=1e-8)


def test_overlap_closed_vs_quadrature_sweep(fat_cell, anthrax):
    modes = cylinder_modes(fat_cell, anthrax.gas, max_axial=1, max_radial=2)
    for mode in modes:
        for fraction in (0.05, 0.3, 0.9):
            beam = BeamCylinder(radius=fraction * fat_cell.radius)
            closed = mode_overlap(mode, beam, fat_cell)
            quad = _overlap_quadrature(mode, beam, fat_cell)
            scale = max(abs(closed), 1e-9 * fat_cell.volume)
            assert abs(closed - quad) / scale < 1e-7, mode.index


def test_overlap_beam_tiny_cell(anthrax):
    # the absolute scale of the real cell is ~1e-8 m^3; the quadrature
    # error control must not confuse small numbers with failure
    modes = cylinder_modes(anthrax.cell, anthrax.gas, max_axial=0, max_radial=1)
    mode = next(m for m in modes if m.index == (0, 0, 1))
    beam = BeamCylinder(radius=0.2 * anthrax.cell.radius)
    closed = mode_overlap(mode, beam, anthrax.cell)
    quad = _overlap_quadrature(mode, beam, anthrax.cell)
    assert math.isclose(quad, closed,
                        rel_tol=1e-7, abs_tol=1e-12 * anthrax.cell.volume)


def test_overlap_beam_guards(anthrax):
    uniform = cylinder_modes(anthrax.cell, anthrax.gas, 0, 0)[0]
    with pytest.raises(ValueError):
        mode_overlap(uniform, BeamCylinder(radius=2.0 * anthrax.cell.radius),
                     anthrax.cell)
    with pytest.raises(ValueError):
        mode_overlap(uniform, BeamCylinder(radius=0.0), anthrax.cell)


def test_overlap_without_closed_form_raises(anthrax):
    @dataclasses.dataclass(frozen=True)
    class Annulus:
        inner: float
        outer: float

    uniform = cylinder_modes(anthrax.cell, anthrax.gas, 0, 0)[0]
    with pytest.raises(TypeError, match="no closed-form overlap for Annulus"):
        mode_overlap(uniform, Annulus(0.1e-3, 0.2e-3), anthrax.cell)


def test_overlap_point_sources(anthrax):
    modes = cylinder_modes(anthrax.cell, anthrax.gas, max_axial=1, max_radial=0)
    uniform = modes[0]
    axial = next(m for m in modes if m.index == (1, 0, 0))
    cell = anthrax.cell
    single = PointSources(positions=((0.0, 0.0, 0.0),), weights=(1.0,))
    assert math.isclose(mode_overlap(uniform, single, cell), cell.volume,
                        rel_tol=1e-14)
    # cos(pi z / l) at z = 0 gives +norm
    assert math.isclose(mode_overlap(axial, single, cell),
                        cell.volume * axial.norm, rel_tol=1e-13)
    # symmetric pair straddling the node cancels exactly
    pair = PointSources(positions=((0.0, 0.0, 0.0), (cell.length, 0.0, 0.0)),
                        weights=(0.5, 0.5))
    assert abs(mode_overlap(axial, pair, cell)) < 1e-16 * cell.volume
    broken = PointSources(positions=((0.0, 0.0, 0.0),), weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        mode_overlap(uniform, broken, cell)


def test_azimuthal_modes_reject_axisymmetric_sources(fat_cell, anthrax):
    modes = cylinder_modes(fat_cell, anthrax.gas, max_axial=0, max_radial=1,
                           max_azimuthal=1)
    skew = next(m for m in modes if m.bessel_order == 1)
    beam = BeamCylinder(radius=0.5 * fat_cell.radius)
    assert mode_overlap(skew, beam, fat_cell) == 0.0
    assert _overlap_quadrature(skew, beam, fat_cell) == 0.0


def test_signal_spectrum_peak_and_width(anthrax):
    mode = next(m for m in cylinder_modes(anthrax.cell, anthrax.gas, 1, 0)
                if m.index == (1, 0, 0))
    damping = anthrax.detector.signal_damping
    source = HeatSourceField(shape=UniformCell(),
                             envelope=SinusoidalEnvelope(amplitude=1.0,
                                                         omega=100.0))
    # the uniform source cannot drive this mode; use a point source instead
    point = PointSources(positions=((0.0, 0.0, 0.0),), weights=(1.0,))
    source = dataclasses.replace(source, shape=point)
    grid = np.linspace(mode.omega - 5.0 * damping, mode.omega + 5.0 * damping,
                       20001)
    result = signal_spectrum(mode, source, anthrax, grid)
    power = np.abs(result.series.values) ** 2
    peak = int(np.argmax(power))
    assert abs(grid[peak] - mode.omega) < damping / 50.0

    half = power[peak] / 2.0
    left = np.interp(half, power[:peak], grid[:peak])
    right = np.interp(half, power[peak:][::-1], grid[peak:][::-1])
    fwhm = right - left
    assert math.isclose(fwhm, damping, rel_tol=0.02)


def test_signal_spectrum_asymptotes(anthrax):
    mode = next(m for m in cylinder_modes(anthrax.cell, anthrax.gas, 1, 0)
                if m.index == (1, 0, 0))
    point = PointSources(positions=((0.0, 0.0, 0.0),), weights=(1.0,))
    source = HeatSourceField(shape=point,
                             envelope=SinusoidalEnvelope(amplitude=1.0,
                                                         omega=1.0))
    grid = np.array([1.0, 2.0, 1.0e7, 2.0e7])
    values = signal_spectrum(mode, source, anthrax, grid).series.values
    assert math.isclose(abs(values[1]) / abs(values[0]), 2.0, rel_tol=1e-4)
    assert math.isclose(abs(values[3]) / abs(values[2]), 0.5, rel_tol=1e-4)


def test_signal_spectrum_formula(anthrax):
    # uniform mode driven by the whole-cell source: the analytic response
    uniform = cylinder_modes(anthrax.cell, anthrax.gas, 0, 0)[0]
    h0 = 2.5
    omega = 100.0
    source = HeatSourceField(shape=UniformCell(),
                             envelope=SinusoidalEnvelope(amplitude=h0,
                                                         omega=omega))
    result = signal_spectrum(uniform, source, anthrax, np.array([omega]))
    gamma = anthrax.gas.gamma
    damping = anthrax.detector.signal_damping
    expected = (1j * omega * (gamma - 1.0) * anthrax.cell.volume * h0
                / (anthrax.cell.volume * (-omega**2 + 1j * omega * damping)))
    assert result.modulation_amplitude == pytest.approx(expected, rel=1e-12)
    assert result.series.values[0] == pytest.approx(expected, rel=1e-12)
    assert math.isclose(result.overlap, anthrax.cell.volume, rel_tol=1e-14)


def test_signal_spectrum_linear_in_drive(anthrax):
    uniform = cylinder_modes(anthrax.cell, anthrax.gas, 0, 0)[0]
    grid = np.array([50.0, 100.0, 500.0])
    one = signal_spectrum(
        uniform,
        HeatSourceField(UniformCell(), SinusoidalEnvelope(1.0, 100.0)),
        anthrax, grid).series.values
    ten = signal_spectrum(
        uniform,
        HeatSourceField(UniformCell(), SinusoidalEnvelope(10.0, 100.0)),
        anthrax, grid).series.values
    assert np.allclose(ten, 10.0 * one, rtol=1e-13)


def test_pulse_train_lines(anthrax):
    uniform = cylinder_modes(anthrax.cell, anthrax.gas, 0, 0)[0]
    envelope = PulseTrainEnvelope(amplitude=1.0, repetition_omega=100.0,
                                  duty=0.5)
    source = HeatSourceField(UniformCell(), envelope)
    result = signal_spectrum(uniform, source, anthrax,
                             np.linspace(0.0, 1000.0, 2))
    lines = result.series.omega
    assert np.allclose(lines, 100.0 * np.arange(1, 11))
    # even harmonics of a half-duty square wave vanish
    mags = np.abs(result.series.values)
    assert np.all(mags[1::2] < 1e-18)
    assert np.all(mags[0::2] > 0.0)
    assert result.modulation_amplitude == result.series.values[0]
    assert math.isclose(envelope.harmonic_amplitude(1), 2.0 / math.pi,
                        rel_tol=1e-15)


def test_spectrum_series_validation():
    with pytest.raises(ValueError):
        SpectrumSeries(np.array([2.0, 1.0]), np.array([1.0, 1.0]),
                       "power-density")
    with pytest.raises(ValueError):
        SpectrumSeries(np.array([1.0, 2.0]), np.array([1.0, -1.0]),
                       "power-density")
    with pytest.raises(ValueError):
        SpectrumSeries(np.array([1.0]), np.array([1.0]), "wiggles")
    with pytest.raises(ValueError):
        SpectrumSeries(np.array([1.0, 2.0]), np.array([1.0]), "amplitude")


def test_pressure_field_synthesis(anthrax):
    modes = cylinder_modes(anthrax.cell, anthrax.gas, 1, 0)
    amps = np.array([0.5, 2.0])
    z = np.array([0.0, 0.025, 0.05])
    total = pressure_field(modes, amps, z, 0.0)
    manual = amps[0] * modes[0].pressure(z, 0.0) + amps[1] * modes[1].pressure(z, 0.0)
    assert np.allclose(total, manual, rtol=1e-14)
    with pytest.raises(ValueError):
        pressure_field(modes, np.array([1.0]), z, 0.0)


def test_spectrum_csv_amplitude_round_trip(anthrax):
    modes = cylinder_modes(anthrax.cell, anthrax.gas, 1, 0)
    source = HeatSourceField(UniformCell(), SinusoidalEnvelope(3.0, 100.0))
    grid = np.array([50.0, 100.0, 200.0])
    result = acoustics.signal_spectrum(modes[1], source, anthrax, grid)
    text = acoustics.spectrum_csv(result.series)
    lines = text.splitlines()
    assert lines[0] == "# kind: amplitude"
    assert lines[1] == "# convention: two-sided-angular"
    assert lines[2] == "# mode: 1,0,0"
    assert lines[3] == ("omega_rad_s,re_amplitude_pa,im_amplitude_pa,"
                        "abs_amplitude_pa")
    for row, w, v in zip(lines[4:], grid, result.series.values):
        cells = [float(c) for c in row.split(",")]
        assert cells[0] == w
        assert cells[1] == complex(v).real and cells[2] == complex(v).imag
        assert cells[3] == abs(complex(v))


def test_spectrum_csv_power_density():
    series = SpectrumSeries(np.array([1.0, 2.0]), np.array([0.25, 0.5]),
                            "power-density")
    text = acoustics.spectrum_csv(series)
    lines = text.splitlines()
    assert lines[2] == "omega_rad_s,psd_pa2_s"
    assert lines[3] == "1.0,0.25"
    assert lines[4] == "2.0,0.5"
