"""Acoustic normal modes of a rigid-walled cylindrical cell and their drive.

Mode functions
--------------
With rigid (Neumann) walls the pressure eigenfunctions of a cylinder of
length l and radius a are

    p_qmn(z, r, phi) = N_qmn cos(q pi z / l) J_m(alpha_mn r / a) cos(m phi)

where alpha_mn is the n-th root of J_m' (alpha_00 = 0 gives the uniform
mode) and the angular eigenfrequency is

    omega_qmn = c sqrt[(q pi / l)^2 + (alpha_mn / a)^2].

Modes are normalized to unit mean square over the cell,
(1/V) integral p^2 dV = 1, so the uniform mode is identically 1.  Sine
azimuthal partners are degenerate with the cosine set and are omitted;
axisymmetric sources never excite m > 0 anyway.

Heat drive
----------
A modulated heat density H(r, t) = H0 s(r) e(t), with s normalized to unit
cell average, drives mode j at modulation frequency w with the amplitude

    A_j(w) = i w (gamma - 1) O_j H0 / [V (w_j^2 - w^2 + i w Gamma_s)]

where O_j = integral p_j s dV is the overlap (in m^3; the uniform mode
gives exactly V for any normalized source) and Gamma_s the signal damping
rate.  ``signal_spectrum`` evaluates that response as the modulation
frequency is swept across a grid.

Fourier convention: A(t) = integral dw exp(-i w t) A(w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .quantities import CellGeometry, GasProperties, Scenario, sound_speed

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AcousticMode",
    "UniformCell",
    "BeamCylinder",
    "PointSources",
    "SinusoidalEnvelope",
    "PulseTrainEnvelope",
    "HeatSourceField",
    "SpectrumSeries",
    "SignalSpectrumResult",
    "RootFindingFailure",
    "cylinder_modes",
    "mode_overlap",
    "signal_spectrum",
    "spectrum_csv",
    "pressure_field",
]

CONVENTION_TWO_SIDED = "two-sided-angular"
CONVENTION_ONE_SIDED = "one-sided-angular"

# jnp_zeros residual above this means the root table cannot be trusted
_ROOT_RESIDUAL_LIMIT = 1e-10

# (alpha_mn, J_m(alpha_mn)) for m = 0..4, n = 1..4: repr of
# scipy.special.jnp_zeros(m, 4) and of j0 (m = 0) or jv(m, .) at each root,
# the values the scipy path below computes, so the caps in use need no
# scipy or numpy; tests/test_acoustics.py checks them against scipy
_RADIAL_TABLE = (
    ((3.8317059702075125, -0.402759395702553),
     (7.015586669815619, 0.3001157525261326),
     (10.173468135062722, -0.24970487705784322),
     (13.323691936314223, 0.21835940724787298)),
    ((1.8411837813406595, 0.5818652242815964),
     (5.3314427735250325, -0.34612620185379156),
     (8.536316366346286, 0.2732999416331998),
     (11.706004902592063, -0.23330441717143413)),
    ((3.0542369282271404, 0.4864986822690033),
     (6.706133194158459, -0.31353044515754414),
     (9.969467823087596, 0.25474415821151003),
     (13.170370856016124, -0.22088158215139078)),
    ((4.201188941210528, 0.43439442684052476),
     (8.015236598375953, -0.2911612814628363),
     (11.345924310743007, 0.24073817486246535),
     (14.585848286167028, -0.21096520338792302)),
    ((5.317553126083994, 0.3996519741229633),
     (9.282396285241614, -0.2743816364279931),
     (12.68190844263889, 0.22959047245185207),
     (15.96410703773155, -0.20276385098512095)),
)


class RootFindingFailure(RuntimeError):
    """A Bessel-derivative root did not verify against the function itself."""


@dataclass(frozen=True)
class AcousticMode:
    """One normal mode of the rigid-walled cylinder.

    index             (q, m, n): axial, azimuthal, radial
    omega             rad/s
    axial_wavenumber  q pi / l, 1/m
    bessel_order      m
    radial_wavenumber alpha_mn / a, 1/m
    bessel_root       alpha_mn (0 for the uniform radial profile)
    norm              normalization constant N_qmn
    """

    index: tuple[int, int, int]
    omega: float
    axial_wavenumber: float
    bessel_order: int
    radial_wavenumber: float
    bessel_root: float
    norm: float

    @property
    def is_uniform(self) -> bool:
        return self.index == (0, 0, 0)

    def pressure(self, z, r, phi=0.0):
        """Evaluate the mode profile; accepts scalars or arrays."""
        import numpy as np
        from scipy import special

        axial = np.cos(self.axial_wavenumber * np.asarray(z, dtype=float))
        radial = special.jv(self.bessel_order,
                            self.radial_wavenumber * np.asarray(r, dtype=float))
        azim = np.cos(self.bessel_order * np.asarray(phi, dtype=float))
        out = self.norm * axial * radial * azim
        return float(out) if np.ndim(out) == 0 else out


def _radial_roots(m: int, count: int) -> list[tuple[float, float]]:
    """First ``count`` (alpha_mn, J_m(alpha_mn)) pairs, alpha_mn > 0 a root of J_m'.

    Caps inside ``_RADIAL_TABLE`` read it; beyond it scipy computes the
    roots and verifies them against J_m'.
    """
    if m < len(_RADIAL_TABLE) and count <= len(_RADIAL_TABLE[m]):
        return list(_RADIAL_TABLE[m][:count])
    import numpy as np
    from scipy import special

    roots = special.jnp_zeros(m, count)
    residual = np.abs(special.jvp(m, roots))
    if np.any(residual > _ROOT_RESIDUAL_LIMIT):
        worst = float(residual.max())
        raise RootFindingFailure(
            f"J_{m}' root residual {worst:.3e} exceeds {_ROOT_RESIDUAL_LIMIT:.0e}")
    values = special.j0(roots) if m == 0 else special.jv(m, roots)
    return list(zip(roots.tolist(), values.tolist()))


def _norm_constant(q: int, m: int, alpha: float, j_m: float) -> float:
    """N_qmn such that the cell-mean square of the mode profile is 1.

    ``j_m`` is J_m(alpha); the uniform mode (alpha = 0) ignores it.
    """
    eps_q = 1.0 if q == 0 else 2.0
    if alpha == 0.0:
        return math.sqrt(eps_q)
    if m == 0:
        radial_mean = j_m ** 2
    else:
        radial_mean = 0.5 * (1.0 - m**2 / alpha**2) * j_m ** 2
    return math.sqrt(eps_q / radial_mean)


def cylinder_modes(cell: CellGeometry, gas: GasProperties,
                   max_axial: int = 4, max_radial: int = 2,
                   max_azimuthal: int = 0) -> list[AcousticMode]:
    """Modes up to the given per-axis index cutoffs, sorted by frequency.

    Ties are broken lexicographically on (q, m, n).  Azimuthal orders above
    zero are off by default: axisymmetric heat sources cannot excite them.
    For m >= 1 the radial index starts at 1 (alpha = 0 would be a null
    profile there).
    """
    if max_axial < 0 or max_radial < 0 or max_azimuthal < 0:
        raise ValueError("mode index cutoffs must be non-negative")
    c = sound_speed(gas)
    a, l = cell.radius, cell.length

    modes: list[AcousticMode] = []
    for m in range(max_azimuthal + 1):
        roots = [(0.0, 1.0)] if m == 0 else []   # the uniform profile, J_0(0) = 1
        if max_radial > 0:
            roots += _radial_roots(m, max_radial)
        n_start = 0 if m == 0 else 1
        for n_offset, (alpha, j_m) in enumerate(roots):
            n = n_start + n_offset
            kr = alpha / a
            for q in range(max_axial + 1):
                kz = q * math.pi / l
                omega = c * math.hypot(kz, kr)
                modes.append(AcousticMode(
                    index=(q, m, n),
                    omega=omega,
                    axial_wavenumber=kz,
                    bessel_order=m,
                    radial_wavenumber=kr,
                    bessel_root=alpha,
                    norm=_norm_constant(q, m, alpha, j_m),
                ))
    modes.sort(key=lambda mode: (mode.omega, mode.index))
    return modes


# ---------------------------------------------------------------------------
# heat source descriptors

@dataclass(frozen=True)
class UniformCell:
    """Heat deposited uniformly across the whole cell."""


@dataclass(frozen=True)
class BeamCylinder:
    """Heat deposited uniformly inside a coaxial beam of the given radius."""

    radius: float


@dataclass(frozen=True)
class PointSources:
    """Weighted point deposits at (z, r, phi) positions; weights sum to 1."""

    positions: tuple[tuple[float, float, float], ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class SinusoidalEnvelope:
    """Heat modulation H0 cos(w t)."""

    amplitude: float   # W/m^3
    omega: float       # rad/s


@dataclass(frozen=True)
class PulseTrainEnvelope:
    """Rectangular pulse train: amplitude H0, repetition w_rep, duty in (0, 1)."""

    amplitude: float
    repetition_omega: float
    duty: float

    def harmonic_amplitude(self, k: int) -> float:
        """Cosine-series amplitude of harmonic k (k >= 1)."""
        return 2.0 * self.amplitude * math.sin(math.pi * k * self.duty) / (math.pi * k)


@dataclass(frozen=True)
class HeatSourceField:
    """Spatial shape (unit cell average) times a temporal envelope."""

    shape: UniformCell | BeamCylinder | PointSources
    envelope: SinusoidalEnvelope | PulseTrainEnvelope


def mode_overlap(mode: AcousticMode, shape, cell: CellGeometry) -> float:
    """Overlap integral O_j = integral p_j s dV, in m^3, in closed form.

    Every bundled shape has one; any other shape raises TypeError.
    """
    if isinstance(shape, PointSources):
        if len(shape.positions) != len(shape.weights):
            raise ValueError("point sources need one weight per position")
        total = sum(w * mode.pressure(z, r, phi)
                    for (z, r, phi), w in zip(shape.positions, shape.weights))
        return cell.volume * total
    q, m, _ = mode.index
    if isinstance(shape, UniformCell):
        # orthogonality against the uniform mode
        return cell.volume if mode.is_uniform else 0.0
    if isinstance(shape, BeamCylinder):
        if m > 0 or q > 0:
            return 0.0  # phi average or full-length cosine average vanishes
        if not (0.0 < shape.radius <= cell.radius):
            raise ValueError("beam radius must lie in (0, cell radius]")
        if mode.bessel_root == 0.0:
            return cell.volume
        from scipy import special

        kr = mode.radial_wavenumber
        rb = shape.radius
        radial = rb * special.j1(kr * rb) / kr   # integral of J0(kr r) r dr
        boost = cell.radius**2 / rb**2
        return boost * mode.norm * cell.length * 2.0 * math.pi * radial
    raise TypeError(f"no closed-form overlap for {type(shape).__name__}")


# ---------------------------------------------------------------------------
# spectra

@dataclass(frozen=True)
class SpectrumSeries:
    """Values on an angular-frequency grid with an explicit convention tag.

    kind is "amplitude" (complex pressure amplitudes, Pa) or
    "power-density" (real non-negative PSD, Pa^2 s).  For power densities
    the two-sided-angular convention used throughout is: the variance is
    the two-sided integral of the PSD with measure dw / pi.
    """

    omega: np.ndarray
    values: np.ndarray
    kind: str
    convention: str = CONVENTION_TWO_SIDED
    mode_index: tuple[int, int, int] | None = None

    def __post_init__(self):
        import numpy as np

        omega = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.kind not in ("amplitude", "power-density"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if omega.ndim != 1 or len(omega) != len(self.values):
            raise ValueError("omega and values must be 1-D and equal length")
        if len(omega) > 1 and not np.all(np.diff(omega) > 0.0):
            raise ValueError("frequency grid must be strictly increasing")
        if self.kind == "power-density" and np.any(np.asarray(self.values) < 0.0):
            raise ValueError("power density cannot be negative")


@dataclass(frozen=True)
class SignalSpectrumResult:
    """Driven response of one mode as the modulation frequency is swept."""

    series: SpectrumSeries
    overlap: float
    modulation_amplitude: complex  # response at the envelope's own frequency


def _transfer(omega, mode_omega: float, gamma: float, overlap: float,
              volume: float, damping: float):
    import numpy as np

    w = np.asarray(omega, dtype=float)
    return (1j * w * (gamma - 1.0) * overlap
            / (volume * (mode_omega**2 - w**2 + 1j * w * damping)))


def signal_spectrum(mode: AcousticMode, source: HeatSourceField,
                    scenario: Scenario, omega_grid) -> SignalSpectrumResult:
    """Pressure amplitude of one mode driven by a modulated heat source.

    For a sinusoidal envelope the series sweeps the modulation frequency
    over ``omega_grid``; ``modulation_amplitude`` is the response at the
    envelope's own frequency.  For a pulse train the series holds the
    response at each harmonic line up to max(omega_grid).
    """
    import numpy as np

    gamma = scenario.gas.gamma
    damping = scenario.detector.signal_damping
    volume = scenario.cell.volume
    overlap = mode_overlap(mode, source.shape, scenario.cell)
    env = source.envelope

    if isinstance(env, SinusoidalEnvelope):
        grid = np.asarray(omega_grid, dtype=float)
        values = _transfer(grid, mode.omega, gamma, overlap, volume, damping) \
            * env.amplitude
        at_mod = complex(_transfer(env.omega, mode.omega, gamma, overlap,
                                   volume, damping) * env.amplitude)
        series = SpectrumSeries(grid, values, "amplitude",
                                mode_index=mode.index)
        return SignalSpectrumResult(series, overlap, at_mod)

    if isinstance(env, PulseTrainEnvelope):
        top = float(np.max(np.asarray(omega_grid, dtype=float)))
        k_max = max(1, int(top / env.repetition_omega))
        lines = env.repetition_omega * np.arange(1, k_max + 1)
        amps = np.array([env.harmonic_amplitude(k) for k in range(1, k_max + 1)])
        values = _transfer(lines, mode.omega, gamma, overlap, volume,
                           damping) * amps
        fundamental = complex(values[0])
        series = SpectrumSeries(lines, values, "amplitude",
                                mode_index=mode.index)
        return SignalSpectrumResult(series, overlap, fundamental)

    raise TypeError(f"unknown envelope {type(env).__name__}")


def spectrum_csv(series: SpectrumSeries) -> str:
    """Render a spectrum as CSV; header comments carry the convention."""
    lines = [f"# kind: {series.kind}", f"# convention: {series.convention}"]
    if series.mode_index is not None:
        q, m, n = series.mode_index
        lines.append(f"# mode: {q},{m},{n}")
    if series.kind == "amplitude":
        lines.append("omega_rad_s,re_amplitude_pa,im_amplitude_pa,abs_amplitude_pa")
        for w, v in zip(series.omega, series.values):
            v = complex(v)
            lines.append(f"{float(w)!r},{v.real!r},{v.imag!r},{abs(v)!r}")
    else:
        lines.append("omega_rad_s,psd_pa2_s")
        for w, v in zip(series.omega, series.values):
            lines.append(f"{float(w)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def pressure_field(modes: Sequence[AcousticMode], amplitudes, z, r, phi=0.0):
    """Synthesize sum_j A_j p_j(z, r, phi); amplitudes in Pa."""
    import numpy as np

    amplitudes = np.asarray(amplitudes)
    if len(modes) != len(amplitudes):
        raise ValueError("need exactly one amplitude per mode")
    total = None
    for mode, amp in zip(modes, amplitudes):
        term = amp * mode.pressure(z, r, phi)
        total = term if total is None else total + term
    if total is None:
        return 0.0
    return total
