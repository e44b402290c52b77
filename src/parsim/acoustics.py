"""Acoustic normal modes of a rigid-walled cylindrical cell.

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

An ``AcousticMode`` carries the index, omega_qmn, alpha_mn and N_qmn, all
that the mode table needs; the profile itself is evaluated only where it
is checked, in the tests' orthonormality quadratures.  alpha_mn and
J_m(alpha_mn) come from a built-in table for m <= 4 and n <= 4, so the
module computes no Bessel function and needs neither numpy nor scipy;
caps beyond the table are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quantities import CellGeometry, GasProperties, in_range, sound_speed

__all__ = [
    "AcousticMode",
    "cylinder_modes",
]

# modes in a table above which it is refused before any mode is built.
# At the limit ``parsim modes`` takes about 0.8 s and 72 MB peak on an
# axial table (7 us and 530 bytes per mode)
MAX_MODES = 100_000

# (alpha_mn, J_m(alpha_mn)) for m = 0..4, n = 1..4: repr of
# scipy.special.jnp_zeros(m, 4) and of j0 (m = 0) or jv(m, .) at each root,
# the only source of the mode constants; tests/test_acoustics.py checks
# them against scipy
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


@dataclass(frozen=True)
class AcousticMode:
    """One normal mode of the rigid-walled cylinder.

    index        (q, m, n): axial, azimuthal, radial
    omega        rad/s
    bessel_root  alpha_mn (0 for the uniform radial profile)
    norm         normalization constant N_qmn

    With the cell these give the profile p_qmn of the module docstring.
    """

    index: tuple[int, int, int]
    omega: float
    bessel_root: float
    norm: float

    @property
    def is_uniform(self) -> bool:
        return self.index == (0, 0, 0)


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


def cylinder_modes(cell: CellGeometry, gas: GasProperties, max_axial: int,
                   max_radial: int, max_azimuthal: int) -> list[AcousticMode]:
    """Modes up to the given per-axis index cutoffs, sorted by frequency.

    Ties are broken lexicographically on (q, m, n).  The cutoffs have no
    defaults here; ``parsim modes --max-modes`` holds the only ones.
    For m >= 1 the radial index starts at 1 (alpha = 0 would be a null
    profile there), so without radial modes only m = 0 has any.  A table
    of more than MAX_MODES modes, caps beyond the root table (a radial cap
    above 4, or an azimuthal cap above 4 with radial modes), or a sound
    speed or a mode frequency that leaves the range of a double, raises
    ValueError, the last two through quantities.in_range.
    """
    if max_axial < 0 or max_radial < 0 or max_azimuthal < 0:
        raise ValueError("mode index cutoffs must be non-negative")
    count = (max_axial + 1) * (1 + max_radial * (max_azimuthal + 1))
    if count > MAX_MODES:
        raise ValueError(f"a table of {count} modes is above the limit of "
                         f"{MAX_MODES}")
    if max_radial > 0 and (max_azimuthal >= len(_RADIAL_TABLE)
                           or max_radial > len(_RADIAL_TABLE[0])):
        raise ValueError(f"the root table holds azimuthal orders up to "
                         f"{len(_RADIAL_TABLE) - 1} and radial indices up to "
                         f"{len(_RADIAL_TABLE[0])}")
    c = in_range("sound speed is", sound_speed(gas))
    a, l = cell.radius, cell.length

    modes: list[AcousticMode] = []
    for m in range(max_azimuthal + 1 if max_radial > 0 else 1):
        roots = [(0.0, 1.0)] if m == 0 else []   # the uniform profile, J_0(0) = 1
        roots += _RADIAL_TABLE[m][:max_radial]
        n_start = 0 if m == 0 else 1
        for n_offset, (alpha, j_m) in enumerate(roots):
            n = n_start + n_offset
            kr = alpha / a
            for q in range(max_axial + 1):
                omega = c * math.hypot(q * math.pi / l, kr)
                if not omega < math.inf:
                    in_range(f"mode {q},{m},{n} has omega", omega, False)
                modes.append(AcousticMode(
                    index=(q, m, n),
                    omega=omega,
                    bessel_root=alpha,
                    norm=_norm_constant(q, m, alpha, j_m),
                ))
    modes.sort(key=lambda mode: (mode.omega, mode.index))
    return modes

