import math

import numpy as np
import pytest
from scipy import special

from parsim.presets import anthrax_stp


# safe to share: every scenario component is a frozen dataclass
@pytest.fixture(scope="session")
def anthrax():
    return anthrax_stp()


def _mode_pressure(mode, cell, z, r, phi=0.0):
    """N cos(q pi z / l) J_m(alpha r / a) cos(m phi), the profile of an
    acoustics.AcousticMode in its cell; scalars or arrays."""
    q, m, _ = mode.index
    axial = np.cos(q * math.pi / cell.length * np.asarray(z, dtype=float))
    radial = special.jv(m, mode.bessel_root / cell.radius
                        * np.asarray(r, dtype=float))
    azim = np.cos(m * np.asarray(phi, dtype=float))
    out = mode.norm * axial * radial * azim
    return float(out) if np.ndim(out) == 0 else out


@pytest.fixture(scope="session")
def mode_pressure():
    return _mode_pressure
