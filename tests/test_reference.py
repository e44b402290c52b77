"""Differential test of the detection chain against bench/reference.py.

The reference rebuilds the chain, warning bits included, from the closed
forms in the module docstrings and imports nothing from parsim.  Scenarios
are drawn around the anthrax_stp preset with each field scaled by
10^U(-3, 3).  Values must agree within 1e-12 relative, and warning bits
exactly, wherever every switch of the chain (eta's branch, the four bits)
is at least 1e-9 off its threshold; parsim must refuse exactly the
scenarios whose reference rho_min is not finite and positive.
"""

import ast
import dataclasses
import math
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsim.cli import main
from parsim.detection import min_density
from parsim.presets import anthrax_stp
from parsim.quantities import validate_scenario

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
REL_TOL = 1e-12
CLEARANCE = 1.0 + 1e-9


def _load_reference():
    # run from its text, so that no bytecode is written next to it
    module = types.ModuleType("reference")
    exec(compile(REFERENCE.read_text(), str(REFERENCE), "exec"), module.__dict__)
    return module


ref = _load_reference()
PRESET = ref.anthrax_stp()

# exponent range of each field's scale factor 10^e.  A field with a bound
# keeps to the side that validate_scenario accepts; gamma does not, and a
# gamma below 1 gives a negative reference rho_min, which parsim refuses.
# laser.pump_omega scales the Raman shift, so the pump stays above the Stokes
EXPONENTS = {path: (-3.0, 3.0) for path, value in PRESET.items()
             if value is not None} | {
    "cell.detector_coverage": (-3.0, 0.0),      # (0, 1]
    "laser.refractive_index": (0.0, 3.0),       # >= 1
    "particle.raman_fraction": (-3.0, 0.9),     # (0, 1]
}


def _scenario(flat):
    """The parsim Scenario of a reference scenario dict."""
    scenario = dataclasses.replace(anthrax_stp(), spore_density=flat["spore_density"])
    for path, value in flat.items():
        section, _, attr = path.partition(".")
        if attr:
            part = dataclasses.replace(getattr(scenario, section), **{attr: value})
            scenario = dataclasses.replace(scenario, **{section: part})
    return scenario


# non-negative fields that a draw may set to 0: no Raman heating, which
# parsim refuses and which takes the reference's rho_min to a division by 0
ZEROED = ("particle.active_density", "particle.raman_cross_section",
          "particle.collisional_rate", "laser.pump_intensity")


def _drawn(exponents, radius, zeroed):
    flat = dict(PRESET)
    for path, e in exponents.items():
        flat[path] = PRESET[path] * 10.0 ** e
    shift = PRESET["laser.pump_omega"] - PRESET["laser.stokes_omega"]
    flat["laser.pump_omega"] = (flat["laser.stokes_omega"]
                                + shift * 10.0 ** exponents["laser.pump_omega"])
    if radius is not None:
        equivalent = (3.0 * PRESET["particle.volume"] / (4.0 * math.pi)) ** (1.0 / 3.0)
        flat["particle.radius_override"] = equivalent * 10.0 ** radius
    if zeroed is not None:
        flat[zeroed] = 0.0
    return flat


def _reference_chain(flat, snr, angular):
    """ref.chain, or None where the reference's rho_min is not finite and
    positive (its math raises on a division by zero or an overflow)."""
    try:
        want = ref.chain(flat, snr=snr, angular=angular)
    except ArithmeticError:
        return None
    return want if 0.0 < want["rho_min"] < math.inf else None


def _assert_matches(want, got):
    """got holds h_r, h_nep, eta, rho_min, implied_count and warning_bits."""
    for name in ("h_r", "h_nep"):
        assert math.isclose(got[name], want[name], rel_tol=REL_TOL), name
    # eta's branch and every bit are compared only off their thresholds
    if ref.clear_of_switches(want["margins"], CLEARANCE):
        for name in ("eta", "rho_min", "implied_count"):
            assert math.isclose(got[name], want[name], rel_tol=REL_TOL), name
        assert got["warning_bits"] == want["warning_bits"]


def test_reference_imports_nothing_from_parsim():
    tree = ast.parse(REFERENCE.read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert names and not [n for n in names if n.split(".")[0] == "parsim"]


def test_reference_preset_is_the_package_preset():
    assert _scenario(PRESET) == anthrax_stp()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(exponents=st.fixed_dictionaries({path: st.floats(*bounds)
                                        for path, bounds in EXPONENTS.items()}),
       radius=st.none() | st.floats(-3.0, 3.0),
       zeroed=st.none() | st.sampled_from(ZEROED),
       snr=st.floats(-3.0, 3.0),
       angular=st.booleans())
def test_chain_matches_reference(exponents, radius, zeroed, snr, angular):
    flat = _drawn(exponents, radius, zeroed)
    snr = 10.0 ** snr
    want = _reference_chain(flat, snr, angular)
    scenario = _scenario(flat)
    try:
        report = min_density(validate_scenario(scenario), snr=snr,
                             linewidth_convention="angular" if angular else "ordinary")
    except ValueError:
        assert want is None
        return
    assert want is not None
    _assert_matches(want, {
        "h_r": report.h_r, "h_nep": report.h_nep, "eta": report.eta,
        "rho_min": report.rho_min,
        "implied_count": report.rho_min * scenario.cell.volume,
        "warning_bits": report.warning_bits,
    })


# each sweep crosses switches at steps of about 1%, so that a threshold
# moved by a few percent shows: the sparse-suspension and the breakdown
# switch, then eta's branch (w_m near 3200 rad/s) and small modulation
# (w_m = 4000 rad/s)
SWEEPS = [
    ("laser.pump_intensity,laser.stokes_intensity=log:1e8:1e17:1801", "ordinary",
     {0, 4, 5}),
    ("laser.modulation_omega=log:1e1:1e5:1001", "angular", {4, 6, 14}),
]


@pytest.mark.parametrize("spec, convention, bits", SWEEPS,
                         ids=["intensities", "modulation"])
def test_sweep_matches_reference_point_by_point(capsys, spec, convention, bits):
    assert main(["sweep", "--vary", spec, "--linewidth-convention", convention]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    paths = lines[0].split(",")[:spec.count(",") + 1]
    assert len(lines) - 1 == int(spec.rpartition(":")[2])
    seen = set()
    for line in lines[1:]:
        row = line.split(",")
        flat = PRESET | dict(zip(paths, map(float, row)))
        rho_min, h_r, eta, h_nep = map(float, row[len(paths):-1])
        want = ref.chain(flat, angular=convention == "angular")
        _assert_matches(want, {
            "h_r": h_r, "h_nep": h_nep, "eta": eta, "rho_min": rho_min,
            "implied_count": rho_min * ref.cell_volume(flat),
            "warning_bits": int(row[-1]),
        })
        seen.add(int(row[-1]))
    assert seen == bits
