import dataclasses
import math
import textwrap

import pytest
import yaml

from parsim import scenario_io
from parsim.quantities import ATOMIC_MASS, Scenario, ScenarioValidationError
from parsim.scenario_io import (
    ParseError,
    SchemaError,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    scenario_hash,
)

MINIMAL = textwrap.dedent("""\
    format_version: 1
    gas:
      pressure_pa: 101325.0
      temperature_k: 300.0
      density_kg_m3: 1.3
      adiabatic_index: 1.4
      molecule_mass_kg: 4.649509386e-26
    cell:
      length_m: 0.1
      radius_m: 1.784e-4
    laser:
      pump_omega_rad_s: 2.613274122871835e15
      stokes_omega_rad_s: 2.513274122871835e15
      pump_intensity_w_m2: 1.0e12
      stokes_intensity_w_m2: 1.0e12
    particle:
      volume_m3: 2.0e-18
      molecule_count: 1.0e12
      raman_fraction: 0.1
      active_density_m3: 4.0e26
      raman_cross_section_m2_sr: 3.25e-33
      linewidth_hz: 6.45e10
      collisional_rate_rad_s: 1.0e12
      radiative_rate_rad_s: 1.0e3
      molar_heat_j_mol_k: 4.2
    detector:
      noise_mode_omega_rad_s: 4.0e4
      noise_damping_rad_s: 5.0e4
      signal_damping_rad_s: 100.0
    """)


def test_load_minimal():
    result = loads_scenario(MINIMAL)
    scenario = result.scenario
    assert result.warnings == ()
    assert scenario.gas.pressure == 101325.0
    # plain-YAML unsigned exponents arrive as strings and must be coerced
    assert scenario.laser.pump_intensity == 1.0e12
    assert scenario.particle.volume == 2.0e-18
    # defaults fill in
    assert scenario.cell.detector_coverage == 1.0
    assert scenario.laser.refractive_index == 1.0
    assert scenario.laser.modulation_omega == 100.0
    assert scenario.spore_density is None


def test_round_trip_exact(anthrax):
    text = dumps_scenario(anthrax)
    back = loads_scenario(text).scenario
    assert back == anthrax


def test_round_trip_with_optionals(anthrax):
    cell = dataclasses.replace(anthrax.cell, detector_coverage=0.7)
    particle = dataclasses.replace(anthrax.particle, radius_override=9.0e-7)
    scenario = dataclasses.replace(anthrax, cell=cell, particle=particle,
                                   spore_density=2.5e4)
    back = loads_scenario(dumps_scenario(scenario)).scenario
    assert back == scenario
    assert back.particle.radius_override == 9.0e-7


def test_file_round_trip(anthrax, tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(dumps_scenario(anthrax), encoding="utf-8")
    result = load_scenario(path)
    assert result.scenario == anthrax


def test_hz_aliases_convert():
    text = MINIMAL.replace(
        "  noise_mode_omega_rad_s: 4.0e4",
        "  noise_mode_hz: 2.0e3")
    scenario = loads_scenario(text).scenario
    assert math.isclose(scenario.detector.noise_mode_omega,
                        2.0 * math.pi * 2.0e3, rel_tol=1e-15)


def test_amu_alias_converts():
    text = MINIMAL.replace("  molecule_mass_kg: 4.649509386e-26",
                           "  molecule_mass_amu: 28.0")
    scenario = loads_scenario(text).scenario
    assert math.isclose(scenario.gas.molecule_mass, 28.0 * ATOMIC_MASS,
                        rel_tol=1e-15)


def test_alias_conflict_rejected():
    text = MINIMAL.replace(
        "  noise_mode_omega_rad_s: 4.0e4",
        "  noise_mode_omega_rad_s: 4.0e4\n  noise_mode_hz: 2.0e3")
    with pytest.raises(SchemaError, match="same quantity"):
        loads_scenario(text)


def test_unknown_key_strict_vs_lenient():
    text = MINIMAL + "orientation: vertical\n"
    with pytest.raises(SchemaError, match="unknown keys"):
        loads_scenario(text)
    result = loads_scenario(text, lenient=True)
    assert any("orientation" in w for w in result.warnings)

    nested = MINIMAL.replace("  length_m: 0.1",
                             "  length_m: 0.1\n  color: red")
    with pytest.raises(SchemaError, match="cell.color"):
        loads_scenario(nested)
    assert loads_scenario(nested, lenient=True).scenario.cell.length == 0.1


def test_missing_keys_reported_together():
    text = MINIMAL.replace("  pressure_pa: 101325.0\n", "")
    text = text.replace("  length_m: 0.1\n", "")
    with pytest.raises(SchemaError) as err:
        loads_scenario(text)
    message = str(err.value)
    assert "gas.pressure_pa" in message
    assert "cell.length_m" in message


def test_missing_section_lists_every_field():
    text = MINIMAL.replace("detector:\n", "detector_typo:\n")
    with pytest.raises(SchemaError) as err:
        loads_scenario(text.replace("  noise_mode_omega_rad_s", "  x"),
                       lenient=True)
    message = str(err.value)
    for key in ("detector.noise_mode_omega_rad_s", "detector.noise_damping_rad_s",
                "detector.signal_damping_rad_s"):
        assert key in message


def test_format_version_required_and_checked():
    with pytest.raises(SchemaError, match="format_version"):
        loads_scenario(MINIMAL.replace("format_version: 1\n", ""))
    with pytest.raises(SchemaError, match="not supported"):
        loads_scenario(MINIMAL.replace("format_version: 1", "format_version: 99"))


def test_parse_error_carries_position():
    broken = "format_version: 1\ngas: [unclosed\n"
    with pytest.raises(ParseError, match=r"line \d+"):
        loads_scenario(broken)


def test_empty_and_non_mapping_documents():
    with pytest.raises(SchemaError, match="empty"):
        loads_scenario("")
    with pytest.raises(SchemaError, match="mapping"):
        loads_scenario("- 1\n- 2\n")
    gas_block = ("gas:\n"
                 "  pressure_pa: 101325.0\n"
                 "  temperature_k: 300.0\n"
                 "  density_kg_m3: 1.3\n"
                 "  adiabatic_index: 1.4\n"
                 "  molecule_mass_kg: 4.649509386e-26\n")
    with pytest.raises(SchemaError, match="gas"):
        loads_scenario(MINIMAL.replace(gas_block, "gas: 17\n"))


def test_non_numeric_value_rejected():
    text = MINIMAL.replace("  temperature_k: 300.0", "  temperature_k: warm")
    with pytest.raises(SchemaError, match="gas.temperature_k"):
        loads_scenario(text)


def test_validation_runs_by_default():
    text = MINIMAL.replace("  adiabatic_index: 1.4", "  adiabatic_index: 0.9")
    with pytest.raises(ScenarioValidationError):
        loads_scenario(text)


def test_every_scenario_field_can_be_set_from_a_file():
    # a field that no file key reaches is a knob only code can turn
    table = {name: (cls, fields) for name, cls, fields in scenario_io._SECTIONS}
    for field in dataclasses.fields(Scenario):
        if field.name == "spore_density":
            text = MINIMAL + "spore_density_m3: 2.5e4\n"
            assert loads_scenario(text).scenario.spore_density == 2.5e4
            continue
        assert field.name in table, f"no file section sets Scenario.{field.name}"
        cls, keys = table[field.name]
        assert field.type == cls.__name__
        assert (sorted(f.name for f in dataclasses.fields(cls))
                == sorted(key.attr for key in keys)), field.name


def test_hash_stable_and_alias_independent(anthrax):
    h1 = scenario_hash(anthrax)
    assert h1 == scenario_hash(anthrax)
    assert len(h1) == 64
    # the same physics written through an alias hashes identically
    base = loads_scenario(MINIMAL).scenario
    hz_text = MINIMAL.replace("  noise_mode_omega_rad_s: 4.0e4",
                              "  noise_mode_hz: 6.366197723675814e3")
    via_alias = loads_scenario(hz_text).scenario
    assert math.isclose(via_alias.detector.noise_mode_omega,
                        base.detector.noise_mode_omega, rel_tol=1e-12)
    changed = dataclasses.replace(anthrax, spore_density=1.0)
    assert scenario_hash(changed) != h1


def test_dumps_uses_canonical_keys(anthrax):
    text = dumps_scenario(anthrax)
    assert "format_version: 1" in text
    assert "pressure_pa:" in text
    assert "noise_mode_omega_rad_s:" in text
    assert "_hz:" not in text.replace("linewidth_hz:", "")


def _loader_inputs(anthrax):
    """The YAML texts the tests above load, valid and broken."""
    gas_block = MINIMAL[MINIMAL.index("gas:\n"):MINIMAL.index("cell:\n")]
    optionals = dataclasses.replace(
        anthrax, spore_density=2.5e4,
        cell=dataclasses.replace(anthrax.cell, detector_coverage=0.7),
        particle=dataclasses.replace(anthrax.particle, radius_override=9.0e-7))
    return [
        MINIMAL,
        dumps_scenario(anthrax),
        dumps_scenario(optionals),
        MINIMAL.replace("  noise_mode_omega_rad_s: 4.0e4", "  noise_mode_hz: 2.0e3"),
        MINIMAL.replace("  molecule_mass_kg: 4.649509386e-26",
                        "  molecule_mass_amu: 28.0"),
        MINIMAL.replace("  noise_mode_omega_rad_s: 4.0e4",
                        "  noise_mode_omega_rad_s: 4.0e4\n  noise_mode_hz: 2.0e3"),
        MINIMAL + "orientation: vertical\n",
        MINIMAL.replace("  length_m: 0.1", "  length_m: 0.1\n  color: red"),
        MINIMAL.replace("  pressure_pa: 101325.0\n", "").replace("  length_m: 0.1\n", ""),
        MINIMAL.replace("detector:\n", "detector_typo:\n"),
        MINIMAL.replace("format_version: 1\n", ""),
        MINIMAL.replace("format_version: 1", "format_version: 99"),
        "format_version: 1\ngas: [unclosed\n",
        "",
        "- 1\n- 2\n",
        MINIMAL.replace(gas_block, "gas: 17\n"),
        MINIMAL.replace("  temperature_k: 300.0", "  temperature_k: warm"),
        MINIMAL.replace("  adiabatic_index: 1.4", "  adiabatic_index: 0.9"),
    ]


def _outcome(text):
    try:
        result = loads_scenario(text)
    except ParseError as exc:
        # libyaml words the problem differently; the position must agree
        return "ParseError", str(exc).split(":")[0]
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return result.scenario, result.warnings


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_c_and_python_loaders_agree(anthrax, monkeypatch):
    assert scenario_io._loader() is yaml.CSafeLoader
    texts = _loader_inputs(anthrax)
    fast = [_outcome(text) for text in texts]
    monkeypatch.setattr(scenario_io, "_loader", lambda: yaml.SafeLoader)
    slow = [_outcome(text) for text in texts]
    assert fast == slow
    assert fast[0][0] == loads_scenario(MINIMAL).scenario
    assert fast[12] == ("ParseError", "line 3, column 1")
