import copy
import dataclasses
import math
import re
import textwrap

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from parsim import quantities
from parsim.presets import anthrax_stp
from parsim.quantities import (
    ATOMIC_MASS,
    COMPONENTS,
    Scenario,
    ScenarioValidationError,
    schema,
    validate_scenario,
)
from parsim.scenario_io import (
    MAX_SCENARIO_CHARS,
    SECTION_NAMES,
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
    scenario = loads_scenario(MINIMAL).scenario
    assert scenario.gas.pressure == 101325.0
    # exponents with and without a sign
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


def test_file_size_limit_counts_characters(anthrax, tmp_path):
    # a comment of two-byte characters pads the file to exactly the limit
    text = dumps_scenario(anthrax)
    padded = text + "# " + "\u03c1" * (MAX_SCENARIO_CHARS - len(text) - 3) + "\n"
    assert len(padded) == MAX_SCENARIO_CHARS
    path = tmp_path / "padded.yaml"
    path.write_text(padded, encoding="utf-8")
    assert load_scenario(path).scenario == anthrax
    path.write_text(padded + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^scenario file '{re.escape(str(path))}' "
                                         f"is longer than {MAX_SCENARIO_CHARS} characters$"):
        load_scenario(path)


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


def test_key_given_twice_rejected():
    # PyYAML alone keeps the last of two equal keys
    twice = MINIMAL.replace("  temperature_k: 300.0",
                            "  pressure_pa: 5.0e4\n  temperature_k: 300.0")
    with pytest.raises(ParseError, match="^line 4, column 3: found "
                                         "duplicate key 'pressure_pa'$"):
        loads_scenario(twice)
    with pytest.raises(ParseError, match="found duplicate key 'gas'"):
        loads_scenario(MINIMAL + "gas: {}\n")
    # a merge key and an explicit "? " key are not keys of the grammar
    merged = MINIMAL.replace("gas:\n", "gas:\n  <<: {pressure_pa: 1.0}\n")
    with pytest.raises(ParseError, match="^line 3, column 3: expected a key, "
                                         "found '<'$"):
        loads_scenario(merged)
    with pytest.raises(ParseError, match="^line 3, column 3: expected a key, "
                                         "found '\\?'$"):
        loads_scenario(MINIMAL.replace("gas:\n", "gas:\n  ? [a, b]\n  : 1\n"))


def test_unknown_key_strict_vs_lenient():
    text = MINIMAL + "orientation: vertical\n"
    with pytest.raises(SchemaError, match="unknown keys: orientation"):
        loads_scenario(text)

    nested = MINIMAL.replace("  length_m: 0.1",
                             "  length_m: 0.1\n  color: red")
    with pytest.raises(SchemaError, match="cell.color"):
        loads_scenario(nested)


def test_missing_keys_reported_together():
    text = MINIMAL.replace("  pressure_pa: 101325.0\n", "")
    text = text.replace("  length_m: 0.1\n", "")
    with pytest.raises(SchemaError) as err:
        loads_scenario(text)
    message = str(err.value)
    assert "gas.pressure_pa" in message
    assert "cell.length_m" in message


def test_missing_section_lists_every_field():
    text = MINIMAL[:MINIMAL.index("detector:\n")]
    with pytest.raises(SchemaError) as err:
        loads_scenario(text)
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
    for text, message in [
            ("format_version: 1\ngas: [unclosed\n",
             "line 2, column 6: found '[': a value is a plain number"),
            ("{a: 1", "line 1, column 1: expected a key, found '{'")]:
        with pytest.raises(ParseError) as caught:
            loads_scenario(text)
        assert str(caught.value) == message


def test_empty_and_non_mapping_documents():
    with pytest.raises(SchemaError, match="empty"):
        loads_scenario("")
    # a sequence is not a scenario file's syntax
    with pytest.raises(ParseError, match="^line 1, column 1: expected a key, "
                                         "found '-'$"):
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
    assert ([f.name for f in dataclasses.fields(Scenario)]
            == [*SECTION_NAMES, *(attr for attr, *_ in schema(Scenario))])
    for cls in COMPONENTS.values():
        assert ([attr for attr, *_ in schema(cls)]
                == [f.name for f in dataclasses.fields(cls)]), cls.__name__
    # every optional field away from its default, so an unread key shows
    base = loads_scenario(MINIMAL).scenario
    base = dataclasses.replace(
        base, spore_density=2.5e4,
        cell=dataclasses.replace(base.cell, detector_coverage=0.7),
        laser=dataclasses.replace(base.laser, refractive_index=1.5,
                                  modulation_omega=250.0),
        particle=dataclasses.replace(base.particle, radius_override=9.0e-7))
    doc = yaml.safe_load(dumps_scenario(base))
    for section, cls in (*COMPONENTS.items(), (None, Scenario)):
        for attr, key, check, aliases in schema(cls):
            assert check in quantities._CHECKS, (attr, check)
            for spelling, factor in ((key, 1.0), *aliases.items()):
                edited = copy.deepcopy(doc)
                mapping = edited if section is None else edited[section]
                value = mapping.pop(key)
                mapping[spelling] = value / factor
                loaded = loads_scenario(yaml.safe_dump(edited)).scenario
                owner = loaded if section is None else getattr(loaded, section)
                assert math.isclose(getattr(owner, attr), value,
                                    rel_tol=1e-15), spelling
                assert spelling != key or loaded == base


@pytest.mark.parametrize("edit, key", [
    (("  pressure_pa: 101325.0", "  pressure_pa: 1" + "0" * 400), "gas.pressure_pa"),
    (("format_version: 1", "format_version: 1" + "0" * 400), "format_version"),
    (("gas:\n", "spore_density_m3: 1" + "0" * 400 + "\ngas:\n"), "spore_density_m3"),
])
def test_integer_beyond_double_range_refused(edit, key):
    # float() of such an int raises OverflowError, which used to escape
    with pytest.raises(SchemaError, match=f"^{key}: an integer beyond the "
                                          "range of a double$"):
        loads_scenario(MINIMAL.replace(*edit))


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


@pytest.mark.parametrize("digits", [400, 5000])
@pytest.mark.parametrize("edit, key", [
    (("  pressure_pa: 101325.0", "  pressure_pa: 1"), "gas.pressure_pa"),
    (("format_version: 1", "format_version: 1"), "format_version"),
])
def test_integer_of_any_length_beyond_double_range_refused(digits, edit, key):
    # past int()'s 4300 digits PyYAML raised Python's own advice, naming no key
    old, new = edit
    with pytest.raises(SchemaError, match=f"^{key}: an integer beyond the "
                                          "range of a double$"):
        loads_scenario(MINIMAL.replace(old, new + "0" * digits))


def _nested_gas(levels: int, opening: str, closing: str) -> str:
    """MINIMAL with gas: flow collections, levels deep counting the document."""
    gas_block = MINIMAL[MINIMAL.index("gas:\n"):MINIMAL.index("cell:\n")]
    inner = opening * (levels - 1) + closing * (levels - 1)
    return MINIMAL.replace(gas_block, f"gas: {inner}\n")


@pytest.mark.parametrize("opening, closing", [
    pytest.param("[", "]", id="sequences"),
    pytest.param("{a: ", "}", id="mappings")])
def test_nesting_deeper_than_the_limit_refused(opening, closing):
    # sections are the only nesting: a flow collection is refused at its
    # first character, before any recursion, however deep it goes
    found = re.escape(f"line 2, column 6: found {opening[0]!r}: a value is a plain number")
    for levels in (2, 100, 101, 1000):
        with pytest.raises(ParseError, match=f"^{found}$"):
            loads_scenario(_nested_gas(levels, opening, closing))
    # and a third level of keys where it opens, after the colon
    third = MINIMAL.replace("  pressure_pa: 101325.0\n",
                            "  pressure_pa:\n    value: 101325.0\n")
    with pytest.raises(ParseError, match="^line 3, column 15: expected a value: "
                                         "sections do not nest$"):
        loads_scenario(third)


def _spellings(value: float) -> list[str]:
    """Ways to write value that the grammar and PyYAML both read as a number:
    repr's, PyYAML's own, printf's and, for a whole number, an integer's."""
    if math.isnan(value):
        return [".nan", ".NaN", ".NAN"]
    if math.isinf(value):
        return ([".inf", "+.inf", ".Inf", "+.INF"] if value > 0
                else ["-.inf", "-.Inf", "-.INF"])
    forms = [repr(value), yaml.safe_dump(value).split("\n")[0],
             f"{value:.17e}", f"{value:.17E}", f"{value:+.17g}"]
    if value == int(value):
        forms.append(("-" if math.copysign(1.0, value) < 0 else "")
                     + str(abs(int(value))))
    return forms


_PRINTABLE = st.characters(min_codepoint=32, max_codepoint=126)
_COMMENT = st.one_of(st.just(""), st.builds(lambda pad, text: " " * pad + "#" + text,
                                            st.integers(1, 3), st.text(_PRINTABLE, max_size=12)))
_FILLER = st.lists(st.sampled_from(["", "   ", "# a note", "    # an indented note"]),
                   max_size=2)
_BASE = dataclasses.replace(anthrax_stp(), spore_density=1.0e4)
_KEYS = [key for cls in (*COMPONENTS.values(), Scenario) for _, key, _, _ in schema(cls)]


@st.composite
def _grammar_files(draw):
    """A scenario file in the grammar: keys and aliases in any order, varied
    indentation, comments, blank lines and number spellings, and up to two
    fields set to any double, which validation may refuse."""
    def line(key, value):
        return (f"{key}:{' ' * draw(st.integers(1, 3))}{value}"
                f"{' ' * draw(st.integers(0, 2))}{draw(_COMMENT)}")

    blocks = [[line("format_version", draw(st.sampled_from(["1", "1.0", "+1", "1e0"])))]]
    wild = draw(st.sets(st.sampled_from(_KEYS), max_size=2))
    for section, cls in (*COMPONENTS.items(), (None, Scenario)):
        owner = _BASE if section is None else getattr(_BASE, section)
        optional = {f.name for f in dataclasses.fields(cls)
                    if f.default is not dataclasses.MISSING}
        lines = []
        for attr, key, _, aliases in schema(cls):
            value = getattr(owner, attr)
            if value is None or (attr in optional and draw(st.booleans())):
                continue
            if key in wild:
                value = draw(st.one_of(st.sampled_from([-0.0, math.inf, math.nan]),
                                       st.floats()))
            spelling, factor = draw(st.sampled_from(((key, 1.0), *aliases.items())))
            lines.append(line(spelling, draw(st.sampled_from(_spellings(value / factor)))))
        lines = draw(st.permutations(lines))
        if section is None:
            blocks.extend([top] for top in lines)
        else:
            indent = " " * draw(st.integers(1, 8))
            blocks.append([f"{section}:{draw(_COMMENT)}", *(indent + body for body in lines)])
    text = []
    for block in draw(st.permutations(blocks)):
        for body in block:
            text += [body, *draw(_FILLER)]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(text) + draw(st.sampled_from(["", eol]))


def _pyyaml_scenario(text: str) -> Scenario:
    """The scenario that PyYAML reads from text, each value through float()
    as the YAML reader converted them."""
    doc = yaml.safe_load(text)
    assert float(doc["format_version"]) == 1

    def fields(cls, mapping):
        return {attr: float(mapping[spelling]) * factor
                for attr, key, _, aliases in schema(cls)
                for spelling, factor in ((key, 1.0), *aliases.items())
                if spelling in mapping}

    sections = {name: cls(**fields(cls, doc[name])) for name, cls in COMPONENTS.items()}
    return validate_scenario(Scenario(**sections, **fields(Scenario, doc)))


def _outcome(load, text):
    """repr of the scenario load returns, which tells -0.0 and nan apart,
    or the refusal it raises."""
    try:
        return repr(load(text))
    except (SchemaError, ScenarioValidationError) as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=_grammar_files())
def test_reader_agrees_with_pyyaml(text):
    assert (_outcome(lambda t: loads_scenario(t).scenario, text)
            == _outcome(_pyyaml_scenario, text))


@pytest.mark.parametrize("spelling", [
    "010", "-010", "1_000", "0x1F", "0b101", "190:20:30", "1:30.5",
    "true", "null", "~", "inf", "nan", "Infinity", "1e5x", "1#2"])
def test_yaml_only_spellings_refused(spelling):
    # PyYAML read the first seven as 8, -8, 1000, 31, 5, 685230 and 90.5,
    # the next three as True and None, and float() took inf, nan and
    # Infinity: the grammar reads none of them.  A '#' after no space
    # starts no comment.
    with pytest.raises(SchemaError, match=re.escape(
            f"gas.pressure_pa: expected a number, got {spelling!r}") + "$"):
        loads_scenario(MINIMAL.replace("pressure_pa: 101325.0", f"pressure_pa: {spelling}"))


def test_integer_zero_has_no_sign():
    # PyYAML read -0 as the integer 0, and -0.0 as the double
    for spelling, sign in (("-0", 1.0), ("-0.0", -1.0)):
        loaded = loads_scenario(MINIMAL + f"spore_density_m3: {spelling}\n").scenario
        assert math.copysign(1.0, loaded.spore_density) == sign, spelling
