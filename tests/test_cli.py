import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import parsim
from parsim import cli
from parsim.cli import main
from parsim.detection import (
    BREAKDOWN_RISK,
    SPARSE_SUSPENSION,
    WARNING_BITS,
    min_density,
)
from parsim.presets import build_preset
from parsim.quantities import validate_scenario
from parsim.scenario_io import dumps_scenario, load_scenario


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_warning_bits_mapping(anthrax):
    import numpy as np

    # the stable bits, in report order
    assert list(WARNING_BITS.items()) == [
        ("cascade_breakdown_risk", 1), ("timescales_not_separated", 2),
        ("modulation_not_small", 8), ("sparse_suspension_limit", 4)]
    # DetectionReport.warning_bits is what report and sweep print
    report = min_density(anthrax)
    assert report.warning_bits == 4 and type(report.warning_bits) is int

    def bits(flags):
        return dataclasses.replace(report, warning_flags=flags).warning_bits

    quiet = dict.fromkeys(WARNING_BITS, False)
    assert bits(quiet) == 0
    assert bits(quiet | {BREAKDOWN_RISK: True}) == 1
    assert bits(dict.fromkeys(WARNING_BITS, True)) == 15
    # a sweep's array flags give one mask per point
    swept = quiet | {BREAKDOWN_RISK: np.array([False, True, True]),
                     SPARSE_SUSPENSION: np.array([True, False, True])}
    assert bits(swept).tolist() == [4, 1, 5]


def test_report_deterministic(capsys):
    code1, out1, _ = run(capsys, "report")
    code2, out2, _ = run(capsys, "report")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "rho_min_m3 = 764.6233783224283" in out1
    assert "scenario_sha256: " in out1
    assert "eta = 1.0" in out1
    # 764 spores/m^3 in a 10 mL cell is far below one per cell volume
    assert "warning_bits = 4" in out1
    assert "warnings = sparse_suspension_limit" in out1
    assert "notes = nep_two_sided_angular_convention" in out1


def test_report_snr_and_convention(capsys):
    _, base, _ = run(capsys, "report")
    _, snr3, _ = run(capsys, "report", "--snr", "3")
    base_rho = float(base.split("rho_min_m3 = ")[1].split("\n")[0])
    snr3_rho = float(snr3.split("rho_min_m3 = ")[1].split("\n")[0])
    assert math.isclose(snr3_rho, 3.0 * base_rho, rel_tol=1e-12)
    _, angular, _ = run(capsys, "report", "--linewidth-convention", "angular")
    ang_rho = float(angular.split("rho_min_m3 = ")[1].split("\n")[0])
    # the angular convention divides the gain by 2 pi, raising the limit
    assert math.isclose(ang_rho, 2.0 * math.pi * base_rho, rel_tol=1e-12)


@pytest.mark.parametrize("argv", [["report"],
                                  ["sweep", "--vary", "gas.pressure=log:1e3:1e5:5"]],
                         ids=["report", "sweep"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_snr_is_refused_as_input(capsys, argv, value):
    # report blamed "arithmetic out of range: rho_min is inf" and sweep
    # "snr is inf": both the input, in different words
    code, out, err = run(capsys, *argv, "--snr", value)
    assert (code, out) == (2, "")
    assert err == f"error: snr must be positive and finite, got {value}\n"


def test_report_from_file_matches_preset(capsys, tmp_path, anthrax):
    path = tmp_path / "scenario.yaml"
    path.write_text(dumps_scenario(anthrax))
    _, from_preset, _ = run(capsys, "report")
    code, from_file, _ = run(capsys, "report", "--scenario", str(path))
    assert code == 0
    strip = lambda text: [l for l in text.splitlines()
                          if not l.startswith("scenario: ")]
    assert strip(from_file) == strip(from_preset)


def test_unknown_preset_exits_2():
    # the refusal lists what is available
    with pytest.raises(ValueError) as exc:
        build_preset("nope")
    assert str(exc.value) == "unknown preset 'nope'; available: anthrax_stp"


# the arguments each subcommand needs; without --scenario it computes the
# preset, and it writes stdout
_COMMANDS = {"report": [], "sweep": ["--vary", "gas.pressure=lin:1e4:1e5:3"],
             "modes": [], "validate-noise": ["--members", "4", "--duration-dampings", "50"],
             "presets": []}


@pytest.mark.parametrize("flag", [["--preset", "anthrax_stp"], ["--lenient"],
                                  ["--out", "out.txt"]], ids=lambda flag: flag[0])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_removed_flags_are_refused(capsys, monkeypatch, tmp_path, command, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *_COMMANDS[command], *flag])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(flag)}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_internal_key_error_is_not_a_usage_error(capsys, monkeypatch):
    # a KeyError inside parsim is a bug: it must surface, not exit 2
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_cmd_report", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["report"])


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "report", "--scenario", str(tmp_path / "no.yaml"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("flag", ["--scenario"])
def test_directory_for_a_file_exits_2_without_traceback(tmp_path, flag):
    # this used to end in an IsADirectoryError traceback with exit 1
    result = _cli("report", flag, str(tmp_path))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


@pytest.mark.parametrize("argv", [["report"],
                                  ["sweep", "--vary", "gas.pressure=log:1e3:1e5:5"]])
def test_scenario_file_not_utf8_exits_2_naming_the_byte(capsys, tmp_path, argv):
    # the message used to be the codec's name alone, "error: utf-8"
    path = tmp_path / "latin.yaml"
    path.write_bytes(b"gas:\n  pressure_pa: \xff\n")
    code, out, err = run(capsys, *argv, "--scenario", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert "can't decode byte 0xff" in err


def test_scenario_key_given_twice_exits_2(capsys, tmp_path):
    # PyYAML keeps the last value: report used to print rho_min for 5e4 Pa
    text = (Path(__file__).parent / "golden" / "spore.yaml").read_text().replace(
        "  temperature_k: 300.0", "  pressure_pa: 5.0e4\n  temperature_k: 300.0")
    path = tmp_path / "twice.yaml"
    path.write_text(text)
    code, out, err = run(capsys, "report", "--scenario", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 4, column 3: found duplicate key 'pressure_pa'\n"


def test_invalid_scenario_file_exits_2(capsys, tmp_path, anthrax):
    text = dumps_scenario(anthrax).replace("adiabatic_index: 1.4",
                                           "adiabatic_index: 0.9")
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    code, _, err = run(capsys, "report", "--scenario", str(path))
    assert code == 2
    assert "adiabatic" in err or "gamma" in err


def test_lenient_unknown_key_warns(capsys, tmp_path, anthrax):
    # an unknown key is an error; no mode downgrades it to a warning
    path = tmp_path / "extra.yaml"
    path.write_text(dumps_scenario(anthrax) + "operator_note: hi\n")
    code, out, err = run(capsys, "report", "--scenario", str(path))
    assert (code, out) == (2, "")
    assert err == "error: unknown keys: operator_note\n"


def test_sweep_coupled_intensity_slope(capsys):
    code, out, _ = run(
        capsys, "sweep",
        "--vary", "laser.pump_intensity,laser.stokes_intensity=log:1e11:1e13:5")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["laser.pump_intensity", "laser.stokes_intensity",
                      "rho_min_m3", "h_r_w_m3", "eta",
                      "h_nep_w_sqrt_s_m3", "warning_bits"]
    assert len(rows) == 5
    x = [math.log(float(r[0])) for r in rows]
    y = [math.log(float(r[2])) for r in rows]
    slope = (y[-1] - y[0]) / (x[-1] - x[0])
    assert math.isclose(slope, -2.0, rel_tol=1e-9)
    # NEP column does not depend on the optical drive
    assert len({r[5] for r in rows}) == 1


def test_sweep_flags_breakdown(capsys):
    code, out, _ = run(capsys, "sweep",
                       "--vary", "laser.pump_intensity=log:1e15:1e16:2")
    assert code == 0
    _, rows = csv_rows(out)
    assert int(rows[0][-1]) & 1 == 0
    assert int(rows[1][-1]) & 1 == 1


def test_sweep_bad_specs_exit_2(capsys):
    for spec in ("nonsense", "gas.temperature=lin:1:2",
                 "gas.temperature=geom:1:2:3", "gas.nope=lin:1:2:3",
                 "orientation.x=lin:1:2:3", "gas.temperature=lin:1:2:1",
                 "laser.pump_intensity=log:0:1:3"):
        code, _, err = run(capsys, "sweep", "--vary", spec)
        assert code == 2, spec
        assert "error:" in err


def test_sweep_names_a_point_count_that_is_not_an_integer(capsys):
    code, out, err = run(capsys, "sweep", "--vary",
                         "laser.pump_intensity=lin:1e10:1e12:2.5")
    assert (code, out) == (2, "")
    assert err == "error: sweep point count must be an integer, got '2.5'\n"


def test_sweep_refuses_a_path_given_twice(capsys):
    # the CSV used to name gas.pressure twice, over two equal columns
    code, out, err = run(capsys, "sweep", "--vary",
                         "gas.pressure, gas.pressure=lin:1e5:2e5:2")
    assert (code, out) == (2, "")
    assert err == "error: sweep path 'gas.pressure' given twice\n"


def test_sweep_invalid_point_exits_2(capsys):
    code, _, err = run(capsys, "sweep",
                       "--vary", "gas.temperature=lin:-100:300:3")
    assert code == 2
    assert "sweep point" in err
    # the first invalid point, printed as a plain float
    assert "gas.temperature=-100.0 invalid" in err
    code, _, err = run(capsys, "sweep",
                       "--vary", "gas.temperature=lin:300:-300:4")
    assert code == 2
    assert "gas.temperature=-100.0 invalid" in err
    assert "got -100.0 [negative_quantity]" in err


# scenarios without a detectable signal: each must end in a refusal with
# exit 2, never in a traceback
ZERO_HEATING = {
    "raman_cross_section_m2_sr: 3.25e-33": "raman_cross_section_m2_sr: 0.0",
    "active_density_m3: 4.0e+26": "active_density_m3: 0",
    "collisional_rate_rad_s: 1000000000000.0": "collisional_rate_rad_s: 0.0",
    "refractive_index: 1.0": "refractive_index: .inf",
    "modulation_omega_rad_s: 100.0": "modulation_omega_rad_s: 0.0",
}


def _env():
    src = str(Path(parsim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cli(*argv, timeout=60):
    return subprocess.run([sys.executable, "-m", "parsim.cli", *argv],
                          env=_env(), capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("spec", ["gas.pressure=lin:1e3:inf:3",
                                  "gas.pressure=log:nan:1e6:10"])
def test_sweep_refuses_non_finite_endpoints(spec):
    # these used to build a grid holding nan, with a numpy RuntimeWarning
    # first and an error naming gas.pressure=nan after
    result = _cli("sweep", "--vary", spec)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: sweep endpoints must be finite")
    assert result.stderr.count("\n") == 1
    assert "RuntimeWarning" not in result.stderr


def test_parse_sweep_names_an_endpoint_that_is_not_a_number():
    with pytest.raises(ValueError, match=r"^sweep endpoints must be numbers, "
                                         r"got 'a' and '2'$"):
        cli._parse_sweep("gas.pressure=lin:a:2:3")
    with pytest.raises(ValueError, match=r"got '1e3' and '1e6x'$"):
        cli._parse_sweep("gas.pressure=log:1e3:1e6x:3")


def test_sweep_refuses_an_endpoint_that_is_not_a_number():
    result = _cli("sweep", "--vary", "gas.pressure=lin:a:2:3")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: sweep endpoints must be numbers, got 'a' and '2'\n"


def test_sweep_refuses_a_grid_that_does_not_fit_in_memory():
    # 10^14 doubles are 728 TiB: the allocation fails at once, before a
    # single page is touched
    result = _cli("sweep", "--vary", "gas.pressure=log:1e3:1e6:100000000000000")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("error: sweep of 100000000000000 points does "
                             "not fit in memory\n")


@pytest.mark.parametrize("line", sorted(ZERO_HEATING))
def test_report_refuses_scenarios_without_signal(tmp_path, anthrax, line):
    text = dumps_scenario(anthrax)
    assert line in text
    path = tmp_path / "dark.yaml"
    path.write_text(text.replace(line, ZERO_HEATING[line]))
    result = _cli("report", "--scenario", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    field = ZERO_HEATING[line].split("_")[0]
    assert field in result.stderr


@pytest.mark.parametrize("path, spec", [
    ("particle.raman_cross_section", "lin:1e-33:0:3"),
    ("particle.active_density", "lin:0:4e26:3"),
    ("particle.collisional_rate", "lin:1e12:0:5"),
    ("laser.pump_intensity", "lin:0:1e12:3"),
    ("laser.stokes_intensity", "lin:1e12:0:3"),
])
def test_sweep_refuses_a_dark_point_like_report(capsys, tmp_path, anthrax,
                                                path, spec):
    swept = run(capsys, "sweep", "--vary", f"{path}={spec}")
    section, attr = path.split(".")
    file = tmp_path / "point.yaml"
    file.write_text(dumps_scenario(_with_fields(anthrax, {section: {attr: 0.0}})))
    single = run(capsys, "report", "--scenario", str(file))
    assert swept == single
    assert swept[0] == 2 and swept[1] == ""
    assert swept[2] == f"error: {path} is 0.0: no Raman heating, nothing to detect\n"


# scenarios whose arithmetic leaves the range of a double: field values,
# and the sweep whose first point is that scenario
OUT_OF_RANGE = {
    "intensities": ({"laser": {"pump_intensity": 1.0e200,
                               "stokes_intensity": 1.0e200}},
                    "laser.pump_intensity,laser.stokes_intensity=log:1e200:1e201:2"),
    "temperature": ({"gas": {"temperature": 1.0e300}},
                    "gas.temperature=lin:1e300:1e301:2"),
    # 1/omega overflows to an inf modulation time
    "modulation": ({"laser": {"modulation_omega": 1.0e-320}},
                   "laser.modulation_omega=log:1e-320:1:3"),
    # the collision rate overflows to inf, which makes tau_c 0.0
    "collision_rate": ({"gas": {"pressure": 1.7e308}},
                       "gas.pressure=lin:1.7e308:1e5:2"),
    # each of these took rho_min to 0.0
    "pressure": ({"gas": {"pressure": 1.0e-300}},
                 "gas.pressure=log:1e-300:1e-299:2"),
    "particle_volume": ({"particle": {"volume": 1.0e300}},
                        "particle.volume=log:1e300:1e301:2"),
    "noise_damping": ({"detector": {"noise_damping": 1.0e-300}},
                      "detector.noise_damping=log:1e-300:1e-299:2"),
    "cell_radius": ({"cell": {"radius": 1.0e-160}},
                    "cell.radius=log:1e-160:1e-159:2"),
}


def _with_fields(scenario, fields):
    for section, values in fields.items():
        part = dataclasses.replace(getattr(scenario, section), **values)
        scenario = dataclasses.replace(scenario, **{section: part})
    return scenario


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_min_density_refuses_arithmetic_out_of_range(anthrax, case):
    # the intensities used to give h_r = inf and rho_min = 0.0, the
    # temperature an OverflowError from T^4, the underflows rho_min = 0.0
    scenario = validate_scenario(_with_fields(anthrax, OUT_OF_RANGE[case][0]))
    with pytest.raises(ValueError, match="^arithmetic out of range: "):
        min_density(scenario)


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_report_refuses_arithmetic_out_of_range(capsys, tmp_path, anthrax, case):
    fields, spec = OUT_OF_RANGE[case]
    path = tmp_path / "huge.yaml"
    path.write_text(dumps_scenario(_with_fields(anthrax, fields)))
    result = _cli("report", "--scenario", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: arithmetic out of range: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    # a sweep starting at the same point refuses it the same way
    code, out, err = run(capsys, "sweep", "--vary", spec)
    assert (code, out) == (result.returncode, result.stdout)
    assert err.startswith("error: arithmetic out of range: ")
    assert err.count("\n") == 1
    # the sweep names what the report names, at its point, not numpy's
    # operation ("overflow encountered in multiply")
    if case in ("intensities", "modulation"):
        assert err == result.stderr.replace("\n", " at sweep point 0\n")
    elif case == "temperature":
        # the report's T^4 on a Python float raises a bare OverflowError
        assert err == ("error: arithmetic out of range: the radiative power "
                       "is inf at sweep point 0\n")


def test_beam_product_that_underflows_is_named(capsys, tmp_path, anthrax):
    # two positive beams of 1e-200 W/m^2 used to be refused as not positive
    underflow = "error: the Raman signal per particle underflows to 0: nothing to detect\n"
    path = tmp_path / "faint.yaml"
    path.write_text(dumps_scenario(_with_fields(
        anthrax, {"laser": {"pump_intensity": 1.0e-200, "stokes_intensity": 1.0e-200}})))
    assert run(capsys, "report", "--scenario", str(path)) == (2, "", underflow)
    assert run(capsys, "sweep", "--vary", "laser.pump_intensity,"
               "laser.stokes_intensity=log:1e-200:1e10:3") == (2, "", underflow)
    # a beam that is off is named, as a dark particle input is
    path.write_text(dumps_scenario(_with_fields(anthrax, {"laser": {"pump_intensity": 0.0}})))
    assert run(capsys, "report", "--scenario", str(path)) == (
        2, "", "error: laser.pump_intensity is 0.0: no Raman heating, nothing to detect\n")


def test_sweep_names_the_collision_rate_that_overflows(capsys):
    # this used to say only "overflow encountered in multiply"
    spore = Path(__file__).parent / "golden" / "spore.yaml"
    result = run(capsys, "sweep", "--scenario", str(spore),
                 "--vary", "gas.pressure=lin:1e5:1.7e308:3")
    assert result == (2, "", "error: arithmetic out of range: the collision "
                             "rate is inf at sweep point 1\n")


@pytest.mark.parametrize("path, value, spec, point, refusal", [
    pytest.param("gas.pressure", 1.0e-320, "lin:1e5:1e-320:3", 2,
                 "the collision rate is 0.0", id="pressure"),
    pytest.param("particle.molecule_count", 1.0e-320, "lin:1e12:1e-320:3", 2,
                 "the collisional timescale is 0.0", id="molecule_count"),
    pytest.param("laser.modulation_omega", 1.0e-320, "log:1e-320:1:3", 0,
                 "thermal.efficiency.modulation_time is inf", id="modulation")])
def test_report_and_sweep_refuse_an_underflow_alike(capsys, tmp_path, path, value,
                                                    spec, point, refusal):
    # one wording for both commands; the sweep adds the point it refuses
    spore = Path(__file__).parent / "golden" / "spore.yaml"
    scenario = cli._with_value(load_scenario(spore).scenario, path, value)
    single = tmp_path / "underflow.yaml"
    single.write_text(dumps_scenario(validate_scenario(scenario)))
    error = f"error: arithmetic out of range: {refusal}"
    assert run(capsys, "report", "--scenario", str(single)) == (2, "", error + "\n")
    assert run(capsys, "sweep", "--scenario", str(spore), "--vary",
               f"{path}={spec}") == (2, "", f"{error} at sweep point {point}\n")


def test_byte_order_mark_changes_no_output(capsys, tmp_path):
    spore = Path(__file__).parent / "golden" / "spore.yaml"
    marked = tmp_path / "spore.yaml"
    marked.write_bytes(b"\xef\xbb\xbf" + spore.read_bytes())
    plain = run(capsys, "report", "--scenario", str(spore))
    assert plain[0] == 0
    # the scenario: line names the file, and no other line moves
    assert run(capsys, "report", "--scenario", str(marked)) == (
        0, plain[1].replace(str(spore), str(marked)), "")


@pytest.mark.parametrize("command, opening, closing", [
    pytest.param(("report",), "[", "]", id="report-sequences"),
    pytest.param(("sweep", "--vary", "gas.pressure=lin:1e5:2e5:2"), "{a: ", "}",
                 id="sweep-mappings")])
def test_deeply_nested_scenario_file_refused(tmp_path, command, opening, closing):
    # 25,000 nested [ or { took libyaml's composer past the C stack (the
    # process died of SIGSEGV); the reader refuses the first one
    path = tmp_path / "deep.yaml"
    path.write_text("format_version: 1\ngas: " + opening * 30000 + closing * 30000 + "\n")
    result = _cli(*command, "--scenario", str(path))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (f"error: line 2, column 6: found {opening[0]!r}: "
                             "a value is a plain number\n")


def test_integer_past_the_digit_limit_names_its_key(capsys, tmp_path):
    # an integer of 5000 digits printed Python's advice on int() limits; as
    # a "? " key it printed the digits of 2**1024, and two such keys were
    # one key: the grammar has no such keys
    huge = "0" * 5000
    spore = Path(__file__).parent / "golden" / "spore.yaml"
    path = tmp_path / "huge.yaml"
    for lines, error in [
            (f"  pressure_pa: 1{huge}\n",
             "gas.pressure_pa: an integer beyond the range of a double"),
            (f"  ? 1{huge}\n  : 1\n", "line 3, column 3: expected a key, found '?'"),
            (f"  ? 1{huge}\n  : 1\n  ? 2{huge}\n  : 1\n",
             "line 3, column 3: expected a key, found '?'")]:
        path.write_text(spore.read_text().replace("  pressure_pa: 101325.0\n", lines))
        assert run(capsys, "report", "--scenario", str(path)) == (
            2, "", f"error: {error}\n")


# scenarios that validate_scenario accepts but whose noise or mode
# arithmetic leaves the range of a double
NOISE_AND_MODES_OUT_OF_RANGE = [
    # (rho0 V)^2 underflows to 0 in the oracle's force strength
    ("validate-noise", {"cell": {"radius": 1.0e-150}}),
    # (rho0 V)^2 overflows
    ("validate-noise", {"gas": {"density": 1.0e300}}),
    # the force strength underflows to 0, and so did the run's mean u^2
    ("validate-noise", {"gas": {"temperature": 1.0e-300}}),
    # the sound speed overflows: the Welch variance came out nan
    ("validate-noise", {"gas": {"pressure": 1.7e308}}),
    # the cell volume underflows to 0
    ("validate-noise", {"cell": {"radius": 1.0e-310}}),
    # both printed an inf sound speed or inf mode frequencies with exit 0
    ("modes", {"gas": {"pressure": 1.7e308}}),
    ("modes", {"cell": {"radius": 1.0e-310}}),
    # (k T / (rho0 V))^2 underflows to 0: the run's standard error did
    ("validate-noise", {"gas": {"temperature": 2.45e-235}}),
]


@pytest.mark.parametrize("command, fields", NOISE_AND_MODES_OUT_OF_RANGE)
def test_noise_and_modes_refuse_arithmetic_out_of_range(tmp_path, anthrax,
                                                         command, fields):
    path = tmp_path / "extreme.yaml"
    path.write_text(dumps_scenario(validate_scenario(_with_fields(anthrax, fields))))
    result = _cli(command, "--scenario", str(path))
    assert (result.returncode, result.stdout) == (2, "")
    # one line, and no langevin: line, so refused before integrating
    assert result.stderr.startswith("error: arithmetic out of range: ")
    assert result.stderr.count("\n") == 1
    assert "langevin:" not in result.stderr


# fields an extreme draw may set; the detector's set the length of
# validate-noise's run, so they stay at the preset
EXTREME_FIELDS = (
    ("gas", "pressure"), ("gas", "temperature"), ("gas", "density"),
    ("gas", "molecule_mass"), ("cell", "length"), ("cell", "radius"),
    ("laser", "pump_intensity"), ("laser", "stokes_intensity"),
    ("laser", "modulation_omega"), ("particle", "volume"),
    ("particle", "molecule_count"), ("particle", "molar_heat"),
)


def _extreme_draws(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        fields = {}
        for section, attr in rng.sample(EXTREME_FIELDS, 2):
            fields.setdefault(section, {})[attr] = 10.0 ** rng.uniform(-320.0, 308.0)
        yield fields


# runs each command line of argv[1:] (JSON lists) through cli.main in one
# interpreter, and prints one JSON [code, stdout, stderr] per command; an
# exception that escapes main is printed as a traceback to that stderr
_MAIN_PER_COMMAND = """\
import contextlib, io, json, sys, traceback
from parsim.cli import main
for argv in map(json.loads, sys.argv[1:]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


@pytest.mark.parametrize("draw", range(12))
def test_cli_answers_or_refuses_extreme_scenarios(tmp_path, anthrax, draw):
    fields = list(_extreme_draws(12, 20261019))[draw]
    path = tmp_path / "extreme.yaml"
    path.write_text(dumps_scenario(validate_scenario(_with_fields(anthrax, fields))))
    commands = ((["report"], {0, 2}), (["modes"], {0, 2}),
                (["validate-noise", "--members", "4"], {0, 1, 2}))
    child = subprocess.run(
        [sys.executable, "-c", _MAIN_PER_COMMAND,
         *(json.dumps([*argv, "--scenario", str(path)]) for argv, _ in commands)],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert len(lines) == len(commands), child.stderr
    for (argv, codes), line in zip(commands, lines):
        code, out, err = json.loads(line)
        assert "Traceback" not in err, (argv, fields, err)
        assert code in codes, (argv, fields, err)
        if code == 2:
            # validate-noise may refuse statistics that its run underflowed
            assert err.splitlines()[-1].startswith("error: ")
            assert out == ""


def test_modes_table(capsys):
    code, out, _ = run(capsys, "modes", "--max-modes", "2,0,1")
    assert code == 0
    lines = out.splitlines()
    header, rows = csv_rows(out)
    assert header == ["q", "m", "n", "omega_rad_s", "freq_hz", "norm", "uniform"]
    assert rows[0][:3] == ["0", "0", "0"] and rows[0][-1] == "yes"
    assert all(r[-1] == "no" for r in rows[1:])
    by_index = {tuple(map(int, r[:3])): float(r[3]) for r in rows}
    assert math.isclose(by_index[(1, 0, 0)], 10377.685870383077, rel_tol=1e-12)
    assert any(l.startswith("# sound_speed_m_s:") for l in lines)


def test_modes_without_radial_modes_visits_only_m_0():
    # every azimuthal order used to be visited, for more than 10 s here,
    # though none above 0 has a mode without a radial one
    result = _cli("modes", "--max-modes", "0,100000000,0", timeout=10)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == _cli("modes", "--max-modes", "0,0,0").stdout


@pytest.mark.parametrize("caps, count", [("0,100000000,1", 100000002),
                                         ("100000,0,0", 100001)])
def test_modes_refuses_an_oversized_table(caps, count):
    # 10^8 modes used to run for minutes before a MemoryError traceback
    result = _cli("modes", "--max-modes", caps, timeout=10)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (f"error: a table of {count} modes is above the "
                             "limit of 100000\n")


def test_validate_noise_passes(capsys):
    code, out, _ = run(capsys, "validate-noise")
    assert code == 0
    assert "equipartition:" in out and "psd variance:" in out
    assert out.count("PASS") == 3
    assert out.rstrip().endswith("overall: PASS")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_validate_noise_welch_variance_unbiased(capsys, seed):
    # per-segment detrending used to remove about 6% of the variance here
    code, out, _ = run(capsys, "validate-noise", "--members", "64",
                       "--duration-dampings", "2000", "--seed", str(seed))
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("psd variance:"))
    rel_err = float(line.split("(rel err ", 1)[1].split("%", 1)[0])
    assert rel_err < 2.0


# stdout of the default `validate-noise` as printed before the Langevin
# reductions were streamed and the transition covariance came from one block
# exponential; only the Welch variance, a sum of rounded terms, moved
VALIDATE_NOISE_DEFAULT = """\
noise model validation: preset:anthrax_stp
seed 1234, 32 members, 4000 samples at dt 1e-06 s
equipartition: ratio 0.9883 +- 0.0176 (z = 0.66, limit 4.0) PASS
psd variance: welch 5.867137583519852e-08 vs analytic 5.87555891685e-08 (rel err 0.1%, limit 15%) PASS
overall: PASS
"""


def test_validate_noise_stdout_unchanged_run_metadata_on_stderr(capsys):
    code, out, err = run(capsys, "validate-noise")
    assert code == 0
    welch = re.compile(r"welch (\S+) vs")
    assert welch.sub("welch W vs", out) == welch.sub("welch W vs", VALIDATE_NOISE_DEFAULT)
    assert math.isclose(float(welch.search(out)[1]),
                        float(welch.search(VALIDATE_NOISE_DEFAULT)[1]), rel_tol=1e-12)
    # 200 kept dampings and 10 of burn-in at 20 steps per damping time
    assert re.fullmatch(r"langevin: 32 members, 4200 steps each at dt 1e-06 s, "
                        r"wall \d+\.\d{3} s\n", err)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-5", "-0.0"])
def test_validate_noise_refuses_bad_duration(capsys, value):
    code, out, err = run(capsys, "validate-noise", f"--duration-dampings={value}")
    assert (code, out) == (2, "")
    assert err == ("error: --duration-dampings must be positive and finite, "
                   f"got {float(value)!r}\n")


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_validate_noise_bad_duration_exits_2_without_traceback(value):
    result = _cli("validate-noise", "--duration-dampings", value)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("error: --duration-dampings must be positive and "
                             f"finite, got {value}\n")


@pytest.mark.parametrize("argv", [["--sigmas", "3"], ["--psd-tolerance", "0.1"]])
def test_validate_noise_limits_are_not_flags(capsys, argv):
    # the verdict limits are cli.EQUIPARTITION_SIGMAS and PSD_VARIANCE_TOLERANCE
    with pytest.raises(SystemExit) as exc:
        main(["validate-noise", *argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


def test_validate_noise_refuses_a_negative_seed(capsys):
    code, out, err = run(capsys, "validate-noise", "--seed", "-5")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be a non-negative integer, got -5\n"


@pytest.mark.parametrize("argv", [("--duration-dampings", "1e12"),
                                  ("--duration-dampings", "1e300"),
                                  ("--duration-dampings", "1.7e308"),
                                  ("--members", "100000000"),
                                  ("--members", "1" + "0" * 400)])
def test_validate_noise_refuses_runs_that_cannot_finish(argv):
    # these used to run silently for years (1e12), end in an
    # _ArrayMemoryError traceback (1e8 members), overflow the step count
    # or raise OverflowError converting the member count (10^400)
    result = _cli("validate-noise", *argv)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert "member-steps, above the limit of 1e+10" in result.stderr


def test_validate_noise_ensemble_out_of_memory_exits_2(capsys, monkeypatch):
    from parsim import oracle

    def out_of_memory(config, scenario):
        raise MemoryError

    monkeypatch.setattr(oracle, "integrate_langevin", out_of_memory)
    code, out, err = run(capsys, "validate-noise", "--members", "5000000",
                         "--duration-dampings", "50")
    assert (code, out) == (2, "")
    assert err == "error: an ensemble of 5000000 members does not fit in memory\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs the per-thread entries of /proc")
@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_cli_runs_blas_single_threaded_unless_told(preset, want):
    # OpenBLAS starts its thread pool when numpy is imported
    script = (
        "import contextlib, io, os\n"
        "from parsim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['sweep', '--vary', 'gas.pressure=lin:1e4:1e5:3'])\n"
        "print(code, len(os.listdir('/proc/self/task')),"
        " os.environ['OPENBLAS_NUM_THREADS'])\n")
    env = _env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run([sys.executable, "-c", script],
                            env=env, capture_output=True, text=True, timeout=60)
    code, threads, setting = result.stdout.split()
    assert (code, setting) == ("0", want)
    if preset is None:
        assert threads == "1"


def test_validate_noise_detects_wrong_tolerance(capsys, monkeypatch):
    # an impossible tolerance must flip the exit code, not crash
    monkeypatch.setattr(cli, "PSD_VARIANCE_TOLERANCE", 0.0)
    code, out, _ = run(capsys, "validate-noise")
    assert code == 1
    assert "FAIL" in out
    assert out.rstrip().endswith("overall: FAIL")


def test_presets_listing(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    assert out.startswith("anthrax_stp: ")
    assert "sha256" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "parsim" in capsys.readouterr().out


def test_modes_combined_cap_flag(capsys):
    _, default, _ = run(capsys, "modes")
    code, explicit, _ = run(capsys, "modes", "--max-modes", "4,0,2")
    assert code == 0
    assert explicit == default
    code, _, err = run(capsys, "modes", "--max-modes", "2,0")
    assert code == 2 and "max-modes" in err
    code, _, err = run(capsys, "modes", "--max-modes", "a,b,c")
    assert code == 2
    assert err == ("error: --max-modes needs three comma-separated integers "
                   "axial,azimuthal,radial, got 'a,b,c'\n")
