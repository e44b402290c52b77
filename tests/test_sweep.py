"""`parsim sweep` evaluates every point in one broadcast pass.

The reference here is the per-point loop the command used to run: one
scalar scenario per value, validated and passed through min_density.
"""

import dataclasses
import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import parsim
from parsim import cli
from parsim.detection import min_density
from parsim.presets import anthrax_stp
from parsim.quantities import validate_scenario
from parsim.scenario_io import dumps_scenario

# about 450 ulp: far above the ~25 roundings of the chain, below the
# benchmark's 1e-12 reference tolerance
REL_TOL = 1e-13

SPECS = [
    "laser.pump_intensity,laser.stokes_intensity=log:1e8:1e16:41",
    "laser.pump_intensity=log:1e9:1e17:33",
    "gas.pressure=log:1e2:1e7:41",
    "laser.modulation_omega=log:1:1e6:41",
    "gas.temperature=lin:100:3000:41",
    "particle.volume=log:1e-21:1e-15:17",
    "detector.noise_mode_omega=log:1e3:1e6:17",
]


def _scalar_rows(spec):
    """The per-point reference: (value, rho_min, h_r, eta, h_nep, bits)."""
    paths, values = cli._parse_sweep(spec)
    rows = []
    for value in values.tolist():
        point = anthrax_stp()
        for path in paths:
            section, _, attr = path.partition(".")
            part = dataclasses.replace(getattr(point, section), **{attr: value})
            point = dataclasses.replace(point, **{section: part})
        report = min_density(validate_scenario(point))
        bits = sum(bit for code, bit in cli.WARNING_BITS.items()
                   if code in report.warnings)
        rows.append((value, report.rho_min, report.h_r, report.eta,
                     report.h_nep, bits))
    return rows


def _sweep_rows(capsys, spec):
    assert cli.main(["sweep", "--vary", spec]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    n_paths = len(lines[0].split(",")) - 5
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        assert len(set(cells[:n_paths])) == 1
        rows.append(tuple(float(c) for c in cells[n_paths - 1:-1])
                    + (int(cells[-1]),))
    return rows


@pytest.mark.parametrize("spec", SPECS)
def test_array_sweep_matches_scalar_loop(capsys, spec):
    swept = _sweep_rows(capsys, spec)
    reference = _scalar_rows(spec)
    assert len(swept) == len(reference)
    for got, want in zip(swept, reference):
        assert got[0] == want[0]
        assert got[-1] == want[-1]
        for a, b in zip(got[1:-1], want[1:-1]):
            assert math.isclose(a, b, rel_tol=REL_TOL), (spec, got, want)


def test_sweeps_cover_every_warning_bit_and_the_eta_switch():
    rows = [row for spec in SPECS for row in _scalar_rows(spec)]
    bits = {row[-1] for row in rows}
    for bit in cli.WARNING_BITS.values():
        assert any(b & bit for b in bits), bit
        assert any(not b & bit for b in bits), bit
    etas = {row[3] == 1.0 for row in rows}
    assert etas == {True, False}


def _env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(parsim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_modules(prefix, *lines):
    """Modules under prefix loaded by a fresh interpreter running the lines.

    The timeout makes a hang fail the test instead of stalling the suite.
    """
    script = "\n".join([
        "import contextlib, io, sys",
        *lines,
        f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefix + '.'!r})))",
    ])
    result = subprocess.run([sys.executable, "-c", script], env=_env(),
                            capture_output=True, text=True, check=True,
                            timeout=120)
    return result.stdout.strip()


def _modules_after(prefix, *lines):
    """_fresh_modules after `from parsim.cli import main`."""
    return _fresh_modules(prefix, "from parsim.cli import main", *lines)


def test_analytic_commands_import_no_scipy():
    assert _modules_after(
        "scipy",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['report']) == 0",
        "    assert main(['sweep', '--vary', 'gas.pressure=log:1e3:1e6:1000']) == 0",
        "    assert main(['presets']) == 0",
    ) == "[]"


def test_oracle_engines_import_no_scipy():
    assert _modules_after(
        "scipy",
        "from parsim.oracle import integrate_driven",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['validate-noise', '--members', '4']) == 0",
        "integrate_driven(1.0e4, 100.0, 1.0e-3, 1.0e4)",
    ) == "[]"


def test_validate_noise_loads_no_acoustics():
    # the Langevin oracle's spectra are noise.SpectrumSeries; the mode
    # solver stays unloaded
    assert _modules_after(
        "parsim.acoustics",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['validate-noise', '--members', '4']) == 0",
    ) == "[]"


GOLDEN_SPORE = Path(__file__).parent / "golden" / "spore.yaml"

# report and presets run the scalar chain with math alone, and so do the
# refusals of a dark particle and of an overflow to inf
SCALAR_COMMANDS = {
    "report": (["report"], None, 0),
    "report_scenario": (["report", "--scenario", str(GOLDEN_SPORE)], None, 0),
    "zero_cross_section": (["report", "--scenario"],
                           {"particle": {"raman_cross_section": 0.0}}, 2),
    "overflow": (["report", "--scenario"],
                 {"laser": {"pump_intensity": 1.0e200,
                            "stokes_intensity": 1.0e200}}, 2),
    "presets": (["presets"], None, 0),
}


@pytest.mark.parametrize("case", sorted(SCALAR_COMMANDS))
def test_scalar_commands_import_no_numpy(tmp_path, anthrax, case):
    argv, fields, code = SCALAR_COMMANDS[case]
    if fields is not None:
        scenario = anthrax
        for section, values in fields.items():
            part = dataclasses.replace(getattr(scenario, section), **values)
            scenario = dataclasses.replace(scenario, **{section: part})
        path = tmp_path / f"{case}.yaml"
        path.write_text(dumps_scenario(scenario))
        argv = [*argv, str(path)]
    assert _modules_after(
        "numpy",
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):",
        f"    assert main({argv!r}) == {code}",
    ) == "[]"


@pytest.mark.parametrize("prefix", ["numpy", "scipy"])
def test_modes_within_the_root_table_import_no_numpy_or_scipy(prefix):
    assert _modules_after(
        prefix,
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['modes']) == 0",
        "    assert main(['modes', '--max-modes', '4,1,2']) == 0",
        f"    assert main(['modes', '--scenario', {str(GOLDEN_SPORE)!r}]) == 0",
    ) == "[]"


def _run_without_scipy(*argv):
    """`parsim *argv` in a fresh interpreter in which scipy cannot be imported."""
    script = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from parsim.cli import main",
        "sys.exit(main(sys.argv[1:]))",
    ])
    return subprocess.run([sys.executable, "-c", script, *argv], env=_env(),
                          capture_output=True, text=True, timeout=120)


SCIPY_FREE_COMMANDS = {
    "report": ["report"],
    "presets": ["presets"],
    "sweep": ["sweep", "--vary", "gas.pressure=log:1e3:1e5:5"],
    "modes": ["modes"],
    "modes_whole_table": ["modes", "--max-modes", "4,4,4"],
    "validate_noise": ["validate-noise", "--members", "4"],
}


@pytest.mark.parametrize("case", sorted(SCIPY_FREE_COMMANDS))
def test_commands_run_without_scipy(case):
    result = _run_without_scipy(*SCIPY_FREE_COMMANDS[case])
    assert result.returncode == 0, result.stderr
    assert result.stdout


@pytest.mark.parametrize("caps", ["2,6,6", "0,5,1", "0,0,5"])
def test_modes_beyond_the_root_table_refused_without_scipy(caps):
    result = _run_without_scipy("modes", "--max-modes", caps)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("error: the root table holds azimuthal orders up "
                             "to 4 and radial indices up to 4\n")


@pytest.mark.parametrize("module", ["parsim.oracle", "parsim.acoustics"])
def test_cli_import_loads_no_oracle_or_acoustics(module):
    assert _modules_after(module) == "[]"


def test_cli_import_loads_the_chain_modules():
    assert _modules_after("parsim") == str([
        "parsim", "parsim.cli", "parsim.detection", "parsim.noise",
        "parsim.presets", "parsim.quantities", "parsim.raman",
        "parsim.scenario_io", "parsim.thermal"])


@pytest.mark.parametrize("prefix", ["numpy", "yaml"])
def test_bare_package_import_loads_no_numpy_or_yaml(prefix):
    assert _fresh_modules(prefix, "import parsim") == "[]"


@pytest.mark.parametrize("command", ["report", "presets"])
def test_preset_commands_load_no_yaml(command):
    # PyYAML is imported only where a scenario file is parsed or written
    assert _modules_after(
        "yaml",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert main([{command!r}]) == 0",
    ) == "[]"


DRIVEN_CALL = ("from parsim.oracle import integrate_driven",
               "integrate_driven(1.0e4, 100.0, 1.0e-3, 1.0e4)")


@pytest.mark.parametrize("prefix", ["numpy", "yaml", "scipy"])
def test_driven_oracle_imports_no_numpy_yaml_or_scipy(prefix):
    assert _fresh_modules(prefix, *DRIVEN_CALL) == "[]"


def test_driven_oracle_loads_three_parsim_modules():
    assert _fresh_modules("parsim", *DRIVEN_CALL) == str(
        ["parsim", "parsim.oracle", "parsim.quantities"])


def test_export_lists_match_their_modules():
    # a name deleted from a module must leave its __all__, and a name the
    # package exports lazily must be exported by its module too
    modules = {info.name: importlib.import_module(f"parsim.{info.name}")
               for info in pkgutil.iter_modules(parsim.__path__)}
    for name, module in modules.items():
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
    for name, module in parsim._LAZY.items():
        assert name in modules[module].__all__, (module, name)


def test_package_names_resolve():
    for name in parsim.__all__:
        assert getattr(parsim, name) is not None, name
    namespace = {}
    exec("from parsim import *", namespace)
    assert set(parsim.__all__) <= set(namespace)
    assert namespace["integrate_driven"] is parsim.oracle.integrate_driven
    assert namespace["SpectrumSeries"] is parsim.noise.SpectrumSeries
    with pytest.raises(AttributeError, match="no_such_name"):
        parsim.no_such_name
