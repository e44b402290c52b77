"""Golden CLI outputs: the printed text of fixed commands, byte for byte.

The files under tests/golden were written by the command lines below.  A
change that moves a digit of `report`, `modes` or `presets` is a
regression.  A sweep cell may move only in the last bit of a value, and
only with the golden file updated and the moved cells listed in
CHANGES.md.
"""

from pathlib import Path

import pytest

from parsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "report_preset.txt": ["report"],
    "report_spore.txt": ["report", "--scenario", "spore.yaml"],
    "modes_4_1_2.txt": ["modes", "--max-modes", "4,1,2"],
    "presets.txt": ["presets"],
    "sweep_intensity.txt": [
        "sweep", "--vary",
        "laser.pump_intensity,laser.stokes_intensity=log:1e10:1e16:9"],
    "sweep_modulation.txt": [
        "sweep", "--vary", "laser.modulation_omega=log:10:1e5:9"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    # the file-scenario report prints its path, so run from the golden dir
    monkeypatch.chdir(GOLDEN)
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")
