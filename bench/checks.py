"""Judge each operation's output against the reference and stated properties.

``judge`` returns "ok", "failed" (the operation broke: traceback, bad exit
code) or "wrong" (it finished but printed an incorrect result), with a
message.  Nothing here compares against a stored copy of parsim's output.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref
from inputs import DRIVEN_TOLERANCE, MODES_ARGS

REL_TOL = 1e-12          # reference versus parsim, closed-form values
ROOT_TOL = 1e-9          # modes, against ten-digit Bessel root tables
GRID_TOL = 1e-15         # the swept column against numpy's own grid


def _close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return got == want or abs(got - want) <= tol * abs(want)


def _key_values(text: str) -> dict[str, str]:
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key.strip()] = value.strip()
        else:
            key, sep, value = line.partition(": ")
            if sep:
                pairs.setdefault(key.strip(), value.strip())
    return pairs


def _report(op, out: str) -> str | None:
    kv = _key_values(out)
    want = op.expect
    for key, name in (("rho_min_m3", "rho_min"), ("eta", "eta"),
                      ("h_r_w_m3", "h_r"), ("h_nep_w_sqrt_s_m3", "h_nep"),
                      ("implied_count_in_cell", "implied_count")):
        if key not in kv:
            return f"no {key} line"
        if not _close(float(kv[key]), want[name]):
            return f"{key} = {kv[key]}, reference {want[name]!r}"
    if int(kv.get("warning_bits", -1)) != want["warning_bits"]:
        return f"warning_bits {kv.get('warning_bits')}, reference {want['warning_bits']}"
    if float(kv.get("snr", "nan")) != want["snr"]:
        return f"snr echoed as {kv.get('snr')}"
    return None


def _zero_cross_section(rc: int, out: str, err: str) -> bool:
    """Success once the command ends without a traceback: an inf or finite
    rho_min with exit 0, or exit 2 with an error line naming the field."""
    if "Traceback" in err:
        return False
    if rc == 0:
        value = _key_values(out).get("rho_min_m3")
        return value is not None and not math.isnan(float(value))
    return rc == 2 and any(line.startswith("error:") and "raman_cross_section" in line
                           for line in err.splitlines())


def _modes(op, out: str) -> str | None:
    s = op.expect["scenario"]
    header = dict(line[2:].split(": ", 1) for line in out.splitlines()
                  if line.startswith("# ") and ": " in line)
    if not _close(float(header.get("sound_speed_m_s", "nan")), ref.sound_speed(s)):
        return f"sound speed {header.get('sound_speed_m_s')}"
    rows = [line.split(",") for line in out.splitlines()
            if line and line[0].isdigit()]
    q_max, m_max, n_max = MODES_ARGS
    expected_count = (q_max + 1) * ((n_max + 1) + m_max * n_max)
    if len(rows) != expected_count:
        return f"{len(rows)} mode rows, expected {expected_count}"
    omegas = [float(r[3]) for r in rows]
    if omegas != sorted(omegas):
        return "mode rows are not sorted by omega"
    by_index = {(int(r[0]), int(r[1]), int(r[2])): float(r[3]) for r in rows}
    if not _close(by_index[(1, 0, 0)],
                  math.pi * ref.sound_speed(s) / s["cell.length"]):
        return f"omega(1,0,0) = {by_index[(1, 0, 0)]!r} is not pi c / l"
    for index, omega in by_index.items():
        if not _close(omega, ref.mode_omega(s, *index), ROOT_TOL):
            return f"omega{index} = {omega!r}, reference {ref.mode_omega(s, *index)!r}"
    return None


def _sweep(op, out: str) -> str | None:
    lines = out.splitlines()
    body = [line for line in lines if line and not line.startswith("#")]
    columns = body[0].split(",")
    paths = op.expect["paths"]
    if columns[:len(paths)] != list(paths):
        return f"sweep header {body[0]!r}"
    rows = body[1:]
    if len(rows) != len(op.expect["rows"]):
        return f"{len(rows)} sweep rows, requested {len(op.expect['rows'])}"
    table = np.array([row.split(",") for row in rows], dtype=float)
    grid = op.expect["grid"]
    for col in range(len(paths)):
        if not np.all(np.abs(table[:, col] - grid) <= GRID_TOL * np.abs(grid)):
            return f"swept column {paths[col]} differs from the requested grid"
    results = table[:, len(paths):]
    want = np.array(op.expect["rows"], dtype=float)
    if not np.array_equal(results[:, 4], want[:, 4]):
        bad = int(np.argmax(results[:, 4] != want[:, 4]))
        return f"row {bad}: warning_bits {results[bad, 4]:g}, reference {want[bad, 4]:g}"
    rel = np.abs(results[:, :4] - want[:, :4]) / np.abs(want[:, :4])
    if not np.all(rel <= REL_TOL):
        bad = int(np.argmax(rel.max(axis=1)))
        return f"row {bad}: {rows[bad]} against reference {want[bad].tolist()}"
    if op.expect["intensity_product"]:
        product = results[:, 0] * table[:, 0] * table[:, 1]
        spread = np.abs(product / product[0] - 1.0).max()
        if spread > REL_TOL:
            return f"rho_min * I_p * I_s varies by {spread:.1e} along the sweep"
    return None


# validate-noise's own default limits
NOISE_SIGMAS = 4.0
NOISE_PSD_TOLERANCE = 0.15


def _noise(op, out: str) -> str | None:
    want = op.expect
    if out.startswith("{"):
        # the traced replay reports the two oracle stages as JSON
        got = json.loads(out)
        z = abs(got["ratio"] - 1.0) / got["ratio_sigma"]
        rel = abs(got["welch_variance"] - want["variance"]) / want["variance"]
        if not (z <= NOISE_SIGMAS and rel <= NOISE_PSD_TOLERANCE):
            return f"equipartition z = {z:.2f}, Welch variance off by {rel:.1%}"
        return None
    if "overall: PASS" not in out:
        return "validate-noise did not PASS"
    if f"seed {want['seed']}, {want['members']} members" not in out:
        return "seed and ensemble size not echoed"
    analytic = float(out.split(" vs analytic ", 1)[1].split()[0])
    if not _close(analytic, want["variance"]):
        return f"analytic variance {analytic!r}, rho0 c^2 kT / V = {want['variance']!r}"
    return None


def _driven(op, out: str) -> str | None:
    got = json.loads(out)
    amplitude = complex(got["re"], got["im"])
    want = op.expect["phasor"]
    err = abs(amplitude - want) / abs(want)
    if not err <= DRIVEN_TOLERANCE:
        return f"phasor {amplitude!r} off the transfer function by {err:.2e}"
    return None


_CHECKS = {"report": _report, "modes": _modes, "sweep": _sweep,
           "noise": _noise, "driven": _driven, "presets": lambda op, out: None}


def judge(op, rc: int, out: str, err: str) -> tuple[str, str]:
    if op.may_fail:
        if _zero_cross_section(rc, out, err):
            return "ok", ""
        return "failed", f"exit {rc}: {(err.strip().splitlines() or [''])[-1]}"
    if rc != 0 or "Traceback" in err:
        return "failed", f"exit {rc}: {err.strip()[-400:]}"
    try:
        problem = _CHECKS[op.kind](op, out)
    except (ValueError, KeyError, IndexError) as exc:
        problem = f"unparseable output ({exc!r})"
    return ("wrong", problem) if problem else ("ok", "")


def presets_match_report(outputs: dict[str, str]) -> str | None:
    """The presets listing's sha prefix equals the preset report's sha."""
    report = _key_values(outputs["report_preset"]).get("scenario_sha256", "")
    for line in outputs["presets"].splitlines():
        if line.startswith("anthrax_stp:"):
            prefix = line.rsplit("(sha256 ", 1)[-1].rstrip(")")
            if len(prefix) == 12 and report.startswith(prefix):
                return None
            return f"presets sha {prefix!r} against report sha {report!r}"
    return "presets does not list anthrax_stp"

