"""Traced in-process replay of one workload, run in a fresh process.

    replay.py MANIFEST OUT_DIR

The manifest lists the workload's operations.  Each operation is replayed
through parsim's public functions, with a span (name, start, end, parent,
operation) around every call this file makes into a parsim module:

- ``report``/``modes``/``sweep``/``presets``: the scenario's layers one by
  one (``scenario_io``, ``quantities``, ``raman``, ``thermal``, ``noise``,
  ``detection``, and ``acoustics`` for modes), then ``cli.main`` itself;
  a sweep also evaluates the layers on a fixed subset of its points;
- ``noise`` (validate-noise): ``oracle.integrate_langevin`` and
  ``oracle.estimate_psd`` at the command's settings;
- ``driven``: ``oracle.integrate_driven``.

Layers a workload never reaches get one small probe each, so that every
per-layer figure exists on every workload.  The replay runs twice: first
without recording, which also warms caches and lazy set-up, then
recording.  The tracing overhead is the number of spans times the
measured cost of one span (a recorded call minus a plain one), as a share
of the plain replay; both replays' wall times are reported too.

Spans go to OUT_DIR/spans.jsonl, each operation's exit code and output to
OUT_DIR/<name>.rc, .out and .err, and a summary to stdout as JSON.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
import time
import traceback
from pathlib import Path

from parsim import detection, noise, oracle, quantities, raman, thermal
from parsim import acoustics, cli, scenario_io
from parsim.presets import build_preset

from inputs import PROBE_DRIVEN

LAYER_REPEATS = 30         # calls per layer per scenario
SWEEP_SAMPLE_POINTS = 300  # sweep points whose layers are timed one by one
REPORT_REPEATS = 10        # in-process `main(["report"])` calls
PROBE_SWEEP = "laser.pump_intensity,laser.stokes_intensity=log:1e8:1e14:1000"
# Langevin probe: 4 members, w_1 <= Gamma_n (rad/s) so the step count is fixed
PROBE_LANGEVIN = {"noise_mode_omega": 4.0e4, "noise_damping": 5.0e4}
PROBE_LANGEVIN_DAMPINGS = 1000.0
SPAN_COST_CALLS = 20000    # calls per round when timing one span's cost


class Recorder:
    """Spans kept in memory; with ``enabled`` false it only makes the calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op: str | None = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[span_id] = (name, start, end, parent, self.op)


def _option(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _main(rec: Recorder, name: str, argv: list[str]) -> tuple[int, str, str]:
    """cli.main in-process, with the exit code, stdout and stderr it gives."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = rec.call(name, cli.main, argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is what the process would print
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def _layers(rec: Recorder, scenario, snr: float, convention: str,
            repeats: int) -> None:
    """Each chain layer on one scenario; stops at the first layer that raises."""
    try:
        for _ in range(repeats):
            rec.call("quantities.validate_scenario", quantities.validate_scenario,
                     scenario)
            gain = rec.call("raman.gain_coefficient", raman.gain_coefficient,
                            scenario, convention)
            rec.call("raman.heat_source_density", raman.heat_source_density,
                     scenario, gain)
            rec.call("thermal.thermal_report", thermal.thermal_report, scenario)
            rec.call("noise.nep", noise.nep, scenario)
            rec.call("detection.min_density", detection.min_density, scenario,
                     snr, convention)
    except (ArithmeticError, ValueError):
        pass  # the known-failing scenario: its later calls are the failure


def _scenario(rec: Recorder, argv: list[str]):
    path = _option(argv, "--scenario")
    if path is None:
        return build_preset(_option(argv, "--preset", "anthrax_stp"))
    text = Path(path).read_text(encoding="utf-8")
    for _ in range(LAYER_REPEATS):
        scenario = rec.call("scenario_io.loads_scenario",
                            scenario_io.loads_scenario, text).scenario
    for _ in range(LAYER_REPEATS):
        rec.call("scenario_io.scenario_hash", scenario_io.scenario_hash, scenario)
    return scenario


def _modes(rec: Recorder, scenario, axial: int, azimuthal: int, radial: int) -> None:
    for _ in range(LAYER_REPEATS):
        rec.call("acoustics.cylinder_modes", acoustics.cylinder_modes,
                 scenario.cell, scenario.gas, max_axial=axial,
                 max_radial=radial, max_azimuthal=azimuthal)


def _sweep_points(rec: Recorder, scenario, argv: list[str], snr: float,
                  convention: str) -> None:
    """Layers on an evenly spaced subset of the sweep's points."""
    spec = _option(argv, "--vary")
    head, _, tail = spec.partition("=")
    kind, lo, hi, n = tail.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    step = max(1, n // SWEEP_SAMPLE_POINTS)
    for i in range(0, n, step):
        frac = i / (n - 1)
        value = (lo * (hi / lo) ** frac if kind == "log" else lo + (hi - lo) * frac)
        point = scenario
        for path in head.split(","):
            section, attr = path.split(".")
            part = dataclasses.replace(getattr(point, section), **{attr: value})
            point = dataclasses.replace(point, **{section: part})
        _layers(rec, point, snr, convention, 1)


def _langevin(rec: Recorder, scenario, seed: int, members: int,
              dampings: float, totals: dict) -> dict:
    """validate-noise's two oracle stages at the command's settings."""
    det = scenario.detector
    dt = 0.05 / max(det.noise_damping, det.noise_mode_omega)
    duration = dampings / det.noise_damping
    n_keep = int(round(duration / dt))
    nperseg = min(1024, 1 << int(math.log2(max(n_keep, 8))))
    config = oracle.SdeRunConfig(timestep=dt, duration=duration, seed=seed,
                                 ensemble_size=members,
                                 mode_omega=det.noise_mode_omega,
                                 damping=det.noise_damping, keep_samples=True)
    stats = rec.call("oracle.integrate_langevin", oracle.integrate_langevin,
                     config, scenario)
    gas = scenario.gas
    pressure = (gas.density * quantities.sound_speed(gas) * det.noise_mode_omega
                * stats.position)
    psd = rec.call("oracle.estimate_psd", oracle.estimate_psd, pressure, 1.0 / dt,
                   nperseg=nperseg)
    n_burn = int(round((10.0 / det.noise_damping) / dt))
    totals["member_steps"] += members * (n_burn + stats.n_samples)
    return {"ratio": stats.equipartition_ratio,
            "ratio_sigma": stats.equipartition_ratio * stats.mean_u2_stderr
            / stats.mean_u2,
            "welch_variance": oracle.series_variance(psd)}


def _driven(rec: Recorder, args) -> dict:
    result = rec.call("oracle.integrate_driven", oracle.integrate_driven, *args)
    return {"re": result.amplitude.real, "im": result.amplitude.imag,
            "drift": result.drift}


def _run_op(rec: Recorder, op: dict, totals: dict) -> tuple[int, str, str]:
    argv, kind = op["argv"], op["kind"]
    if kind == "driven":
        return 0, json.dumps(_driven(rec, [float(a) for a in argv])), ""
    if kind == "noise":
        scenario = _scenario(rec, argv)
        _layers(rec, scenario, 1.0, "ordinary", LAYER_REPEATS)
        return 0, json.dumps(_langevin(
            rec, scenario, int(_option(argv, "--seed")),
            int(_option(argv, "--members")),
            float(_option(argv, "--duration-dampings")), totals)), ""
    snr = float(_option(argv, "--snr", "1.0"))
    convention = _option(argv, "--linewidth-convention", "ordinary")
    if kind != "presets":
        scenario = _scenario(rec, argv)
        _layers(rec, scenario, snr, convention, LAYER_REPEATS)
    if kind == "modes":
        caps = [int(c) for c in _option(argv, "--max-modes").split(",")]
        _modes(rec, scenario, *caps)
    if kind == "sweep":
        _sweep_points(rec, scenario, argv, snr, convention)
        totals["sweep_points"] += int(_option(argv, "--vary").rsplit(":", 1)[1])
    return _main(rec, f"cli.{kind}", argv)


def replay(rec: Recorder, ops: list[dict], first_scenario: str) -> dict:
    totals = {"member_steps": 0, "sweep_points": 0, "outputs": {}}
    for op in ops:
        rec.op = op["name"]
        totals["outputs"][op["name"]] = rec.call(f"op.{op['kind']}", _run_op,
                                                 rec, op, totals)
    seen = {op["kind"] for op in ops}

    # probes for the layers this workload does not reach
    rec.op = None
    for _ in range(REPORT_REPEATS):
        _main(rec, "cli.report.preset", ["report"])
    text = Path(first_scenario).read_text(encoding="utf-8")
    scenario = scenario_io.loads_scenario(text).scenario
    if "modes" not in seen:
        _modes(rec, scenario, 4, 1, 2)
    if "sweep" not in seen:
        argv = ["sweep", "--scenario", first_scenario, "--vary", PROBE_SWEEP]
        _main(rec, "cli.sweep", argv)
        totals["sweep_points"] += 1000
    probes = {}
    if "noise" not in seen:
        detector = dataclasses.replace(scenario.detector, **PROBE_LANGEVIN)
        probes["langevin"] = _langevin(
            rec, dataclasses.replace(scenario, detector=detector), 1, 4,
            PROBE_LANGEVIN_DAMPINGS, totals)
    if "driven" not in seen:
        probes["driven"] = _driven(rec, PROBE_DRIVEN)
    totals["probes"] = probes
    return totals


def span_cost_s() -> float:
    """What recording one span adds to a call: median of five rounds."""
    def noop():
        return None

    rounds = []
    for _ in range(5):
        rec = Recorder(True)
        start = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            rec.call("noop", noop)
        rounds.append((time.perf_counter() - start - plain) / SPAN_COST_CALLS)
    return sorted(rounds)[2]


def main(manifest_path: str, out_dir: str) -> None:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    out = Path(out_dir)
    ops, first = manifest["ops"], manifest["first_scenario"]
    # the plain replay also warms caches and lazy set-up for the traced one
    start = time.perf_counter()
    replay(Recorder(False), ops, first)
    untraced_s = time.perf_counter() - start
    traced = Recorder(True)
    start = time.perf_counter()
    totals = replay(traced, ops, first)
    traced_s = time.perf_counter() - start
    for name, (rc, stdout, stderr) in totals.pop("outputs").items():
        (out / f"{name}.out").write_text(stdout, encoding="utf-8")
        (out / f"{name}.err").write_text(stderr, encoding="utf-8")
        (out / f"{name}.rc").write_text(str(rc), encoding="utf-8")
    with open(out / "spans.jsonl", "w", encoding="utf-8") as f:
        for span_id, (name, begin, end, parent, op) in enumerate(traced.spans):
            f.write(json.dumps({"id": span_id, "name": name, "start_ns": begin,
                                "end_ns": end, "parent": parent, "op": op}) + "\n")
    print(json.dumps(dict(totals, traced_s=traced_s, untraced_s=untraced_s,
                          spans=len(traced.spans), span_cost_s=span_cost_s())))


if __name__ == "__main__":
    main(*sys.argv[1:])
