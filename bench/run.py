"""parsim benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; parsim is imported from ./src in every child
process.  The load is sequential, one child at a time.  With --trace 0 each
operation is a fresh `python -m parsim.cli ...` process, or a fresh process
making one oracle call, and the run repeats whole passes over the
workload's operations until S seconds have been spent.  With --trace 1 a
fresh process replays the workload in-process with spans (see replay.py).
Outputs are checked against reference.py; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import inputs
import reference as ref

WORKLOADS = ("interactive", "survey", "oracle")
SETUP_SAMPLES = 3           # fresh `import parsim.cli` interpreters per run
IMPORT_PROBES = 3           # per import figure in the traced run
RUN_DEADLINE_S = 165.0      # no child outlives this many seconds of the run

BENCH = Path(__file__).resolve().parent


class Child:
    """One finished child process: exit code, wall time and its rusage."""

    def __init__(self, argv: list[str], env: dict, stdout: Path, stderr: Path,
                 timeout: float):
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            killer = threading.Timer(max(timeout, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout, self.stderr = stdout, stderr

    def text(self) -> tuple[str, str]:
        return (self.stdout.read_text(encoding="utf-8", errors="replace"),
                self.stderr.read_text(encoding="utf-8", errors="replace"))


class Runner:
    def __init__(self, root: Path, out_dir: Path):
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.started = time.perf_counter()

    def run(self, argv: list[str], tag: str) -> Child:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        return Child([sys.executable, *argv], self.env, self.out_dir / f"{tag}.out",
                     self.out_dir / f"{tag}.err", left)

    def op_argv(self, op: inputs.Op) -> list[str]:
        if op.kind == "driven":
            return [str(BENCH / "child.py"), "driven", *op.argv]
        return ["-m", "parsim.cli", *op.argv]


def _check_checkout(runner: Runner, src: Path) -> None:
    """parsim must come from this checkout's src, nowhere else."""
    child = runner.run(["-c", "import parsim; print(parsim.__file__)"], "locate")
    out, err = child.text()
    where = Path(out.strip() or ".").resolve()
    if child.rc != 0 or src.resolve() not in where.parents:
        raise SystemExit(f"parsim not importable from {src}: {err.strip()[-300:]}")


def _pass(runner: Runner, ops: list[inputs.Op], index: int, reference: dict,
          outcomes: list) -> tuple[float, float, float, list[float]]:
    """Run every operation once; judge or compare with the first pass."""
    pass_dir = runner.out_dir / f"pass{index}"
    pass_dir.mkdir()
    wall = cpu = 0.0
    walls, peak = [], 0.0
    for op in ops:
        child = runner.run(runner.op_argv(op), f"pass{index}/{op.name}")
        wall += child.wall
        cpu += child.cpu
        walls.append(child.wall)
        peak = max(peak, child.rss_mb)
        out, err = child.text()
        if index == 0 or op.may_fail or child.rc != 0:
            status, message = checks.judge(op, child.rc, out, err)
            if index == 0:
                reference[op.name] = out
        elif out != reference[op.name]:
            status, message = "wrong", "output differs from the first pass"
        else:
            status, message = "ok", ""
        outcomes.append((op.name, index, status, message))
    return wall, cpu, peak, walls


def untraced(runner: Runner, workload: inputs.Workload, seconds: float) -> dict:
    setup = []
    for i in range(SETUP_SAMPLES):
        setup.append(runner.run(["-c", "import parsim.cli"], f"setup{i}").wall)
    reference: dict[str, str] = {}
    outcomes: list = []
    pass_walls, pass_cpus, op_walls, peak = [], [], [], 0.0
    start = time.perf_counter()
    while True:
        wall, cpu, rss, walls = _pass(runner, workload.ops, len(pass_walls),
                                      reference, outcomes)
        pass_walls.append(wall)
        pass_cpus.append(cpu)
        op_walls.extend(walls)
        peak = max(peak, rss)
        elapsed = time.perf_counter() - start
        if elapsed + wall > seconds or elapsed + 2 * wall > RUN_DEADLINE_S - 20:
            break
    return {
        "outcomes": outcomes,
        "cross_checks": _cross_checks(workload, reference),
        "passes": len(pass_walls),
        "metrics": {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(pass_walls), "s"),
            "op_p50_s": (statistics.median(op_walls), "s"),
            "cpu_s": (statistics.median(pass_cpus), "s"),
            "peak_rss_mb": (peak, "MB"),
        },
        "samples": {"setup_s": setup, "pass_wall_s": pass_walls,
                    "pass_cpu_s": pass_cpus, "op_wall_s": op_walls},
    }


def _cross_checks(workload: inputs.Workload, outputs: dict[str, str]) -> list[str]:
    """Checks that span operations: the presets listing against the report."""
    if workload.name != "interactive":
        return []
    problem = checks.presets_match_report(outputs)
    return [problem] if problem else []


def _self_times(spans: list[dict]) -> dict:
    """Per span name: calls, total and self time (duration minus children)."""
    children: dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = (children.get(span["parent"], 0)
                                        + span["end_ns"] - span["start_ns"])
    table: dict[str, dict] = {}
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["total_s"] += duration / 1e9
        row["self_s"] += (duration - children.get(span["id"], 0)) / 1e9
        row["durations"].append(duration / 1e9)
    for row in table.values():
        row["median_s"] = statistics.median(row.pop("durations"))
    return table


def traced(runner: Runner, workload: inputs.Workload) -> dict:
    imports = [json.loads(runner.run([str(BENCH / "child.py"), "import-cli"],
                                     f"import_cli{i}").text()[0])
               for i in range(IMPORT_PROBES)]
    scipy_modules = imports[0]["scipy"]
    scipy_s = [json.loads(runner.run([str(BENCH / "child.py"), "import-scipy",
                                      *scipy_modules], f"import_scipy{i}").text()[0])
               ["seconds"] for i in range(IMPORT_PROBES)]

    manifest = runner.out_dir / "manifest.json"
    manifest.write_text(json.dumps({
        "ops": [{"name": op.name, "kind": op.kind, "argv": op.argv}
                for op in workload.ops],
        "first_scenario": next(iter(workload.scenarios)),
    }), encoding="utf-8")
    child = runner.run([str(BENCH / "replay.py"), str(manifest), str(runner.out_dir)],
                       "replay")
    out, err = child.text()
    if child.rc != 0:
        raise SystemExit(f"traced replay failed: {err.strip()[-2000:]}")
    summary = json.loads(out)

    outcomes = []
    outputs = {}
    for op in workload.ops:
        base = runner.out_dir / op.name
        text = base.with_suffix(".out").read_text(encoding="utf-8")
        status, message = checks.judge(op, int(base.with_suffix(".rc").read_text()),
                                       text, base.with_suffix(".err").read_text())
        base.with_suffix(".out").unlink()   # large command output, now checked
        outputs[op.name] = text
        outcomes.append((op.name, 0, status, message))
    cross = _cross_checks(workload, outputs) + _probe_problems(summary["probes"])

    spans = [json.loads(line) for line in
             (runner.out_dir / "spans.jsonl").read_text(encoding="utf-8").splitlines()]
    layers = _self_times(spans)

    def median_of(name: str, scale: float) -> float:
        return layers[name]["median_s"] * scale

    us, ms = 1e6, 1e3
    metrics = {
        "import.parsim_cli_s": (statistics.median(p["seconds"] for p in imports), "s"),
        "import.scipy_s": (statistics.median(scipy_s), "s"),
        "import.modules_loaded": (imports[0]["modules"], "count"),
        "scenario_io.loads_scenario_us": (median_of("scenario_io.loads_scenario", us), "us"),
        "scenario_io.scenario_hash_us": (median_of("scenario_io.scenario_hash", us), "us"),
        "quantities.validate_scenario_us":
            (median_of("quantities.validate_scenario", us), "us"),
        "raman.gain_coefficient_us": (median_of("raman.gain_coefficient", us), "us"),
        "raman.heat_source_density_us":
            (median_of("raman.heat_source_density", us), "us"),
        "thermal.thermal_report_us": (median_of("thermal.thermal_report", us), "us"),
        "noise.nep_us": (median_of("noise.nep", us), "us"),
        "detection.min_density_us": (median_of("detection.min_density", us), "us"),
        "cli.sweep_us_per_point":
            (layers["cli.sweep"]["total_s"] * us / summary["sweep_points"], "us"),
        "cli.report_ms": (median_of("cli.report.preset", ms), "ms"),
        "acoustics.cylinder_modes_us": (median_of("acoustics.cylinder_modes", us), "us"),
        "oracle.langevin_ns_per_member_step":
            (layers["oracle.integrate_langevin"]["total_s"] * 1e9
             / summary["member_steps"], "ns"),
        "oracle.langevin_member_steps": (summary["member_steps"], "count"),
        "oracle.estimate_psd_ms": (median_of("oracle.estimate_psd", ms), "ms"),
        "oracle.integrate_driven_s": (median_of("oracle.integrate_driven", 1.0), "s"),
        "trace.overhead_pct": (100.0 * summary["spans"] * summary["span_cost_s"]
                               / summary["untraced_s"], "%"),
    }
    return {"outcomes": outcomes, "cross_checks": cross, "passes": 1,
            "metrics": metrics, "layers": layers,
            "samples": {"import_cli_s": [p["seconds"] for p in imports],
                        "import_scipy_s": scipy_s, "scipy_modules": scipy_modules,
                        "replay_traced_s": summary["traced_s"],
                        "replay_untraced_s": summary["untraced_s"],
                        "spans": summary["spans"], "span_cost_s": summary["span_cost_s"]}}


def _probe_problems(probes: dict) -> list[str]:
    """The small probes of layers a workload does not reach are checked too."""
    problems = []
    if "driven" in probes:
        got = complex(probes["driven"]["re"], probes["driven"]["im"])
        want = ref.driven_phasor(*inputs.PROBE_DRIVEN)
        if not abs(got - want) <= inputs.DRIVEN_TOLERANCE * abs(want):
            problems.append(f"driven probe phasor {got!r}, expected {want!r}")
    if "langevin" in probes:
        got = probes["langevin"]
        if not abs(got["ratio"] - 1.0) <= checks.NOISE_SIGMAS * got["ratio_sigma"]:
            problems.append(f"Langevin probe equipartition ratio {got['ratio']!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "parsim" / "cli.py").is_file():
        print(f"error: no parsim sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    runner = Runner(root, out_dir)
    _check_checkout(runner, src)
    workload = inputs.build(args.workload, args.seed, out_dir / "inputs")

    if args.trace:
        result = traced(runner, workload)
    else:
        result = untraced(runner, workload, args.seconds)

    failed = sum(1 for *_, status, _ in result["outcomes"] if status == "failed")
    wrong = [o for o in result["outcomes"] if o[2] == "wrong"]
    for name, index, status, message in result["outcomes"]:
        if status != "ok":
            print(f"{status}: {name} (pass {index}): {message}", file=sys.stderr)
    for problem in result["cross_checks"]:
        print(f"wrong: {problem}", file=sys.stderr)
    line = {
        "correct": not wrong and not result["cross_checks"],
        "attempted": len(result["outcomes"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    record = dict(line, workload=args.workload, seed=args.seed, trace=args.trace,
                  passes=result["passes"], outcomes=result["outcomes"],
                  samples=result["samples"], layers=result.get("layers"))
    (out_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for pass_dir in out_dir.glob("pass*"):
        shutil.rmtree(pass_dir)   # large command outputs, already checked
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
