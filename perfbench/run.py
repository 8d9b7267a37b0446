"""Benchmark entry point: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

Workloads: ``paper_sweep``, ``robust_synth``, ``service_jobs`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line carries every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` an untraced run
is followed by a traced one and the last line carries every per-layer
metric.  The workload runs in a fresh interpreter; set-up time is the
median over that interpreter and a few extra probe interpreters (for
``service_jobs``: over the server processes the run starts).

Exit codes: 0 with a result, 1 when an output check failed (the result is
still printed), 2 when the program's sources are missing or the workload
process failed (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.stats import HostLog, HostMonitor  # noqa: E402

WORK = ROOT / "perfbench" / "work"
READY = "PERFBENCH-READY"
#: Extra fresh interpreters timed for ``setup_s`` besides the workload's own.
SETUP_PROBES = 2
WORKLOADS = ("paper_sweep", "robust_synth", "service_jobs")


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _spawn(args: List[str]) -> Tuple[subprocess.Popen, float, float]:
    """Start a workload interpreter.

    Returns it, when it was started and its set-up seconds as measured.
    """
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.workloads", *args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
    )
    for line in proc.stdout:
        if line.strip() == READY:
            return proc, began, time.perf_counter() - began
        print(line, end="", flush=True)
    proc.wait()
    raise RuntimeError(f"workload process exited {proc.returncode} "
                       "before it was ready")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    host_log = workdir / "host-speed.log"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", str(workdir), "--host-log", str(host_log)]
    setup: List[Tuple[float, float]] = []  # (start, seconds) per interpreter
    try:
        with HostMonitor(host_log, env=_child_env()):
            if args.workload != "service_jobs":
                for _ in range(SETUP_PROBES):
                    probe, began, seconds = _spawn(common + ["--probe"])
                    probe.stdout.read()
                    if probe.wait() != 0:
                        raise RuntimeError("set-up probe failed")
                    setup.append((began, seconds))
            proc, began, seconds = _spawn(common)
            setup.append((began, seconds))
            last = ""
            for line in proc.stdout:
                if last:
                    print(last, end="", flush=True)
                last = line
            if proc.wait() != 0:
                raise RuntimeError(
                    f"workload process exited {proc.returncode}")
            result = json.loads(last)
            host = HostLog(host_log).refresh()
            setup_s = [host.scale(*pair) for pair in setup]
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()  # write the removal back now, not during the next run

    metrics = result["metrics"]
    samples = result["setup_samples"] or setup_s
    metrics["setup_s"] = median(samples)
    print(f"setup_s samples: {[round(s, 4) for s in samples]}")
    for problem in result["mismatches"]:
        print(f"OUTPUT MISMATCH: {problem}")

    if args.trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["layer"]
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = metrics
    report = {name: {"value": float(values[name]), "unit": unit}
              for name, unit in wanted.items()}
    for name, entry in report.items():
        print(f"{name:<32} {entry['value']:>16.6f} {entry['unit']}")
    correct = not result["mismatches"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": report,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
