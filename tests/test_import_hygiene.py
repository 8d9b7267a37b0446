"""Heavy optional libraries stay off the synthesis, sweep and service paths.

``scipy.signal`` is only needed to *design* a filter (the Table-1 suite's
taps are checked in as data) and ``networkx`` only to test the spanning
forest's root choice.  Importing either costs most of a fresh
interpreter's start-up, so each check runs in its own interpreter and
fails if one of them was loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.signal", "networkx")

SYNTHESIS = """
import repro
from repro.eval.experiments import best_mrpf
from repro.filters import benchmark_suite
from repro.quantize import ScalingScheme, quantize

suite = benchmark_suite()
taps = quantize(suite[1].folded, 12, ScalingScheme.MAXIMAL).integers
best_mrpf(taps, 12)
repro.robust_synthesize(list(taps), 12)
"""


def _loaded_after(code: str) -> list:
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("code", [
    pytest.param("import repro.eval.__main__", id="cli"),
    pytest.param("import repro.service.app", id="service"),
    pytest.param(SYNTHESIS, id="suite-best-mrpf-robust"),
])
def test_path_loads_neither_scipy_signal_nor_networkx(code):
    assert _loaded_after(code) == []


def test_probe_sees_a_design_import():
    """The probe itself works: designing a filter does load scipy.signal."""
    code = (
        "from repro.filters import TABLE1_SPECS, design_fir\n"
        "design_fir(TABLE1_SPECS[0])\n"
    )
    assert _loaded_after(code) == ["scipy.signal"]
