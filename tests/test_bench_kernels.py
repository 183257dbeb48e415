"""The kernel timing script, benchmarks/bench_kernels.py, still runs
against the package: no test calls its cases otherwise, so a changed
name or signature would break it unseen."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "bench_kernels.py"


def test_kernel_script_prints_a_row_per_case(tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--size", "64", "--points", "5000", "--repeats", "1"],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    # The cases the script runs at these sizes, each printed once in order.
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cases = bench._cases(64, 5000, np.random.default_rng(0), str(tmp_path))
    assert len(rows) == len(cases) > 0
    for row, (name, desc, _, _) in zip(rows, cases):
        assert row.startswith(f"{name:<18} {desc:<30} "), row
        assert row.endswith(" MB"), row
