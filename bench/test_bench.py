"""The benchmark's quick mode: every workload at a small size, traced and
untraced, with all of its oracles.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def test_quick_mode_passes_every_oracle():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-4000:]
    assert result["attempted"] > 0
    for workload in ("plethysm", "geometry", "cli"):
        assert "%s/charring.self_s" % workload in result["metrics"]


def test_refuses_to_run_without_the_library(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(copy / "run.py"),
                           "--workload", "plethysm", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
