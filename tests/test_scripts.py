"""The scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys

import pytest

import pcurvature

SRC = os.path.dirname(os.path.dirname(pcurvature.__file__))
SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


@pytest.mark.parametrize("script, args, header", [
    ("mc_error_rate.py", ["--p", "11", "--runs", "2", "--epsilons", "0.2"],
     "epsilon,runs,failures,rate"),
    ("feasibility_demo.py", ["--profile", "23,17,11,6,3,0", "--top", "2"],
     "profile (23, 17, 11, 6, 3, 0), top block 2: "),
])
def test_script_runs_and_prints_its_header(script, args, header):
    out = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(header), out.stdout
