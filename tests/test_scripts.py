"""The scripts under scripts/, and the bench's span recorder, run end to
end on small inputs."""

import json
import os
import subprocess
import sys

import pytest

import pcurvature

SRC = os.path.dirname(os.path.dirname(pcurvature.__file__))
SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")
PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")


@pytest.mark.parametrize("script, args, header", [
    ("mc_error_rate.py", ["--p", "11", "--runs", "2", "--epsilons", "0.2"],
     "epsilon,runs,failures,rate"),
    ("feasibility_demo.py", ["--profile", "23,17,11,6,3,0", "--top", "2"],
     "profile (23, 17, 11, 6, 3, 0), top block 2: "),

    ("cli_corpus.py", ["--first", "1"],
     '{"argv": ["--p", "1019", "--op", "(x^2+1)*Dx^2 + x*Dx + 1"], '
     '"exit": 0, "stdout": {"algorithm": "det"'),
])
def test_script_runs_and_prints_its_header(script, args, header):
    out = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(header), out.stdout


_TRACED_SOLVE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
from pcurvature import diffop, fields, reconstruct
tracer = Tracer()
tracer.install()
K = fields.PrimeField(101)
op = diffop.DiffOperator(K, ((K.one,), (K.zero, K.one),
                             (K.one, K.zero, K.one)))
reconstruct.reconstruct_deterministic(op, 101)
print(json.dumps({name: row["calls"]
                  for name, row in tracer.summary().items()}))
"""


def test_tracer_installs_and_records_the_factorial_spans():
    # perfbench/tracer.py rebinds names of the package's modules, and
    # subclasses polys.SubproductTree; a det solve of the c07 operator
    # under it records the factorial and its multipoint evaluation
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_SOLVE, PERFBENCH],
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    calls = json.loads(out.stdout)
    assert calls["linalg.matrix_factorial"] >= 1, calls
    assert calls["polys.multipoint"] >= 1, calls
