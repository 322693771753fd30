"""The package's import graph runs one way, and its import path is short.

Imports are read from the source with ast, so the check sees every
`from . import x`, `from .x import y` and `import pcurvature.x` without
running any module.  What importing the package actually loads is checked
in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pcurvature

PKG = Path(pcurvature.__file__).parent
ENGINE = ("fields", "polys", "linalg", "local_eval", "interp", "reconstruct")


def _imports(path, modules):
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith(
                    "pcurvature"):
                base = node.module.split(".")[1:]
            elif node.level == 1:
                base = node.module.split(".") if node.module else []
            else:
                continue
            if base:
                found.add(base[0])
            else:
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "pcurvature" and len(parts) > 1:
                    found.add(parts[1])
    return found & modules


def _graph():
    paths = {p.stem: p for p in PKG.glob("*.py")}
    return {name: _imports(path, set(paths)) for name, path in paths.items()}


def _reachable(graph, start):
    seen, todo = set(), list(graph[start])
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo.extend(graph[m])
    return seen


def test_import_graph_runs_one_way():
    graph = _graph()
    # the reader sees the edges it must, so an empty graph cannot pass
    assert set(ENGINE) <= set(graph)
    assert {"polys", "smith"} <= graph["interp"]
    assert "linalg" not in graph["interp"]
    assert "nilprofile" in graph["cli"]
    cyclic = sorted(m for m in graph if m in _reachable(graph, m))
    assert cyclic == []
    engine_on_nilprofile = sorted(
        m for m in ENGINE if "nilprofile" in _reachable(graph, m))
    assert engine_on_nilprofile == []


# Loaded by `import pcurvature` and `from pcurvature import cli` at start-up:
# none of these serves a solve.  dataclasses pulls in inspect, ast, dis and
# tokenize, and each decorated class execs generated source.  extension and
# smith serve only points of degree > 1, derogatory classes and the oracle,
# and each is compiled from source when it loads.
OFF_IMPORT_PATH = ("dataclasses", "inspect", "pcurvature.nilprofile",
                   "pcurvature.ratfunc", "pcurvature.extension",
                   "pcurvature.smith")

_PROBE = """
import sys
before = set(sys.modules)
import pcurvature
from pcurvature import cli
added = set(sys.modules) - before
print(" ".join(sorted(added)))
print(" ".join(n for n in pcurvature.__all__ if not hasattr(pcurvature, n)))
print(" ".join(sorted(set(pcurvature.__all__) - set(dir(pcurvature)))))
"""


def test_import_path_loads_only_the_engine_and_parser():
    # -S: no site hooks, so a module that site happens to load cannot hide
    # one that the package adds
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    out = subprocess.run([sys.executable, "-S", "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    added, unresolved, undirected = (line.split()
                                     for line in out.split("\n")[:3])
    assert {"pcurvature.cli", "pcurvature.reconstruct"} <= set(added)
    assert sorted(set(OFF_IMPORT_PATH) & set(added)) == []
    assert unresolved == []
    assert undirected == []


COLD = ("pcurvature.extension", "pcurvature.smith")

# Each line prints which of COLD are loaded after one more step: a det
# solve of the workload operator over F_1019, an mc solve of it over
# F_2003, a field of degree 2, and a derogatory matrix's class.
_SOLVE_PROBE = """
import sys
from pcurvature import cli, fields, linalg, reconstruct
COLD = %r


def loaded():
    print(" ".join(m for m in COLD if m in sys.modules) or "-")


op = cli.parse_operator("(x^2+1)*Dx^2 + x*Dx + 1", fields.PrimeField(1019))
reconstruct.reconstruct_deterministic(op, 1019)
loaded()
op = cli.parse_operator("(x^2+1)*Dx^2 + x*Dx + 1", fields.PrimeField(2003))
plan = reconstruct.select_params(op, epsilon=0.1, seed=1)
reconstruct.reconstruct_montecarlo(op, 2003, plan)
loaded()
reconstruct._point_field(fields.PrimeField(5), 2)
loaded()
K = fields.PrimeField(5)
print(linalg.invariant_factors_of(K, [[1, 0], [0, 1]]))
loaded()
""" % (COLD,)


def test_fp_solves_load_neither_extension_nor_smith():
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    out = subprocess.run([sys.executable, "-S", "-c", _SOLVE_PROBE],
                         env=env, capture_output=True, text=True,
                         check=True).stdout.split("\n")
    assert out[:5] == ["-", "-", "pcurvature.extension", "[[4, 1], [4, 1]]",
                       "pcurvature.extension pcurvature.smith"]


def test_fixed_modulus_division_lives_in_one_class():
    # NEWTON_CUTOFF is set once, and only MonicModReducer calls the Newton
    # primitives, so every division by a fixed modulus shares one cutoff
    # and one kind of inverse cache
    newton = {"series_inv", "rem_monic_precomp"}
    cutoffs, callers = [], set()
    for path in sorted(PKG.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = ".".join([path.stem] + (
                [top.name] if hasattr(top, "name") else []))
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    if getattr(f, "id", getattr(f, "attr", None)) in newton:
                        callers.add(owner)
                elif (isinstance(getattr(node, "ctx", None), ast.Store)
                      and "NEWTON_CUTOFF" in (getattr(node, "id", None),
                                              getattr(node, "attr", None))):
                    cutoffs.append(owner)
    assert cutoffs == ["polys.MonicModReducer"]
    assert callers == {"polys.MonicModReducer"}


def test_one_factorial_engine_reads_no_packed_flag():
    # every ring the factorial runs on is packed, so no source asks a ring
    # whether it is: no read of an attribute named packed, by a dot or by
    # getattr
    reads = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "packed"
                    and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in ("getattr",
                                                           "hasattr")
                    and any(isinstance(a, ast.Constant) and a.value == "packed"
                            for a in node.args)):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []
