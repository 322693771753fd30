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
# tokenize, and each decorated class execs generated source.  extension
# serves only points of degree > 1, and smith those, the Krylov relations
# of derogatory classes and the oracle; each is compiled from source when
# it loads.
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
    # one reduction by a fixed monic modulus over F_p: no module names the
    # Newton reducer, its cutoff or its helpers; only a subproduct tree
    # node takes a Newton inverse (series_inv); and one fields class
    # builds the packed rows u^(n + j) mod f, which ExtensionField
    # inherits rather than defines
    gone = {"NEWTON_CUTOFF", "MonicModReducer", "rem_monic_precomp",
            "pow_mod"}
    named, newton, row_builders, extension_defs = [], set(), [], set()
    for path in sorted(PKG.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = ".".join([path.stem] + (
                [top.name] if hasattr(top, "name") else []))
            for node in ast.walk(top):
                if {getattr(node, key, None)
                        for key in ("id", "attr", "name")} & gone:
                    named.append(f"{path.name}:{node.lineno}")
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id",
                        getattr(node.func, "attr", None)) == "series_inv":
                    newton.add(owner)
                if isinstance(node, ast.ClassDef) and any(
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and getattr(sub.value, "id", None) == "self"
                        and "rows" in sub.attr for sub in ast.walk(node)):
                    row_builders.append(f"{path.stem}.{node.name}")
                if path.stem == "extension" and isinstance(
                        node, ast.FunctionDef):
                    extension_defs.add(node.name)
    assert named == []
    assert newton == {"polys.SubproductTree"}
    assert row_builders == ["fields.QuotientRing"]
    assert not {"_init_reduction_rows", "reduce_product"} & extension_defs


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


def test_one_class_holds_the_factorial_kernels():
    # one product ring: a single class in the package defines both
    # matpoly_mul and chain, the kernels the factorial runs on
    owners = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body
                           if isinstance(f, ast.FunctionDef)}
                if {"matpoly_mul", "chain"} <= methods:
                    owners.append(f"{path.stem}.{node.name}")
    assert owners == ["fields.SplitRing"]


def test_one_class_routine_builds_no_characteristic_matrix():
    # one Krylov decomposition classifies every matrix: no module defines
    # the cyclic-vector retry, and only the O(p) oracle in diffop builds
    # T*I - A (smith.char_matrix) for the Smith form
    retry, callers = [], set()
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and (
                    node.name == "_cyclic_charpoly"):
                retry.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id",
                    getattr(node.func, "attr", None)) == "char_matrix":
                callers.add(path.stem)
    assert retry == []
    assert callers == {"diffop"}


def test_baby_step_length_is_a_rule_not_a_fitted_model():
    # s is the largest power of two whose square is at most count: no
    # module defines the fitted planner's cost model, zero pattern, degree
    # growth or product pricing, and linalg holds no float literal, so no
    # fitted price can come back
    gone = {"_FactorialCost", "_Pattern", "_degree_growth", "_product_bytes"}
    defined, floats = [], []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and (
                    node.name in gone):
                defined.append(f"{path.name}:{node.name}")
            if path.stem == "linalg" and isinstance(
                    node, ast.Constant) and isinstance(node.value, float):
                floats.append(f"{path.name}:{node.lineno}")
    assert defined == []
    assert floats == []


def test_irreducibility_and_extension_products_are_plain():
    # Ben-Or's test needs no factorization of the degree and no Frobenius
    # matrix: no module defines _prime_factors, and QuotientRing keeps its
    # rows and reduction only.  ExtensionField.polymul is the schoolbook,
    # not a packed product
    factorizers, ring_defs, polymul_calls = [], set(), set()
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and (
                    node.name == "_prime_factors"):
                factorizers.append(f"{path.name}:{node.lineno}")
            if not isinstance(node, ast.ClassDef):
                continue
            defs = [f for f in node.body if isinstance(f, ast.FunctionDef)]
            if (path.stem, node.name) == ("fields", "QuotientRing"):
                ring_defs = {f.name for f in defs}
            if (path.stem, node.name) == ("extension", "ExtensionField"):
                for f in defs:
                    if f.name == "polymul":
                        polymul_calls = {
                            getattr(c.func, "id", getattr(c.func, "attr", None))
                            for c in ast.walk(f) if isinstance(c, ast.Call)}
    assert factorizers == []
    assert ring_defs == {"__init__", "_pad", "reduce"}
    assert polymul_calls == {"mul_schoolbook"}
