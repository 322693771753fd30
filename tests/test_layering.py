"""The package's import graph runs one way, its import path is short, and
what past simplifications removed stays removed.

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
    assert graph["interp"] == {"polys", "errors"}
    assert "nilprofile" in graph["cli"]
    cyclic = sorted(m for m in graph if m in _reachable(graph, m))
    assert cyclic == []
    engine_on_nilprofile = sorted(
        m for m in ENGINE if "nilprofile" in _reachable(graph, m))
    assert engine_on_nilprofile == []


# Loaded by `import pcurvature` and `from pcurvature import cli` at start-up:
# none of these serves a solve.  dataclasses pulls in inspect, ast, dis and
# tokenize, and each decorated class execs generated source.  extension
# serves only points of degree > 1, and smith the Krylov relations of
# derogatory classes and the oracle; each is compiled from source when it
# loads.
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


def _name(node):
    """The name a node defines, imports or refers to, if any."""
    return getattr(node, "id", getattr(node, "attr",
                                       getattr(node, "name", None)))


def _calls(node):
    return {_name(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)}


def _where(trees, test):
    """file:line of every node, in every module, for which test holds."""
    return [f"{stem}.py:{node.lineno}" for stem, tree in trees.items()
            for node in ast.walk(tree) if test(stem, node)]


def _reads_packed(stem, node):
    # every ring the factorial runs on is packed, so no source asks a ring
    # whether it is, by a dot or by getattr
    return (isinstance(node, ast.Attribute) and node.attr == "packed"
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Call)
            and _name(node.func) in ("getattr", "hasattr")
            and any(isinstance(a, ast.Constant) and a.value == "packed"
                    for a in node.args))


def _cached(stem, node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and any(
        _name(d.func if isinstance(d, ast.Call) else d) in ("lru_cache",
                                                            "cache")
        for d in node.decorator_list)


def _classes(trees):
    return {f"{stem}.{node.name}": node for stem, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def _methods(trees, qualname):
    return {f.name: f for f in _classes(trees)[qualname].body
            if isinstance(f, ast.FunctionDef)}


def _callers(trees, stem, callee):
    """Functions of a module (methods and nested ones included) whose
    body calls callee."""
    return {f.name for f in ast.walk(trees[stem])
            if isinstance(f, ast.FunctionDef) and callee in _calls(f)}


def _stores_rows(node):
    return any(isinstance(sub, ast.Attribute)
               and isinstance(sub.ctx, ast.Store)
               and _name(sub.value) == "self" and "rows" in sub.attr
               for sub in ast.walk(node))


def _bytes_outside_unpacker(trees):
    # in fields and extension only _unpack (and _column_bytes, the bytes
    # of a list column) turns ints into bytes
    return [f"{stem}.py:{c.lineno}" for stem in ("fields", "extension")
            for f in ast.walk(trees[stem])
            if isinstance(f, ast.FunctionDef)
            and f.name not in ("_unpack", "_column_bytes")
            for c in ast.walk(f)
            if isinstance(c, ast.Call) and _name(c.func) == "to_bytes"]


def _mentions(names):
    """A reader of every file:line that defines, imports or mentions one
    of names."""
    return lambda t: _where(t, lambda stem, node: _name(node) in names)


# What past simplifications removed or fixed, by the test that pins it:
# (what is pinned, how to read it from the parsed modules, what it must
# be).  Each name listed as removed may be defined, imported or mentioned
# by no module again.
PINS = {
    # one reduction by a fixed modulus, fields.QuotientRing, whose rows
    # ExtensionField inherits; only a subproduct tree node takes a Newton
    # inverse
    "test_fixed_modulus_division_lives_in_one_class": [
        ("mentions of a removed name", _mentions({
            "NEWTON_CUTOFF", "MonicModReducer", "rem_monic_precomp",
            "pow_mod", "_init_reduction_rows", "reduce_product"}), []),
        ("top-level owners of a series_inv call", lambda t: {
            ".".join([stem] + ([top.name] if hasattr(top, "name") else []))
            for stem, tree in t.items() for top in tree.body
            if "series_inv" in _calls(top)}, {"polys.SubproductTree"}),
        ("classes that store rows on self", lambda t: sorted(
            name for name, node in _classes(t).items()
            if _stores_rows(node)), ["fields.QuotientRing"]),
    ],
    "test_one_factorial_engine_reads_no_packed_flag": [
        ("reads of an attribute named packed",
         lambda t: _where(t, _reads_packed), []),
    ],
    # one product ring holds the factorial's kernels
    "test_one_class_holds_the_factorial_kernels": [
        ("classes defining matpoly_mul and chain", lambda t: sorted(
            name for name, node in _classes(t).items()
            if {"matpoly_mul", "chain"} <= set(_methods(t, name))),
         ["fields.SplitRing"]),
    ],
    # one class routine, a Krylov decomposition, with no cyclic retry;
    # only the O(p) oracle builds T*I - A
    "test_one_class_routine_builds_no_characteristic_matrix": [
        ("mentions of a removed name", _mentions({"_cyclic_charpoly"}), []),
        ("modules that call char_matrix", lambda t: {
            stem for stem, tree in t.items()
            if "char_matrix" in _calls(tree)}, {"diffop"}),
    ],
    # s is a rule, so no fitted price can come back
    "test_baby_step_length_is_a_rule_not_a_fitted_model": [
        ("mentions of a removed name", _mentions({
            "_FactorialCost", "_Pattern", "_degree_growth",
            "_product_bytes"}), []),
        ("float literals in linalg", lambda t: _where(
            t, lambda stem, node: stem == "linalg" and isinstance(
                node, ast.Constant) and isinstance(node.value, float)), []),
    ],
    # Ben-Or's test, which factors no degree; QuotientRing keeps its rows
    # and reduction only, and ExtensionField.polymul is the schoolbook
    "test_irreducibility_and_extension_products_are_plain": [
        ("mentions of a removed name", _mentions({"_prime_factors"}), []),
        ("QuotientRing's methods",
         lambda t: set(_methods(t, "fields.QuotientRing")),
         {"__init__", "_pad", "reduce"}),
        ("ExtensionField.polymul's calls", lambda t: _calls(
            _methods(t, "extension.ExtensionField")["polymul"]),
         {"mul_schoolbook"}),
    ],
    # one packer and one unpacker, and SplitRing.polymul as a chain step
    "test_one_packer_one_unpacker_and_polymul_as_a_chain_step": [
        ("mentions of a removed name", _mentions({
            "_pack_bytes", "_split_ints", "_polymul_kronecker"}), []),
        ("to_bytes calls outside the unpacker", _bytes_outside_unpacker,
         []),
        ("SplitRing.polymul's calls of chain or a packed product",
         lambda t: _calls(_methods(t, "fields.SplitRing")["polymul"]) & {
             "chain", "_polymul_kronecker", "pack_values"}, {"chain"}),
    ],
    # a system and an operator share one theta-rewrite and one builder
    "test_one_recurrence_builder": [
        ("mentions of a removed name",
         _mentions({"theta_rewrite", "taylor_block"}), []),
        ("local_eval's callers of taylor_shift",
         lambda t: _callers(t, "local_eval", "taylor_shift"),
         {"_theta_rewrite"}),
        ("local_eval's callers of _theta_rewrite",
         lambda t: _callers(t, "local_eval", "_theta_rewrite"),
         {"_recurrence"}),
        ("local_eval's callers of _recurrence",
         lambda t: _callers(t, "local_eval", "_recurrence"),
         {"build_B_system", "build_B_operator"}),
    ],
    # no module state: a lift is one elimination, and the irreducible
    # search runs afresh
    "test_no_module_holds_state": [
        ("mentions of a removed name", _mentions({
            "LinearSolver", "power_basis_solver", "_seeded_irreducible",
            "BASIS_CACHE_SIZE", "IRREDUCIBLE_CACHE_SIZE", "lru_cache"}),
         []),
        ("functions or classes under a cache decorator",
         lambda t: _where(t, _cached), []),
        ("smith's top-level functions and classes", lambda t: {
            top.name for top in t["smith"].body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))},
         {"char_matrix", "smith_form"}),
    ],
}


def _holds(test):
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PKG.glob("*.py"))}
    rows = PINS[test]
    found = {pin: read(trees) for pin, read, _ in rows}
    assert found == {pin: want for pin, _, want in rows}


def test_every_pin_is_checked():
    tests = {name for name in globals() if name.startswith("test_")}
    assert sorted(set(PINS) - tests) == []


def test_fixed_modulus_division_lives_in_one_class():
    _holds("test_fixed_modulus_division_lives_in_one_class")


def test_one_factorial_engine_reads_no_packed_flag():
    _holds("test_one_factorial_engine_reads_no_packed_flag")


def test_one_class_holds_the_factorial_kernels():
    _holds("test_one_class_holds_the_factorial_kernels")


def test_one_class_routine_builds_no_characteristic_matrix():
    _holds("test_one_class_routine_builds_no_characteristic_matrix")


def test_baby_step_length_is_a_rule_not_a_fitted_model():
    _holds("test_baby_step_length_is_a_rule_not_a_fitted_model")


def test_irreducibility_and_extension_products_are_plain():
    _holds("test_irreducibility_and_extension_products_are_plain")


def test_one_packer_one_unpacker_and_polymul_as_a_chain_step():
    _holds("test_one_packer_one_unpacker_and_polymul_as_a_chain_step")


def test_one_recurrence_builder():
    _holds("test_one_recurrence_builder")


def test_no_module_holds_state():
    _holds("test_no_module_holds_state")
