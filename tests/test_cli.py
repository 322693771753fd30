import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcurvature import cli, diffop, fields
from pcurvature.errors import (ExtensionDegreeOutOfRange, OperatorSyntaxError,
                               ZeroOperator)
from test_diffop import assert_frozen_record

F3 = fields.PrimeField(3)
F5 = fields.PrimeField(5)
F7 = fields.PrimeField(7)


def test_parse_operator_pins():
    L = cli.parse_operator("Dx - x", F3)
    assert [list(c) for c in L.coeffs] == [[F3.zero, F3.from_int(2)],
                                           [F3.one]]
    assert L.bidegree == (1, 1)

    L2 = cli.parse_operator("x*Dx^2 + Dx + 1", F5)
    assert L2.bidegree == (1, 2)

    L3 = cli.parse_operator("(x^2+1)*Dx - (3*x)", F7)
    assert [list(c) for c in L3.coeffs] == [[F7.zero, F7.from_int(4)],
                                            [F7.one, F7.zero, F7.one]]


def test_parse_operator_accepts_spacing_and_signs():
    L = cli.parse_operator("-Dx + + x - -1", F5)
    # -(Dx) + x + 1, normalized so the leading coefficient is -1
    assert [list(c) for c in L.coeffs] == [[F5.one, F5.one],
                                           [F5.from_int(4)]]


def test_parse_operator_coefficient_arithmetic():
    L = cli.parse_operator("(x+1)^2*Dx + 2*3", F7)
    assert [list(c) for c in L.coeffs] == [[F7.from_int(6)],
                                           [F7.one, F7.from_int(2), F7.one]]


def test_parse_operator_syntax_errors_carry_position():
    with pytest.raises(OperatorSyntaxError) as e:
        cli.parse_operator("Dx + @", F5)
    assert e.value.position == 5
    with pytest.raises(OperatorSyntaxError):
        cli.parse_operator("Dx * x", F5)
    with pytest.raises(OperatorSyntaxError):
        cli.parse_operator("(Dx + 1)^2", F5)
    with pytest.raises(OperatorSyntaxError):
        cli.parse_operator("x * (Dx + 1) * x", F5)
    with pytest.raises(OperatorSyntaxError):
        cli.parse_operator("Dx ^ x", F5)
    with pytest.raises(OperatorSyntaxError):
        cli.parse_operator("(x + 1", F5)


def test_parse_operator_zero_rejections():
    with pytest.raises(ZeroOperator):
        cli.parse_operator("3*Dx", F3)
    with pytest.raises(ZeroOperator):
        cli.parse_operator("Dx - Dx", F5)
    with pytest.raises(ZeroOperator):
        cli.parse_operator("x + 1", F5)  # no differential part


def test_parse_polynomial_rejects_dx():
    assert cli.parse_polynomial("x^2 + 1", F5) == [F5.one, F5.zero, F5.one]
    with pytest.raises(OperatorSyntaxError):
        cli.parse_polynomial("Dx", F5)


def test_dx_commutes_with_itself():
    L = cli.parse_operator("Dx*Dx + Dx^2*Dx", F5)
    assert L.order == 3
    assert [list(c) for c in L.coeffs] == [[], [], [F5.one], [F5.one]]


def _run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_main_det_pin(capsys):
    code, out, _ = _run(["--p", "3", "--op", "Dx - x", "--algo", "det"],
                        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["factors"] == ["T + X"]
    assert doc["params"]["D"] == 1
    assert "threads" not in doc["params"]


@pytest.mark.parametrize("text", ["-x*Dx+1", "-3*Dx"])
def test_operator_text_may_start_with_minus(text, capsys):
    # the word after --op is operator text, even when it starts with "-"
    code, out, _ = _run(["--p", "5", "--op", text, "--check"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["payload"] == text
    assert doc["check"] == {"match": True}
    _, glued, _ = _run(["--p", "5", f"--op={text}"], capsys)
    assert json.loads(glued)["factors"] == doc["factors"]


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--bench", "101"],
                                  ["--bench-runs", "3"]])
def test_removed_flags_are_unknown(flag, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--p", "3", "--op", "Dx - x"] + flag)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_main_mc_seeded(capsys):
    argv = ["--p", "5", "--op", "Dx", "--algo", "mc",
            "--epsilon", "0.25", "--seed", "42"]
    code, out, _ = _run(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["factors"] == ["T"]
    code2, out2, _ = _run(argv, capsys)
    doc2 = json.loads(out2)
    doc.pop("timings"), doc2.pop("timings")
    assert doc2 == doc


def test_main_check_and_profile(capsys):
    code, out, _ = _run(["--p", "7", "--op", "Dx - 1", "--algo", "det",
                         "--check", "--profile"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == {"match": True}
    assert doc["profile"] == [0]


def test_main_naive_algo(capsys):
    code, out, _ = _run(["--p", "5", "--op", "x*Dx^2 + Dx + 1",
                         "--algo", "naive"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["algorithm"] == "naive"
    assert len(doc["factors"]) == 2


def test_main_exit_codes(tmp_path, capsys):
    assert _run(["--p", "5", "--op", "Dx + @"], capsys)[0] == 2
    assert _run(["--p", "3", "--op", "3*Dx"], capsys)[0] == 2
    assert _run(["--p", "4", "--op", "Dx"], capsys)[0] == 3
    assert _run(["--p", "3", "--op", "Dx^3 + x"], capsys)[0] == 3
    for algo in ("mc", "det", "naive"):
        for eps in ("2.0", "nan"):
            code, _, err = _run(["--p", "5", "--op", "Dx", "--epsilon", eps,
                                 "--algo", algo], capsys)
            assert code == 3, (algo, eps)
            assert json.loads(err)["error"] == "precondition", (algo, eps)
    # every input is over F_p: --ext is refused by argparse, and a system
    # file's "ext" key, whatever its value, is refused, not ignored
    with pytest.raises(SystemExit) as e:
        cli.main(["--p", "5", "--op", "Dx", "--ext", "2"])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    path = tmp_path / "sys.json"
    for key, value in (("p", "5"), ("p", True), ("p", 5.0), ("ext", 1),
                       ("ext", 2), ("ext", "2"), ("ext", None), ("f_A", 1),
                       ("A_tilde", "x"), ("A_tilde", [[1]])):
        doc = {"p": 5, "f_A": "1", "A_tilde": [["x"]], key: value}
        path.write_text(json.dumps(doc))
        code, _, err = _run(["--system", str(path)], capsys)
        assert code == 2, (key, value)
        assert json.loads(err)["error"] == "bad-system-file", (key, value)
    path.write_text(json.dumps([5, 1]))
    code, _, err = _run(["--system", str(path)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "bad-system-file"


def test_deep_nesting_is_a_syntax_error(tmp_path, capsys):
    # the parser recurses once per parenthesis: 3,000 levels, in operator
    # text or in a system file's polynomial, are a typed syntax error
    deep = "(" * 3000 + "x" + ")" * 3000
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"p": 5, "f_A": deep, "A_tilde": [["x"]]}))
    for argv in (["--p", "5", "--op", deep + "*Dx"], ["--system", str(path)]):
        code, _, err = _run(argv, capsys)
        assert code == 2
        assert json.loads(err)["error"] == "syntax"
    # unclosed, at every depth and from 0-4 extra frames, so that the
    # limit falls on each frame of a level, the end token's read included
    def parse_below(frames, text):
        if frames:
            return parse_below(frames - 1, text)
        return cli.parse_operator(text, F5)

    for frames in range(5):
        # a level is 5 frames, so the limit falls within this many levels
        for n in range(1, sys.getrecursionlimit() // 5 + 2):
            with pytest.raises(OperatorSyntaxError):
                parse_below(frames, "(" * n)


def test_nesting_limit_holds_at_any_stack_depth(capsys):
    # MAX_PARSED_DEPTH levels parse, and one more is refused at its own
    # "(", alike from 0-4 extra caller frames, from main and from a fresh
    # pcurv process
    depth = cli.MAX_PARSED_DEPTH

    def text(n):
        return "(" * n + "x" + ")" * n + "*Dx"

    def parse_below(frames, text):
        if frames:
            return parse_below(frames - 1, text)
        return cli.parse_operator(text, F5)

    refusals = set()
    for frames in range(5):
        assert parse_below(frames, text(depth)).coeffs == ((), (0, 1))
        with pytest.raises(OperatorSyntaxError) as e:
            parse_below(frames, text(depth + 1))
        refusals.add((str(e.value), e.value.position))
    assert refusals == {(f"parentheses nest deeper than {depth} "
                         f"(at position {depth})", depth)}
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    codes = []
    for n in (depth, depth + 1):
        argv = ["--p", "5", "--op", text(n)]
        code, out, err = _run(argv, capsys)
        fresh = subprocess.run(
            [sys.executable, "-m", "pcurvature.cli", *argv], env=env,
            capture_output=True, text=True, timeout=60)
        assert (fresh.returncode, fresh.stderr) == (code, err)
        if code == 0:
            assert json.loads(fresh.stdout)["factors"] == json.loads(
                out)["factors"]
        codes.append(code)
    assert codes == [0, 2]
    assert json.loads(err)["position"] == depth


def test_deeply_nested_system_file_is_a_system_file_error(tmp_path,
                                                          capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, _, err = _run(["--system", str(path)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "bad-system-file"


def test_make_field_refuses_extension_degree_below_one():
    # every input is over F_p: any extension degree other than 1 is refused
    for ext in (0, -1, 2):
        with pytest.raises(ExtensionDegreeOutOfRange):
            cli.make_field(5, ext)


@pytest.mark.parametrize("text, position", [("x^1000000000", 1),
                                            ("Dx^1000000000", 2),
                                            ("(x^60000)*(x^60000)", 9)])
def test_parsed_degree_cap(text, position, capsys):
    t0 = time.perf_counter()
    code, _, err = _run(["--p", "5", "--op", text], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "syntax"
    assert doc["position"] == position
    assert "exceeds the limit" in doc["message"]


def test_main_error_reports_are_machine_readable(capsys):
    code, _, err = _run(["--p", "5", "--op", "Dx + @"], capsys)
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "syntax"
    assert doc["position"] == 5


def test_result_document_round_trips(capsys):
    code, out, _ = _run(["--p", "7", "--op", "(x^2+1)*Dx - (3*x)",
                         "--check", "--profile"], capsys)
    assert code == 0
    doc = cli.ResultDocument(**json.loads(out))
    assert doc.to_json() == out.strip()
    assert_frozen_record(doc, hashable=False)
    bare = doc._replace(profile=None, check=None)
    assert cli.ResultDocument(*bare[:5]) == bare
    assert json.loads(bare.to_json())["check"] is None


def test_run_records_are_frozen_named_tuples():
    flags = cli.RunFlags()
    assert flags == cli.RunFlags(algo="det", epsilon=0.1, seed=None,
                                 check=False, profile=False)
    assert_frozen_record(flags)
    spec = cli.InputSpec(p=7, kind="operator", payload="Dx + x")
    assert_frozen_record(spec)
    p, kind, payload = spec
    assert spec != spec._replace(p=11)
    doc = cli.run(spec, flags._replace(algo="mc", epsilon=0.1, seed=1,
                                       profile=True))
    assert doc.input == spec._asdict()
    assert doc.params["mode"] == "montecarlo" and doc.profile is not None


def test_montecarlo_defaults_at_the_library_entry_points(monkeypatch,
                                                        capsys):
    # run takes the epsilon pcurv takes when --epsilon is not given
    text = "(x^2+1)*Dx^2 + x*Dx + 1"
    spec = cli.InputSpec(p=11, kind="operator", payload=text)
    doc = cli.run(spec, cli.RunFlags(algo="mc", seed=3))
    assert doc.params["mode"] == "montecarlo"
    assert doc.params["epsilon"] == 0.1
    code, out, _ = _run(["--p", "11", "--op", text, "--algo", "mc",
                         "--seed", "3"], capsys)
    assert code == 0
    assert json.loads(out)["factors"] == doc.factors
    # a plan with no sample degree is refused as bad input
    select = cli.reconstruct.select_params
    monkeypatch.setattr(cli.reconstruct, "select_params",
                        lambda inp, epsilon=None, seed=None: select(inp))
    code, _, err = _run(["--p", "11", "--op", text, "--algo", "mc"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "bad-input"


def test_system_file_flow(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "p": 5, "f_A": "x^2 + 1",
        "A_tilde": [["x", "1"], ["0", "x^2"]],
    }))
    code, out, _ = _run(["--system", str(path), "--check"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == {"match": True}
    assert doc["input"]["kind"] == "system"

    code2, _, err = _run(["--p", "7", "--system", str(path)], capsys)
    assert code2 == 2
    assert "contradicts" in json.loads(err)["message"]


@pytest.mark.parametrize("flags", [[], ["--p", "5"]])
def test_system_file_is_parsed_once(flags, tmp_path, capsys, monkeypatch):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"p": 5, "f_A": "x^2 + 1",
                                "A_tilde": [["x", "1"], ["0", "x^2"]]}))
    calls = []
    parse = cli._system_from_doc

    def counted(doc, p):
        calls.append(p)
        return parse(doc, p)

    monkeypatch.setattr(cli, "_system_from_doc", counted)
    code, out, _ = _run(["--system", str(path), "--algo", "naive"] + flags,
                        capsys)
    assert code == 0
    assert calls == [5]
    doc = json.loads(out)
    assert doc["input"] == {"p": 5, "kind": "system", "payload": str(path)}


def test_system_file_missing_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 5}))
    assert _run(["--system", str(path)], capsys)[0] == 2


def test_load_system_values():
    import tempfile, os
    doc = {"p": 5, "f_A": "x", "A_tilde": [["2*x + 1"]]}
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as fh:
        json.dump(doc, fh)
        name = fh.name
    try:
        sysv, p = cli.load_system(name)
        assert p == 5
        assert list(sysv.f_A) == [F5.zero, F5.one]
        assert [list(e) for e in sysv.A_tilde[0]] == [[F5.one,
                                                       F5.from_int(2)]]
    finally:
        os.unlink(name)


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_write_failure_is_not_a_system_file_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    with pytest.raises(BrokenPipeError):
        cli.main(["--p", "5", "--op", "Dx + x"])
    assert "bad-system-file" not in capsys.readouterr().err


def test_internal_key_error_is_not_a_system_file_error(monkeypatch, capsys):
    # load_system checks every key it reads, so a KeyError from a run is a
    # fault of the program, not of an input file: it propagates
    def boom(*args, **kwargs):
        raise KeyError("forced inside the det driver")

    monkeypatch.setattr(cli.reconstruct, "reconstruct_deterministic", boom)
    with pytest.raises(KeyError):
        cli.main(["--p", "5", "--op", "Dx + x"])
    assert "bad-system-file" not in capsys.readouterr().err


def test_selection_failure_maps_to_exit_4(monkeypatch, capsys):
    from pcurvature.errors import SelectionFailed

    def boom(*args, **kwargs):
        raise SelectionFailed("forced for the exit-code contract")

    monkeypatch.setattr(cli.reconstruct, "reconstruct_montecarlo", boom)
    code, _, err = _run(["--p", "5", "--op", "Dx", "--algo", "mc"], capsys)
    assert code == 4
    assert json.loads(err)["error"] == "selection-failed"


def test_check_mismatch_maps_to_exit_5(monkeypatch, capsys):
    wrong = [[[F7.one], [F7.one]]]  # pretends the factor is T + 1

    monkeypatch.setattr(cli.diffop, "naive_invariant_factors",
                        lambda sysv, p: wrong)
    code, out, err = _run(["--p", "7", "--op", "Dx", "--check"], capsys)
    assert code == 5
    assert json.loads(out)["check"] == {"match": False}
    assert json.loads(err)["error"] == "check-mismatch"


# Operator text from a small grammar: sums of terms c(x)*Dx^k with c built
# from integers and powers of x, plus a few fragments that are not valid.
_COEFF = st.recursive(
    st.one_of(st.integers(-3, 12).map(str), st.just("x"),
              st.integers(0, 2).map(lambda e: f"x^{e}")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda c: f"-{c}")),
    max_leaves=2)
_TERM = st.one_of(
    _COEFF,
    st.integers(1, 3).map(lambda k: f"Dx^{k}"),
    st.tuples(_COEFF, st.integers(0, 2)).map(lambda t: f"{t[0]}*Dx^{t[1]}"))
_JUNK = st.sampled_from(["", "Dx*x", "x^", "(x", "Dx Dx", "2**x", "y",
                         "Dx^-1", "x^x", "0*Dx"])
_OPERATOR = st.one_of(
    st.lists(_TERM, min_size=1, max_size=3).map(" + ".join),
    st.lists(_TERM, min_size=1, max_size=3).map(" + ".join),
    st.lists(st.one_of(_TERM, _JUNK), min_size=1, max_size=3).map(" + ".join))
_EPSILON = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "1", "-0.5", "2.5", "x"]),
    st.floats(0.01, 0.99).map(repr), st.floats(0.01, 0.99).map(repr))
# Primes are drawn more often, so that most runs get past make_field.
_PRIME = st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                          47, 53, 59])
_CHAR = st.one_of(_PRIME, _PRIME, st.integers(-5, 60))


@given(text=_OPERATOR, p=_CHAR,
       algo=st.sampled_from(["det", "mc", "naive"]), epsilon=_EPSILON,
       seed=st.integers(0, 3), glued=st.booleans())
def test_main_fuzz_exits_with_a_documented_code(text, p, algo, epsilon,
                                                seed, glued):
    # the operator text comes as one word "--op=TEXT" or as two words; the
    # other values use the = form, so that "-1" or "-inf" is not a flag
    op = [f"--op={text}"] if glued else ["--op", text]
    argv = op + [f"--p={p}", f"--algo={algo}", f"--epsilon={epsilon}",
                 f"--seed={seed}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refuses the flag values
            code = e.code
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
