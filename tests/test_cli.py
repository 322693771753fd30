import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcurvature import cli, diffop, fields
from pcurvature.errors import OperatorSyntaxError, ZeroOperator

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
    assert _run(["--p", "5", "--op", "Dx", "--epsilon", "2.0",
                 "--algo", "mc"], capsys)[0] == 3
    assert _run(["--p", "5", "--ext", "0", "--op", "Dx"], capsys)[0] == 3
    assert _run(["--p", "5", "--ext", "-1", "--op", "Dx"], capsys)[0] == 3
    path = tmp_path / "ext0.json"
    path.write_text(json.dumps({"p": 5, "ext": 0, "f_A": "1",
                                "A_tilde": [["x"]]}))
    code, _, err = _run(["--system", str(path)], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "precondition"
    for key, value in (("p", "5"), ("p", True), ("p", 5.0), ("ext", "2"),
                       ("ext", True), ("ext", None), ("f_A", 1),
                       ("A_tilde", "x"), ("A_tilde", [[1]])):
        doc = {"p": 5, "ext": 1, "f_A": "1", "A_tilde": [["x"]], key: value}
        path.write_text(json.dumps(doc))
        code, _, err = _run(["--system", str(path)], capsys)
        assert code == 2, (key, value)
        assert json.loads(err)["error"] == "bad-system-file", (key, value)
    path.write_text(json.dumps([5, 1]))
    code, _, err = _run(["--system", str(path)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "bad-system-file"
    # an explicit --ext 1 is a flag like any other, not "no flag"
    path.write_text(json.dumps({"p": 5, "ext": 2, "f_A": "1",
                                "A_tilde": [["x"]]}))
    for ext in ("1", "3"):
        code, _, err = _run(["--system", str(path), "--ext", ext], capsys)
        assert code == 2, ext
        assert json.loads(err)["error"] == "bad-input", ext


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


def test_system_file_flow(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "p": 5, "ext": 1, "f_A": "x^2 + 1",
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


@pytest.mark.parametrize("flags", [[], ["--p", "5"], ["--ext", "2"]])
def test_system_file_is_parsed_once(flags, tmp_path, capsys, monkeypatch):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"p": 5, "ext": 2, "f_A": "x^2 + 1",
                                "A_tilde": [["x", "1"], ["0", "x^2"]]}))
    calls = []
    parse = cli._system_from_doc

    def counted(doc, p, ext):
        calls.append((p, ext))
        return parse(doc, p, ext)

    monkeypatch.setattr(cli, "_system_from_doc", counted)
    code, out, _ = _run(["--system", str(path), "--algo", "naive"] + flags,
                        capsys)
    assert code == 0
    assert calls == [(5, 2)]
    doc = json.loads(out)
    assert (doc["input"]["p"], doc["input"]["ext"]) == (5, 2)


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
        sysv, p, ext = cli.load_system(name)
        assert (p, ext) == (5, 1)
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
# Primes are drawn more often, so that most runs get past make_field.  Over
# F_(p^2) with p <= 7 a run takes a few seconds at most (det on an order-3
# operator over F_49: about 1 s, 2.6 s with coefficients of degree 4); the
# naive oracle over F_(59^2) is still slow, so extension degrees above 1
# come with p <= 7 only.
_PRIME = st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                          47, 53, 59])
_FIELD = st.one_of(
    st.tuples(_PRIME, st.just(1)),
    st.tuples(_PRIME, st.just(1)),
    st.tuples(st.integers(-5, 60), st.integers(-1, 1)),
    st.tuples(st.sampled_from([2, 3, 4]), st.integers(2, 3)),
    st.tuples(st.sampled_from([5, 7]), st.just(2)))


@given(text=_OPERATOR, field=_FIELD,
       algo=st.sampled_from(["det", "mc", "naive"]), epsilon=_EPSILON,
       seed=st.integers(0, 3), glued=st.booleans())
def test_main_fuzz_exits_with_a_documented_code(text, field, algo, epsilon,
                                                seed, glued):
    p, ext = field
    # the operator text comes as one word "--op=TEXT" or as two words; the
    # other values use the = form, so that "-1" or "-inf" is not a flag
    op = [f"--op={text}"] if glued else ["--op", text]
    argv = op + [f"--p={p}", f"--ext={ext}", f"--algo={algo}",
                 f"--epsilon={epsilon}", f"--seed={seed}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refuses the flag values
            code = e.code
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
