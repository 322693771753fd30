"""`pcurv` on a fixed corpus of runs, one line per run, for diffing.

Each line is a JSON object holding the argv, the exit code, the stdout
document without its timings, and stderr.  Run the script on two
checkouts and diff the outputs to see whether a change moved any result:

    PYTHONPATH=src python scripts/cli_corpus.py > after.txt

System inputs are written as JSON files to a temporary directory, which
the output names $TMP.  The corpus covers both drivers and the oracle,
--check and --profile, operators and systems, inputs with and without
cyclic local classes, and the error exits 2 and 3, including flags that
argparse refuses.
"""

import argparse
import contextlib
import io
import json
import os
import tempfile

from pcurvature import cli

L = "(x^2+1)*Dx^2 + x*Dx + 1"
ORDER3 = "(x^3+x+1)*Dx^3 + x^2*Dx^2 + (x+2)*Dx + x^3"
OP22 = "(x^2+x+1)*Dx^2 + Dx + x^2 + 1"
TOWER3 = "Dx^3 + -(4 + x^2)*Dx^1 + -(3+x^2)"


def _systems(p_sym2, p_sym2_gauss):
    """System files by name: the companion system of L, diag(x, x),
    diag(x, x, x^2 + 3), diag(x, 0) and the constant diag(2, 2), none
    holding p, the symmetric square of the Gauss system at each p of
    p_sym2, and it beside the Gauss system, block-diagonal, at each p of
    p_sym2_gauss."""
    out = {
        "companion": {"f_A": "x^2+1", "A_tilde": [["0", "x^2+1"],
                                                  ["-1", "-x"]]},
        "diag2": {"f_A": "x^2+1", "A_tilde": [["x", "0"], ["0", "x"]]},
        "diag3": {"f_A": "x^2+1", "A_tilde": [["x", "0", "0"],
                                              ["0", "x", "0"],
                                              ["0", "0", "x^2+3"]]},
        "diag_x_0": {"f_A": "1", "A_tilde": [["x", "0"], ["0", "0"]]},
        "const2": {"f_A": "1", "A_tilde": [["2", "0"], ["0", "2"]]},
    }
    f = "(x - x^2)"

    def sym2(p):
        return [["0", f"2*{f}", "0"], [str(pow(4, -1, p)), "2*x - 1", f],
                ["0", str(pow(2, -1, p)), "4*x - 2"]]
    for p in p_sym2:
        out[f"sym2_{p}"] = {"p": p, "f_A": f, "A_tilde": sym2(p)}
    for p in p_sym2_gauss:
        out[f"sym2_gauss_{p}"] = {"p": p, "f_A": f, "A_tilde": [
            row + ["0", "0"] for row in sym2(p)] + [
            ["0", "0", "0", "0", f],
            ["0", "0", "0", str(pow(4, -1, p)), "2*x - 1"]]}
    return out


def _op(p, text, *flags):
    return ["--p", str(p), "--op", text, *flags]


def _sys(name, *flags):
    return ["--system", f"$TMP/{name}.json", *flags]


def _mc(seed, *flags):
    return ["--algo", "mc", "--seed", str(seed), *flags]


CORPUS = [
    _op(1019, L),
    _op(2003, L, *_mc(11)),
    _op(103, L, *_mc(5, "--epsilon", "0.3")),
    _op(103, L, "--algo", "naive"),
    _op(101, L, "--check"),
    _op(101, L, *_mc(2, "--check")),
    _op(101, L, "--algo", "naive", "--check"),
    _op(7, "(x^2+1)*Dx - (3*x)", "--profile"),
    _op(11, "x*Dx^2 + Dx + 1", "--profile", "--check"),
    _sys("companion", "--p", "263"),
    _sys("companion", "--p", "263", *_mc(3, "--profile")),
    _sys("companion", "--p", "263", "--algo", "naive", "--check"),
    _op(5, L, "--ext", "2"),
    _op(5, L, "--check"),
    _op(5, TOWER3, "--check"),
    _op(5, "Dx + @"),
    _op(3, "3*Dx"),
    _op(4, "Dx"),
    _op(3, "Dx^3 + x"),
    _op(5, "Dx", "--algo", "mc", "--epsilon", "2.0"),
    _sys("sym2_1009"),
    _sys("sym2_1009", *_mc(1)),
    _op(251, L),
    _op(65539, L),
    _op(65539, L, *_mc(7)),
    _op(4099, L, *_mc(4)),
    _sys("diag2", "--p", "31"),
    _sys("diag2", "--p", "31", *_mc(1)),
    _sys("diag2", "--p", "1019"),
    _sys("diag2", "--p", "1019", *_mc(1)),
    _sys("diag3", "--p", "31"),
    _sys("diag3", "--p", "31", *_mc(1)),
    _sys("diag3", "--p", "1019"),
    _sys("diag3", "--p", "1019", *_mc(1)),
    _op(3, L, "--check"),
    _op(7, L, "--check"),
    _op(11, L, "--check"),
    _op(103, L, "--check"),
    _op(101, ORDER3, "--check"),
    _op(101, ORDER3, *_mc(1)),
    _sys("sym2_31", "--check"),
    _sys("sym2_31", *_mc(1)),
    _sys("sym2_37", "--check"),
    _sys("sym2_37", *_mc(1)),
    _op(11, L, *_mc(0, "--epsilon", "0.2")),
    _op(11, OP22, *_mc(1, "--epsilon", "0.2")),
    _sys("diag_x_0", "--p", "11", *_mc(0, "--check")),
    _sys("diag_x_0", "--p", "101", "--check"),
    # D = 0: the certified pass, det's budget and mc's draw are each one
    # point
    _op(10007, "Dx^2 + 3*Dx + 1", "--check"),
    _op(10007, "Dx^2 + 3*Dx + 1", *_mc(1, "--check")),
    _sys("const2", "--p", "1019", "--check"),
    _sys("const2", "--p", "1019", *_mc(1, "--check")),
    _op(65539, "Dx^3 + Dx + 5"),
    # sym2 + Gauss, never cyclic: det's budget takes 126 points of degree
    # 2, and mc at 101 draws 15 of degree 2
    _sys("sym2_gauss_31", "--check"),
    _sys("sym2_gauss_101", *_mc(1)),
    # lifts from points of degree 3 at p = 2 (the plan's s = 4 is never
    # drawn: the certified pass is cyclic), and from points of degree 4,
    # each one 4 x 4 elimination
    _op(2, "x^3*Dx+1", *_mc(3)),
    _sys("diag_x_0", "--p", "3", *_mc(3)),
]


def run(argv, tmp):
    """One line for `pcurv argv`, with $TMP standing for tmp."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([a.replace("$TMP", tmp) for a in argv])
        except SystemExit as e:  # argparse refuses the flags
            code = e.code
    doc = out.getvalue()
    if doc:
        doc = json.loads(doc)
        doc.pop("timings", None)
    line = json.dumps({"argv": argv, "exit": code, "stdout": doc,
                       "stderr": err.getvalue()})
    return line.replace(tmp, "$TMP")


def main():
    ap = argparse.ArgumentParser(
        description="print pcurv's output on a fixed corpus, one line a run")
    ap.add_argument("--first", type=int, default=None,
                    help="run only the first N entries")
    args = ap.parse_args()
    # argparse wraps the usage text of a refused flag to $COLUMNS
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in _systems((31, 37, 1009), (31, 101)).items():
            with open(os.path.join(tmp, f"{name}.json"), "w") as fh:
                json.dump(doc, fh)
        for argv in CORPUS[:args.first]:
            print(run(argv, tmp), flush=True)


if __name__ == "__main__":
    main()
