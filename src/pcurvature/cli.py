"""Command line driver: parse inputs, pick an algorithm, emit JSON.

The operator grammar is sums of terms c(x)*Dx^k.  Coefficient arithmetic
(+, -, *, ^, parentheses, integers, x) is ordinary and commutative; the
differential symbol Dx is only allowed as the rightmost factor of a term,
so nothing here ever needs the skew product rule.

Systems arrive as a JSON file {"p":..., "f_A":"...",
"A_tilde":[["...",...],...]} holding polynomial strings, mirroring the
cleared form A = A_tilde / f_A the library works with.  The grammar has
no symbol outside F_p, so every input is solved over F_p: invariant
factors do not change under field extension.

Exit codes: 0 success, 2 parse error, 3 precondition violation, 4 point
selection failed, 5 oracle cross-check mismatch.
"""

import argparse
import json
import sys
import time
from collections import namedtuple

from . import bivar, diffop, fields, polys, reconstruct
from .errors import (CharTooSmall, EpsilonOutOfRange,
                     ExtensionDegreeOutOfRange, NonPrime, OperatorSyntaxError,
                     SelectionFailed, SystemFileError,
                     ZeroLeadingCoefficient, ZeroOperator)

# Largest x-degree or Dx-order a parsed expression may reach; the parser
# refuses a power or product above it before building the dense result.
MAX_PARSED_DEGREE = 10 ** 5
# Deepest parenthesis nesting the parser accepts.  It descends five frames
# a level, so this stays far inside the interpreter's recursion limit from
# any caller.
MAX_PARSED_DEPTH = 100


class InputSpec(namedtuple("InputSpec", "p kind payload")):
    """What to solve, over F_p.  For a system, p may be None (no flag
    given) until run() reads it from the file."""
    __slots__ = ()


class RunFlags(namedtuple("RunFlags", "algo epsilon seed check profile",
                          defaults=("det", 0.1, None, False, False))):
    __slots__ = ()


class ResultDocument(namedtuple(
        "ResultDocument",
        "input algorithm params factors timings profile check",
        defaults=(None, None))):
    __slots__ = ()

    def to_json(self):
        return json.dumps(self._asdict(), indent=2, sort_keys=True)


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
        elif text.startswith("Dx", i):
            toks.append(("Dx", None, i))
            i += 2
        elif ch == "x":
            toks.append(("x", None, i))
            i += 1
        elif ch in "+-*^()":
            toks.append((ch, None, i))
            i += 1
        else:
            raise OperatorSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


def _check_degree(n, what, pos):
    if n > MAX_PARSED_DEGREE:
        raise OperatorSyntaxError(
            f"{what} {n} exceeds the limit {MAX_PARSED_DEGREE}", pos)


class _OpParser:
    """Recursive descent over {Dx-power: coefficient} vectors."""

    def __init__(self, text, K):
        self.K = K
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def _peek(self):
        return self.toks[self.i][0]

    def _next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse(self):
        v = self._sum()
        kind, _, pos = self._next()
        if kind != "end":
            raise OperatorSyntaxError("unexpected trailing input", pos)
        return self._norm(v)

    def _sum(self):
        v = self._signed()
        while self._peek() in ("+", "-"):
            neg = self._next()[0] == "-"
            w = self._signed()
            v = self._add(v, self._neg(w) if neg else w)
        return v

    def _signed(self):
        neg = False
        while self._peek() in ("+", "-"):
            if self._next()[0] == "-":
                neg = not neg
        v = self._product()
        return self._neg(v) if neg else v

    def _product(self):
        v = self._power()
        while self._peek() == "*":
            pos = self._next()[2]
            v = self._mul(v, self._power(), pos)
        return v

    def _power(self):
        v, pos = self._atom()
        if self._peek() == "^":
            pos = self._next()[2]
            kind, e, epos = self._next()
            if kind != "int":
                raise OperatorSyntaxError("exponent must be an integer", epos)
            v = self._pow(v, e, pos)
        return v

    def _atom(self):
        kind, val, pos = self._next()
        K = self.K
        if kind == "int":
            return {0: [K.from_int(val)]}, pos
        if kind == "x":
            return {0: [K.zero, K.one]}, pos
        if kind == "Dx":
            return {1: [K.one]}, pos
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_PARSED_DEPTH:
                raise OperatorSyntaxError(
                    f"parentheses nest deeper than {MAX_PARSED_DEPTH}", pos)
            v = self._sum()
            k2, _, p2 = self._next()
            if k2 != ")":
                raise OperatorSyntaxError("expected a closing parenthesis",
                                          p2)
            self.depth -= 1
            return v, pos
        raise OperatorSyntaxError("expected a term", pos)

    def _norm(self, v):
        out = {}
        for k, c in v.items():
            c = polys.trim(self.K, list(c))
            if c:
                out[k] = c
        return out

    def _add(self, v, w):
        out = dict(v)
        for k, c in w.items():
            out[k] = polys.add(self.K, out.get(k, []), c)
        return out

    def _neg(self, v):
        return {k: polys.neg(self.K, c) for k, c in v.items()}

    def _is_monomial(self, v):
        v = self._norm(v)
        return (len(v) == 1 and polys.deg(next(iter(v.values()))) == 0
                and next(iter(v.values()))[0] == self.K.one)

    def _mul(self, v, w, pos):
        K = self.K
        v, w = self._norm(v), self._norm(w)
        if not v or not w:
            return {}
        if set(v) == {0}:
            top = polys.deg(v[0]) + max(polys.deg(c) for c in w.values())
            _check_degree(top, "x-degree", pos)
            return {k: polys.mul(K, v[0], c) for k, c in w.items()}
        if set(w) == {0} and polys.deg(w[0]) == 0:
            return {k: polys.scale(K, w[0][0], c) for k, c in v.items()}
        if self._is_monomial(v) and self._is_monomial(w):
            order = next(iter(v)) + next(iter(w))
            _check_degree(order, "Dx-order", pos)
            return {order: [K.one]}
        raise OperatorSyntaxError(
            "the differential part must be the last factor of a term", pos)

    def _pow(self, v, e, pos):
        K = self.K
        v = self._norm(v)
        if not v:
            return {0: [K.one]} if e == 0 else {}
        if set(v) == {0}:
            _check_degree(polys.deg(v[0]) * e, "x-degree", pos)
            return {0: polys.poly_pow(K, v[0], e)}
        if self._is_monomial(v):
            _check_degree(next(iter(v)) * e, "Dx-order", pos)
            return {next(iter(v)) * e: [K.one]}
        raise OperatorSyntaxError(
            "cannot raise a differential expression to a power", pos)


def parse_operator(text, field):
    """Operator from the c(x)*Dx^k grammar, coefficients reduced into field."""
    v = _OpParser(text, field).parse()
    top = max(v, default=-1)
    if top < 0:
        raise ZeroOperator("every term of the operator vanishes")
    if top == 0:
        raise ZeroOperator("no differential part: the operator is a scalar")
    coeffs = [list(v.get(k, [])) for k in range(top + 1)]
    return diffop.DiffOperator(field, tuple(tuple(c) for c in coeffs))


def parse_polynomial(text, field):
    """Polynomial in x from the same grammar, with Dx rejected."""
    for kind, _, pos in _tokenize(text):
        if kind == "Dx":
            raise OperatorSyntaxError(
                "the differential symbol is not allowed here", pos)
    v = _OpParser(text, field).parse()
    return v.get(0, [])


def make_field(p, ext):
    """F_p, the field of every input; any extension degree ext other
    than 1 is refused."""
    if not fields.is_prime(p):
        raise NonPrime(f"characteristic must be prime, got {p}")
    if ext != 1:
        raise ExtensionDegreeOutOfRange(
            f"inputs are over F_p: extension degree must be 1, got {ext}")
    return fields.PrimeField(p)


def _system_from_doc(doc, p):
    K = make_field(p, 1)
    f_A = parse_polynomial(doc["f_A"], K)
    A = [[parse_polynomial(e, K) for e in row] for row in doc["A_tilde"]]
    return diffop.DiffSystem(K, tuple(f_A),
                             tuple(tuple(tuple(e) for e in row) for row in A))


def load_system(path, p=None):
    """DiffSystem from the JSON file; --p may repeat it but not contradict."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise SystemFileError("the system file nests too deeply") from None
    if not isinstance(doc, dict):
        raise SystemFileError("the system file must hold a JSON object")
    if "ext" in doc:
        raise SystemFileError('"ext" is not a system file key: every input '
                              'is over F_p')
    file_p = doc.get("p")
    # bool is a subclass of int, so compare the exact type
    if file_p is not None and type(file_p) is not int:
        raise SystemFileError(f'"p" must be an integer, got {file_p!r}')
    rows = doc.get("A_tilde")
    if not (isinstance(doc.get("f_A"), str) and isinstance(rows, list)
            and all(isinstance(row, list)
                    and all(isinstance(e, str) for e in row)
                    for row in rows)):
        raise SystemFileError('"f_A" must be a string and "A_tilde" a list '
                              'of rows of polynomial strings')
    if p is not None and file_p is not None and p != file_p:
        raise ValueError(f"--p {p} contradicts the system file (p = {file_p})")
    p = file_p if file_p is not None else p
    if p is None:
        raise ValueError("no characteristic: pass --p or put p in the file")
    return _system_from_doc(doc, p), p


def _parse_input(spec):
    """The input of spec, and spec with p read from a system file."""
    if spec.kind == "system":
        sysv, p = load_system(spec.payload, spec.p)
        return sysv, spec._replace(p=p)
    K = make_field(spec.p, 1)
    return parse_operator(spec.payload, K), spec


def _format_factors(K, factors):
    return [bivar.format_bivar(K, f) for f in factors]


def _as_system(inp):
    if isinstance(inp, diffop.DiffOperator):
        return diffop.companion_of_operator(inp)
    return inp


def run(spec, flags):
    """Compute the invariant factors the flags ask for, as a document."""
    t0 = time.perf_counter()
    inp, spec = _parse_input(spec)
    K = inp.K
    t_parse = time.perf_counter() - t0

    params = {"mode": "naive"}
    t0 = time.perf_counter()
    # only mc reads epsilon, but no driver accepts a bad one
    reconstruct.check_epsilon(flags.epsilon)
    if flags.algo == "naive":
        factors = diffop.naive_invariant_factors(_as_system(inp), spec.p)
    else:
        eps = flags.epsilon if flags.algo == "mc" else None
        pub = reconstruct.select_params(inp, epsilon=eps, seed=flags.seed)
        eff = reconstruct.effective_params(inp, pub)
        params = eff._asdict()
        if flags.algo == "mc":
            factors = reconstruct.reconstruct_montecarlo(inp, spec.p, pub)
        else:
            factors = reconstruct.reconstruct_deterministic(inp, spec.p, pub)
    t_compute = time.perf_counter() - t0

    timings = {"parse_s": round(t_parse, 6), "compute_s": round(t_compute, 6)}
    strings = _format_factors(K, factors)

    check = None
    if flags.check:
        t0 = time.perf_counter()
        if flags.algo == "naive":
            fast = reconstruct.reconstruct_deterministic(inp, spec.p)
            ref = factors
        else:
            fast = factors
            ref = diffop.naive_invariant_factors(_as_system(inp), spec.p)
        check = {"match": _format_factors(K, fast) == _format_factors(K, ref)}
        timings["check_s"] = round(time.perf_counter() - t0, 6)

    profile = None
    if flags.profile:
        from . import nilprofile
        profile = list(nilprofile.profile_from_invariant_factors(factors).ranks)

    return ResultDocument(
        input=spec._asdict(),
        algorithm=flags.algo,
        params=params,
        factors=strings,
        timings=timings,
        profile=profile,
        check=check,
    )


def _emit_error(code, exc):
    doc = {"error": code, "message": str(exc)}
    if isinstance(exc, OperatorSyntaxError):
        doc["position"] = exc.position
    print(json.dumps(doc), file=sys.stderr)


def _glue_operator_text(argv):
    """argv with each `--op TEXT` written as `--op=TEXT`.

    argparse reads a word that starts with "-" as an option, so operator
    text such as "-x*Dx+1" after a separate `--op` would be refused.
    """
    out = []
    words = iter(argv)
    for w in words:
        text = next(words, None) if w == "--op" else None
        out.append(w if text is None else f"--op={text}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="pcurv",
        description="Invariant factors of the p-curvature of a linear "
                    "differential operator or system over F_p(x).")
    ap.add_argument("--p", type=int, help="prime characteristic")
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--op", help="operator text, e.g. 'x*Dx^2 + Dx + 1'")
    src.add_argument("--system", help="path to a system JSON file")
    ap.add_argument("--algo", choices=["det", "mc", "naive"], default="det")
    epsilon = RunFlags._field_defaults["epsilon"]
    ap.add_argument("--epsilon", type=float, default=epsilon,
                    help=f"Monte Carlo error budget (default {epsilon})")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--check", action="store_true",
                    help="also run the naive oracle and compare")
    ap.add_argument("--profile", action="store_true",
                    help="emit the rank profile of the nilpotent part")
    args = ap.parse_args(_glue_operator_text(
        sys.argv[1:] if argv is None else argv))

    if args.op is not None and args.p is None:
        ap.error("--p is required with --op")
    kind = "operator" if args.op is not None else "system"
    payload = args.op if args.op is not None else args.system
    spec = InputSpec(p=args.p, kind=kind, payload=payload)
    flags = RunFlags(algo=args.algo, epsilon=args.epsilon, seed=args.seed,
                     check=args.check, profile=args.profile)
    try:
        doc = run(spec, flags)
    except OperatorSyntaxError as e:
        _emit_error("syntax", e)
        return 2
    except (ZeroOperator, ZeroLeadingCoefficient) as e:
        _emit_error("bad-input", e)
        return 2
    except (json.JSONDecodeError, OSError, SystemFileError) as e:
        _emit_error("bad-system-file", e)
        return 2
    except (NonPrime, CharTooSmall, EpsilonOutOfRange) as e:
        _emit_error("precondition", e)
        return 3
    except SelectionFailed as e:
        _emit_error("selection-failed", e)
        return 4
    except ValueError as e:
        _emit_error("bad-input", e)
        return 2

    # outside the try: a failed write (say, a closed pipe) is not an input
    # error, so it must not be reported as one
    print(doc.to_json())
    if doc.check is not None and not doc.check["match"]:
        _emit_error("check-mismatch",
                    ValueError("fast and naive outputs differ"))
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
