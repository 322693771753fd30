"""Command line driver: parse inputs, pick an algorithm, emit JSON or CSV.

The operator grammar is sums of terms c(x)*Dx^k.  Coefficient arithmetic
(+, -, *, ^, parentheses, integers, x) is ordinary and commutative; the
differential symbol Dx is only allowed as the rightmost factor of a term,
so nothing here ever needs the skew product rule.

Systems arrive as a JSON file {"p":..., "ext":..., "f_A":"...",
"A_tilde":[["...",...],...]} holding polynomial strings, mirroring the
cleared form A = A_tilde / f_A the library works with.

Exit codes: 0 success, 2 parse error, 3 precondition violation, 4 point
selection failed, 5 oracle cross-check mismatch.
"""

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass

from . import bivar, diffop, fields, nilprofile, polys, reconstruct
from .errors import (CharTooSmall, EpsilonOutOfRange,
                     ExtensionDegreeOutOfRange, NonPrime, OperatorSyntaxError,
                     SelectionFailed, SystemFileError,
                     ZeroLeadingCoefficient, ZeroOperator)

# Largest x-degree or Dx-order a parsed expression may reach; the parser
# refuses a power or product above it before building the dense result.
MAX_PARSED_DEGREE = 10 ** 5


@dataclass(frozen=True)
class InputSpec:
    """What to solve.  For a system, p and ext may be None (no flag given)
    until run() reads them from the file."""
    p: int
    ext: int
    kind: str
    payload: str


@dataclass(frozen=True)
class RunFlags:
    algo: str = "det"
    epsilon: float = None
    seed: int = None
    check: bool = False
    profile: bool = False


@dataclass(frozen=True)
class ResultDocument:
    input: dict
    algorithm: str
    params: dict
    factors: list
    timings: dict
    profile: list = None
    check: dict = None

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


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
            v = self._sum()
            k2, _, p2 = self._next()
            if k2 != ")":
                raise OperatorSyntaxError("expected a closing parenthesis",
                                          p2)
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
    if not fields.is_prime(p):
        raise NonPrime(f"characteristic must be prime, got {p}")
    if ext < 1:
        raise ExtensionDegreeOutOfRange(
            f"extension degree must be at least 1, got {ext}")
    K = fields.PrimeField(p)
    if ext > 1:
        K = fields.ExtensionField(K, fields.find_irreducible(K, ext))
    return K


def _system_from_doc(doc, p, ext):
    K = make_field(p, ext)
    f_A = parse_polynomial(doc["f_A"], K)
    A = [[parse_polynomial(e, K) for e in row] for row in doc["A_tilde"]]
    return diffop.DiffSystem(K, tuple(f_A),
                             tuple(tuple(tuple(e) for e in row) for row in A))


def load_system(path, p=None, ext=None):
    """DiffSystem from the JSON file; flags may repeat but not contradict."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SystemFileError("the system file must hold a JSON object")
    file_p = doc.get("p")
    file_ext = doc.get("ext", 1)
    # bool is a subclass of int, so compare the exact type
    if file_p is not None and type(file_p) is not int:
        raise SystemFileError(f'"p" must be an integer, got {file_p!r}')
    if type(file_ext) is not int:
        raise SystemFileError(f'"ext" must be an integer, got {file_ext!r}')
    rows = doc.get("A_tilde")
    if not (isinstance(doc.get("f_A"), str) and isinstance(rows, list)
            and all(isinstance(row, list)
                    and all(isinstance(e, str) for e in row)
                    for row in rows)):
        raise SystemFileError('"f_A" must be a string and "A_tilde" a list '
                              'of rows of polynomial strings')
    if p is not None and file_p is not None and p != file_p:
        raise ValueError(f"--p {p} contradicts the system file (p = {file_p})")
    if ext is not None and ext != file_ext:
        raise ValueError(f"--ext {ext} contradicts the system file "
                         f"(ext = {file_ext})")
    p = file_p if file_p is not None else p
    if p is None:
        raise ValueError("no characteristic: pass --p or put p in the file")
    return _system_from_doc(doc, p, file_ext), p, file_ext


def _parse_input(spec):
    """The input of spec, and spec with p and ext read from a system file."""
    if spec.kind == "system":
        sysv, p, ext = load_system(spec.payload, spec.p, spec.ext)
        return sysv, dataclasses.replace(spec, p=p, ext=ext)
    K = make_field(spec.p, spec.ext)
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
    if flags.algo == "naive":
        factors = diffop.naive_invariant_factors(_as_system(inp), spec.p)
    else:
        eps = flags.epsilon if flags.algo == "mc" else None
        pub = reconstruct.select_params(inp, epsilon=eps, seed=flags.seed)
        eff = reconstruct.effective_params(inp, pub)
        params = dataclasses.asdict(eff)
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
        profile = list(nilprofile.profile_from_invariant_factors(factors).ranks)

    return ResultDocument(
        input=dataclasses.asdict(spec),
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


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="pcurv",
        description="Invariant factors of the p-curvature of a linear "
                    "differential operator or system over F_q(x).")
    ap.add_argument("--p", type=int, help="prime characteristic")
    ap.add_argument("--ext", type=int, default=1,
                    help="extension degree a, for q = p^a (default 1)")
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--op", help="operator text, e.g. 'x*Dx^2 + Dx + 1'")
    src.add_argument("--system", help="path to a system JSON file")
    ap.add_argument("--algo", choices=["det", "mc", "naive"], default="det")
    ap.add_argument("--epsilon", type=float, default=None,
                    help="Monte Carlo error budget (default 0.1)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--check", action="store_true",
                    help="also run the naive oracle and compare")
    ap.add_argument("--profile", action="store_true",
                    help="emit the rank profile of the nilpotent part")
    args = ap.parse_args(argv)

    if args.op is not None and args.p is None:
        ap.error("--p is required with --op")
    kind = "operator" if args.op is not None else "system"
    payload = args.op if args.op is not None else args.system
    epsilon = args.epsilon if args.epsilon is not None else 0.1

    ext = args.ext
    if args.system is not None and ext == 1:
        ext = None  # the default: the system file decides
    spec = InputSpec(p=args.p, ext=ext, kind=kind, payload=payload)
    flags = RunFlags(algo=args.algo, epsilon=epsilon, seed=args.seed,
                     check=args.check, profile=args.profile)
    try:
        doc = run(spec, flags)
    except OperatorSyntaxError as e:
        _emit_error("syntax", e)
        return 2
    except (ZeroOperator, ZeroLeadingCoefficient) as e:
        _emit_error("bad-input", e)
        return 2
    except (json.JSONDecodeError, KeyError, OSError, SystemFileError) as e:
        _emit_error("bad-system-file", e)
        return 2
    except (NonPrime, ExtensionDegreeOutOfRange, CharTooSmall,
            EpsilonOutOfRange) as e:
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
