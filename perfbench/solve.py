"""One solve of one workload, in a fresh interpreter, as `pcurv` runs it.

Prints one JSON line: the clock reading when set-up ended, the wall time of
the driver call, the formatted factors (or the error raised), the peak
resident memory of this process and the wall time of the reference work,
run after the solve.  With --trace it also wraps the layer entry points,
reports the per-layer summary and writes the spans to a file.
With --setup-only it runs the reference work right after set-up and stops.

Run by run.py with PYTHONPATH pointing at the checkout's src directory.
"""

import argparse
import json
import resource
import sys
import time


def build_input(w):
    """The workload's operator or system over F_p, parsed as pcurv does."""
    from pcurvature import cli, diffop
    K = cli.make_field(w["p"], 1)
    if w["kind"] == "operator":
        return cli.parse_operator(w["operator"], K)
    f_A = cli.parse_polynomial(w["f_A"], K)
    A = [[cli.parse_polynomial(e, K) for e in row] for row in w["A_tilde"]]
    return diffop.DiffSystem(K, tuple(f_A),
                             tuple(tuple(tuple(e) for e in row) for row in A))


def reference_work():
    """Wall time of fixed pure-Python work that calls no pcurvature code:
    schoolbook products of integer polynomials mod a prime, and stores and
    lookups in a tuple-keyed dict of a few MB.  It slows down with the host
    as the solve does, so run.py divides every measured time by it."""
    t0 = time.perf_counter()
    for n, p, reps in ((64, 1000003, 120), (580, 10007, 1)):
        a = [(i * 7919 + 13) % p for i in range(n)]
        b = [(i * 104729 + 7) % p for i in range(n)]
        for _ in range(reps):
            c = [0] * (2 * n - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    c[i + j] = (c[i + j] + x * y) % p
    d = {}
    for i in range(60000):
        d[(i * 7919 % 65521, i & 255)] = i
    for i in range(60000):
        d.get((i * 104729 % 65521, i & 255), 0)
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="workload JSON object")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out", help="trace this solve; spans go here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    w = json.loads(args.spec)

    import pcurvature
    from pcurvature import bivar, reconstruct
    inp = build_input(w)
    eps = w["epsilon"] if w["driver"] == "mc" else None
    seed = args.seed if w["driver"] == "mc" else None
    params = reconstruct.select_params(inp, epsilon=eps, seed=seed)
    out = {"setup_done": time.perf_counter(), "package": pcurvature.__file__}
    if args.setup_only:
        out["ref_s"] = reference_work()
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # looked up after install, so a traced run calls the wrapper
    solve = (reconstruct.reconstruct_montecarlo if w["driver"] == "mc"
             else reconstruct.reconstruct_deterministic)
    t0 = time.perf_counter()
    try:
        factors = solve(inp, w["p"], params)
    except Exception as e:  # counted as a failed solve by the caller
        out["error"] = f"{type(e).__name__}: {e}"
    else:
        out["factors"] = [bivar.format_bivar(inp.K, f) for f in factors]
    out["solve_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    # after the peak is read, so that its dict does not count in it
    out["ref_s"] = reference_work()
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["extension_degree"] = tracer.extension_degree
        out["matrix_size"] = tracer.matrix_size
        tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
