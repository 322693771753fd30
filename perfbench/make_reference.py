"""Re-derive the reference factors that run.py checks every solve against.

    PYTHONPATH=src python3 perfbench/make_reference.py

For each workload in spec.json, both drivers (det, and mc with epsilon 0.1
and seed 1) run at the workload's prime and must give the stored
reference.  The O(p) oracle that `pcurv --check` uses must agree with both
drivers on the same inputs at p = 103, a small prime = 3 mod 4 like the
workload primes.  Exits 1 on any disagreement.  Takes about 20 s.
"""

import json
import sys
from pathlib import Path

from pcurvature import bivar, diffop, reconstruct

sys.path.insert(0, str(Path(__file__).resolve().parent))
from solve import build_input  # noqa: E402

ORACLE_P = 103


def solve(inp, p, driver):
    if driver == "naive":
        sysform = (inp if isinstance(inp, diffop.DiffSystem)
                   else diffop.companion_of_operator(inp))
        factors = diffop.naive_invariant_factors(sysform, p)
    elif driver == "mc":
        params = reconstruct.select_params(inp, epsilon=0.1, seed=1)
        factors = reconstruct.reconstruct_montecarlo(inp, p, params)
    else:
        factors = reconstruct.reconstruct_deterministic(inp, p)
    return [bivar.format_bivar(inp.K, f) for f in factors]


def main():
    with open(Path(__file__).resolve().parent / "spec.json") as fh:
        workloads = json.load(fh)["workloads"]
    bad = 0
    for name, w in workloads.items():
        checks = [(w["p"], ("det", "mc")), (ORACLE_P, ("naive", "det", "mc"))]
        for p, drivers in checks:
            inp = build_input(dict(w, p=p))
            got = {d: solve(inp, p, d) for d in drivers}
            agree = all(v == w["reference"] for v in got.values())
            bad += not agree
            print(f"{name} p={p}: " + "; ".join(
                f"{d} {v}" for d, v in got.items())
                + ("" if agree else "  MISMATCH"), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
