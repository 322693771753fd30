"""pcurvature benchmark: cold-process det/mc solve time, with a traced split.

    python3 perfbench/run.py --workload det-op --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --selftest

Each solve runs solve.py in a fresh interpreter, as one `pcurv` invocation
does, so the caches of fields and interp start empty every time.  Solves
run one after another, never in parallel.  Every answer is checked against
the reference factors in spec.json; a solve that raises or differs counts
as failed.

--trace 0 solves repeatedly until --seconds have gone by and reports the
end-to-end metrics of BENCHMARK.json: median solve time, median set-up
time (interpreter start, import, input and parameter set-up; also sampled
by a set-up-only process before each solve), median peak RSS and the
share of solves that succeeded.  Both times are given at reference host
speed: the children also time solve.reference_work, and every time
measured is scaled by REF_WORK_S / the reference time around it (see
REF_WORK_S).  The wall medians are printed beside them.  --trace 1 runs
a traced, an untraced and a traced solve and reports the per-layer
metrics in wall seconds; the two traced solves must give identical
counts.  Spans are written to perfbench/out/.  The last line of standard
output is the JSON result.

--selftest checks the benchmark itself: a wrong reference is reported as a
failure, and two consecutive traced solves of each workload give the same
counts (a cache that survived from one solve to the next would cut
fields.is_irreducible.calls on the second).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

RUN_LIMIT_S = 170       # every child is stopped before the run passes this
# The speed of a shared host drifts: runs of the same code minutes apart
# differ by up to a factor of 2 in wall time, and a pure-Python loop slows
# with them.  Dividing a time by the reference work timed moments before and
# after it cancels that drift; REF_WORK_S (the median time of
# solve.reference_work on the 2-core x86-64 VM the baseline was measured
# on) turns the ratio back into seconds at that host's usual speed.
REF_WORK_S = 0.13


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a child that fails
    to start or prints no result)."""


def load_spec():
    with open(HERE / "spec.json") as fh:
        spec = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return spec, bench


def run_child(w, seed, deadline, trace_out=None, setup_only=False):
    """One fresh interpreter running solve.py; its result plus set-up time."""
    cmd = [sys.executable, str(HERE / "solve.py"), "--spec", json.dumps(w),
           "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("time limit reached before the next solve")
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"solve did not finish within {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"solve.py exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    res = json.loads(lines[-1])
    if Path(res["package"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported pcurvature from {res['package']}, "
                         f"not from {SRC}")
    res["setup_s"] = res["setup_done"] - t_spawn
    return res


def judge(res, reference):
    """None for a correct solve, else the reason it failed."""
    if "error" in res:
        return res["error"]
    if res["factors"] != reference:
        return f"factors {res['factors']} differ from {reference}"
    return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def layer_metrics(res, driver):
    """Per-layer metrics of one traced solve, named as in BENCHMARK.json."""
    L = res["layers"]

    def calls(name):
        return L[name]["calls"]

    def secs(name):
        return L[name]["s"]

    evals = calls("local_eval.invariant_factors_at")
    # mc glues its chosen points through one minimal polynomial each;
    # det uses its single point by construction
    used = calls("fields.minimal_polynomial") if driver == "mc" else evals
    irr = calls("fields.is_irreducible")
    return {
        "fields.find_irreducible.s": secs("fields.find_irreducible"),
        "fields.is_irreducible.calls": irr,
        # no candidate tested means nothing was wasted
        "fields.irreducible_hit_ratio": 1.0 / irr if irr else 1.0,
        "fields.extension_degree": res["extension_degree"],
        "fields.sampling.calls": L["fields.sampling"]["calls"],
        "linalg.matpoly_mul.s": secs("linalg.matpoly_mul"),
        "linalg.matpoly_mul.calls": calls("linalg.matpoly_mul"),
        "linalg.matmul.s": secs("linalg.matmul"),
        "linalg.matmul.calls": calls("linalg.matmul"),
        "linalg.matrix_factorial.s": secs("linalg.matrix_factorial"),
        "linalg.matrix_factorial.calls": calls("linalg.matrix_factorial"),
        "linalg.matrix_factorial.self_s":
            L["linalg.matrix_factorial"]["self_s"],
        "linalg.invariant_factors_of.s": secs("linalg.invariant_factors_of"),
        "polys.multipoint.s": secs("polys.multipoint"),
        "polys.mul.calls": calls("polys.mul"),
        "polys.interpolate_crt.calls": calls("polys.interpolate_crt"),
        "local_eval.invariant_factors_at.s":
            secs("local_eval.invariant_factors_at"),
        "local_eval.invariant_factors_at.calls": evals,
        "local_eval.build_B.s": secs("local_eval.build_B"),
        "local_eval.matrix_size": res["matrix_size"],
        "interp.lift_from_extension_value.s":
            secs("interp.lift_from_extension_value"),
        "interp.lift_from_extension_value.calls":
            calls("interp.lift_from_extension_value"),
        "reconstruct.self_s": L["reconstruct"]["self_s"],
        "reconstruct.points_used": used,
        "reconstruct.useful_ratio": used / evals,
    }


def report_only(t1, t2):
    """Traced times that are zero on the det workloads: printed, but kept
    out of the JSON metrics, where a time must vary from run to run."""
    return {name: (t1["layers"][key]["s"] + t2["layers"][key]["s"]) / 2
            for name, key in (("fields.sampling.s", "fields.sampling"),
                              ("polys.interpolate_crt.s",
                               "polys.interpolate_crt"))}


def traced(w, seed, deadline, path):
    """One traced solve, and its layer metrics when it succeeded."""
    OUT.mkdir(exist_ok=True)
    r = run_child(w, seed, deadline, trace_out=path)
    ok = judge(r, w["reference"]) is None
    return r, (layer_metrics(r, w["driver"]) if ok else None)


def count_diffs(a, b, counts):
    """Counts that differ between two traced solves of the same input."""
    return [f"{k}: {a[k]} then {b[k]}" for k in counts if a[k] != b[k]]


def untraced(w, seed, seconds, deadline):
    """Solves back to back until `seconds` have gone by, each right after a
    set-up-only process.  Returns the samples of each end-to-end metric
    (successful solves only) and of the wall times, the number of solves
    and the reason each failed solve failed."""
    series = {"solve_s": [], "setup_s": [], "peak_rss_mb": []}
    wall = {"solve_s": [], "setup_s": []}
    n, failures = 0, []
    t0 = time.perf_counter()
    while not n or time.perf_counter() - t0 < seconds:
        pre = run_child(w, seed, deadline, setup_only=True)
        series["setup_s"].append(pre["setup_s"] * REF_WORK_S / pre["ref_s"])
        wall["setup_s"].append(pre["setup_s"])
        r = run_child(w, seed, deadline)
        n += 1
        why = judge(r, w["reference"])
        if why is not None:
            failures.append(why)
            if "solve_s" not in r:  # timed out: no time left for another
                break
            continue
        # the set-up-only process ran the reference work just before this
        # solve, and the solving process just after it
        scale = REF_WORK_S / ((pre["ref_s"] + r["ref_s"]) / 2)
        for name in ("solve_s", "setup_s"):
            series[name].append(r[name] * scale)
            wall[name].append(r[name])
        series["peak_rss_mb"].append(r["peak_rss_mb"])
    return series, wall, n, failures


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def print_series(name, unit, values):
    q1, med, q3 = quartiles(values)
    print(f"{name}: {med:.6g} {unit}  (median; quartiles {q1:.6g} .. "
          f"{q3:.6g}; n={len(values)})")


def bench(args, spec, bench_doc):
    w = spec["workloads"][args.workload]
    deadline = time.perf_counter() + RUN_LIMIT_S
    run_child(w, args.seed, deadline, setup_only=True)  # compiles bytecode
    if not args.trace:
        units = {m["name"]: m["unit"] for m in bench_doc["end_to_end"]}
        series, wall, n, failures = untraced(w, args.seed, args.seconds,
                                             deadline)
        for why in failures:
            print(f"failed solve: {why}", file=sys.stderr)
        if not series["solve_s"]:
            emit(False, n, len(failures), {})
            return 0
        metrics = {}
        for name, values in series.items():
            print_series(name, units[name], values)
            if name in wall:
                print_series(f"  wall {name}", units[name], wall[name])
            metrics[name] = {"value": statistics.median(values),
                             "unit": units[name]}
        err = len(failures) / n
        print(f"error_rate: {err:.6g} share  ({len(failures)} of {n} "
              "solves raised or differed from the reference)")
        metrics["success_rate"] = {"value": 1.0 - err,
                                   "unit": units["success_rate"]}
        emit(not failures, n, len(failures), metrics)
        return 0

    # traced, untraced, traced: the untraced solve sits between the two
    # it is compared with, so a slow drift in machine speed cancels
    units = {m["name"]: m["unit"] for m in bench_doc["per_layer"]}
    counts = [k for k, u in units.items() if u == "count"]
    tag = f"{args.workload}-seed{args.seed}"
    t1, m1 = traced(w, args.seed, deadline, OUT / f"{tag}-0.spans.json")
    plain = run_child(w, args.seed, deadline)
    t2, m2 = traced(w, args.seed, deadline, OUT / f"{tag}-1.spans.json")
    failures = [why for why in (judge(r, w["reference"])
                                for r in (t1, plain, t2)) if why is not None]
    for why in failures:
        print(f"failed solve: {why}", file=sys.stderr)
    if failures:
        emit(False, 3, len(failures), {})
        return 0
    diffs = count_diffs(m1, m2, counts)
    for d in diffs:
        print(f"count differs between two traced solves: {d}",
              file=sys.stderr)
    metrics = {}
    for name, unit in units.items():
        if name == "trace_overhead_s":
            value = (t1["solve_s"] + t2["solve_s"]) / 2 - plain["solve_s"]
        elif unit == "count":
            value = m1[name]
        else:
            value = (m1[name] + m2[name]) / 2
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit}")
    for name, value in report_only(t1, t2).items():
        print(f"{name}: {value:.6g} s  (printed only: 0 on det)")
    emit(not diffs, 3, 0, metrics)
    return 0


def selftest(spec, bench_doc):
    """Checks of the benchmark itself; exit status 1 when one fails."""
    deadline = time.perf_counter() + 20 * RUN_LIMIT_S
    counts = [m["name"] for m in bench_doc["per_layer"]
              if m["unit"] == "count"]
    problems = []
    w = dict(spec["workloads"]["det-sys"], reference=["1", "T^2 + 4*X^2 + 5"])
    why = judge(run_child(w, 1, deadline), w["reference"])
    print(f"det-sys against a wrong reference: "
          f"{'failed as it should' if why else 'PASSED'} ({why})")
    if why is None:
        problems.append("a wrong reference was not reported")
    for name, wl in spec["workloads"].items():
        _, m1 = traced(wl, 1, deadline, OUT / f"selftest-{name}-0.spans.json")
        _, m2 = traced(wl, 1, deadline, OUT / f"selftest-{name}-1.spans.json")
        if m1 is None or m2 is None:
            problems.append(f"{name}: a traced solve failed")
            continue
        diffs = count_diffs(m1, m2, counts)
        irr = "fields.is_irreducible.calls"
        print(f"{name}: two consecutive traced solves, {irr} {m1[irr]} "
              f"then {m2[irr]}; "
              f"{len(counts) - len(diffs)} of {len(counts)} counts equal")
        problems += [f"{name}: {d}" for d in diffs]
    for p in problems:
        print(f"SELFTEST FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if not (SRC / "pcurvature" / "__init__.py").is_file():
            raise BenchError(f"no pcurvature sources under {SRC}")
        spec, bench_doc = load_spec()
        if args.selftest:
            return selftest(spec, bench_doc)
        if args.workload not in spec["workloads"]:
            ap.error(f"--workload must be one of {sorted(spec['workloads'])}")
        return bench(args, spec, bench_doc)
    except (BenchError, OSError) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
