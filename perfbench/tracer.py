"""Span recorder for one traced solve, installed from outside the program.

The wrappers rebind public functions of the pcurvature modules in the
calling process only; nothing inside the package changes.  Each call of a
wrapped function records a span (name, start, end, parent).  A function
already active on the stack is called straight through, so a recursive
callee yields one span, for its outermost call.  Spans stay in memory
until `write` stores them.
"""

import json
import time
from array import array

from pcurvature import fields, interp, linalg, local_eval, polys, reconstruct

# (module, attribute, span name) for every traced entry point.  Functions
# that share a span name count as one layer stage (build_B, the drivers).
TRACED = [
    (fields, "find_irreducible", "fields.find_irreducible"),
    (fields, "is_irreducible", "fields.is_irreducible"),
    (fields, "frobenius_orbit", "fields.frobenius_orbit"),
    (fields, "are_conjugate", "fields.are_conjugate"),
    (fields, "minimal_polynomial", "fields.minimal_polynomial"),
    (linalg, "matrix_factorial", "linalg.matrix_factorial"),
    (linalg, "matpoly_mul", "linalg.matpoly_mul"),
    (linalg, "matmul", "linalg.matmul"),
    (linalg, "invariant_factors_of", "linalg.invariant_factors_of"),
    (polys, "mul", "polys.mul"),
    (polys, "interpolate_crt", "polys.interpolate_crt"),
    (local_eval, "invariant_factors_at", "local_eval.invariant_factors_at"),
    (local_eval, "build_B_system", "local_eval.build_B"),
    (local_eval, "build_B_operator", "local_eval.build_B"),
    (interp, "lift_from_extension_value", "interp.lift_from_extension_value"),
    (reconstruct, "reconstruct_deterministic", "reconstruct"),
    (reconstruct, "reconstruct_montecarlo", "reconstruct"),
]

SAMPLING = ("fields.frobenius_orbit", "fields.are_conjugate",
            "fields.minimal_polynomial")


class Tracer:
    """Spans in parallel arrays: name code, start, end, parent index (-1
    for a span with no traced parent)."""

    def __init__(self):
        self.names = []
        self._code_of = {}
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.extension_degree = None
        self.matrix_size = None
        self._stack = [-1]
        self._active = {}

    def wrap(self, name, fn, observe=None):
        """fn with a span around each outermost call; observe(args, result)
        sees the arguments and result of every recorded call."""
        code = self._code_of.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        active, stack = self._active, self._stack
        active[name] = 0
        codes, parent = self.code, self.parent
        start, end = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            idx = len(start)
            codes.append(code)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            active[name] = 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[name] = 0
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self):
        """Rebind every traced entry point of the pcurvature modules."""
        observers = {
            "find_irreducible": self._see_degree,
            "build_B_system": self._see_size,
            "build_B_operator": self._see_size,
        }
        for module, attr, name in TRACED:
            setattr(module, attr, self.wrap(name, getattr(module, attr),
                                            observers.get(attr)))
        setattr(polys, "SubproductTree", self._traced_tree())

    def _traced_tree(self):
        """SubproductTree whose construction and evaluation form one stage."""
        base = polys.SubproductTree
        init = self.wrap("polys.multipoint", base.__init__)
        evaluate = self.wrap("polys.multipoint", base.evaluate)
        return type("SubproductTree", (base,),
                    {"__init__": init, "evaluate": evaluate})

    def _see_degree(self, args, result):
        self.extension_degree = args[1]

    def _see_size(self, args, result):
        self.matrix_size = result.size

    def summary(self):
        """Calls, total seconds and self seconds per span name, plus the
        time covered by the sampling helpers taken as one stage."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.code[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        sampling = {self._code_of[k] for k in SAMPLING}
        outer = [i for i in range(n)
                 if self.code[i] in sampling and not self._under(i, sampling)]
        out["fields.sampling"] = {"calls": len(outer),
                                  "s": sum(dur[i] for i in outer)}
        return out

    def _under(self, i, codes):
        j = self.parent[i]
        while j >= 0:
            if self.code[j] in codes:
                return True
            j = self.parent[j]
        return False

    def write(self, path):
        """Store all spans as columns, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "code": self.code.tolist(),
            "start": [round(t - t0, 9) for t in self.start],
            "end": [round(t - t0, 9) for t in self.end],
            "parent": self.parent.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
