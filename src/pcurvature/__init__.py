"""Exact invariant factors of the p-curvature over F_p(x).

The similarity class of the p-curvature of Y' = AY (or of a scalar
operator through its companion system) is computed either naively in
time linear in p, or through evaluation at a few points of a small
extension field in time quasi-linear in sqrt(p), then reconstructed as
polynomials in X = x^p and T.

The records (DiffOperator, DiffSystem, ReconParams, and the recurrence
matrix and command line records) are immutable named tuples: build them
with keyword fields, take a modified copy with _replace, and they also
unpack and compare as tuples.  The rank profile tools of nilprofile and
the rational functions of ratfunc, which no solve uses, are imported on
first use, so that importing the package loads only the engine.  So are
the extension fields (extension, ExtensionField included) and the Smith
form (smith), which a solve over F_p runs only for a derogatory class.
"""

from .diffop import (DiffOperator, DiffSystem, companion_of_operator,
                     naive_invariant_factors)
from .fields import PrimeField, find_irreducible
from .local_eval import invariant_factors_at
from .reconstruct import (ReconParams, effective_params,
                          reconstruct_deterministic, reconstruct_montecarlo,
                          select_params)

__version__ = "0.1.0"

# public names of nilprofile, resolved by __getattr__ on first access
_NILPROFILE = ("FactorizationHypothesis", "RankProfile", "feasibility_check",
               "profile_from_invariant_factors", "sym_power_rank")


def __getattr__(name):
    if name in _NILPROFILE:
        from . import nilprofile
        return getattr(nilprofile, name)
    if name == "ExtensionField":
        from .extension import ExtensionField
        return ExtensionField
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_NILPROFILE) | {"ExtensionField"})

__all__ = [
    "DiffOperator",
    "DiffSystem",
    "ExtensionField",
    "FactorizationHypothesis",
    "PrimeField",
    "RankProfile",
    "ReconParams",
    "companion_of_operator",
    "effective_params",
    "feasibility_check",
    "find_irreducible",
    "invariant_factors_at",
    "naive_invariant_factors",
    "profile_from_invariant_factors",
    "reconstruct_deterministic",
    "reconstruct_montecarlo",
    "select_params",
    "sym_power_rank",
]
