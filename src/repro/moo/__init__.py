"""Multi-objective scalarization.

§2.3/§6 ground PaMO in classical MOO and its a priori weighting rules.
:mod:`repro.moo.scalarize` holds the scalarization rules (weighted sum,
weighted Chebyshev, achievement function) used by the fixed-weight
baselines of §1.  Pareto filtering lives in
:func:`repro.baselines.search.pareto_front`.
"""

from repro.moo.scalarize import weighted_sum, weighted_chebyshev, achievement

__all__ = [
    "weighted_sum",
    "weighted_chebyshev",
    "achievement",
]
