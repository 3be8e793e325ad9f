"""Conditional insertion/deletion curves and area-between-curves scores.

An ordering of the variables is scored by how fast the cohort mean moves as
similarity constraints are added in that order (insertion) or removed from
the least important end (deletion).  The signed area between each curve and
its straight-line chord summarizes ranking quality; better orderings score
higher.  Curves use unit spacing on [0, d], so scores carry units of
response times variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .similarity import refinement_path
from .values import CohortValue


@dataclass(frozen=True)
class AbcReport:
    """Curves for one attribution at one target, and their ABC scores
    (computed by ``abc_scores``)."""

    insertion_curve: np.ndarray
    deletion_curve: np.ndarray
    abc_insertion: float = field(init=False)
    abc_deletion: float = field(init=False)

    def __post_init__(self):
        abc_ins, abc_del = abc_scores(self.insertion_curve, self.deletion_curve)
        object.__setattr__(self, "abc_insertion", abc_ins)
        object.__setattr__(self, "abc_deletion", abc_del)


def variable_ordering(values: np.ndarray) -> np.ndarray:
    """Feature indices sorted by attribution value, descending; ties broken
    by ascending index so cross-method comparisons are deterministic."""
    vals = np.asarray(values, dtype=float)
    return np.lexsort((np.arange(len(vals)), -vals))


def conditional_curves(cv: CohortValue, ordering) -> tuple[np.ndarray, np.ndarray]:
    """Insertion curve nu({first k}) and deletion curve nu({last d-k}).

    Deletion removes the top-ranked constraints first, i.e. entry k
    conditions on the d-k least important variables.  Both curves are cohort
    sums over cohort sizes along the refinement path, and the deletion curve
    is the reversed insertion curve of the reversed ordering; one refinement
    call gives both paths.
    """
    ordering = np.asarray(ordering)
    d = cv.d
    if (ordering.dtype.kind not in "iu" or ordering.shape != (d,)
            or not np.array_equal(np.sort(ordering), np.arange(d))):
        raise ValueError(f"ordering must be an integer permutation of range({d})")
    (sizes, sums), (back_sizes, back_sums) = refinement_path(
        cv.profile, ordering, cv.responses, with_reversed=True
    )
    return sums / sizes, (back_sums / back_sizes)[::-1]


def abc_scores(insertion_curve, deletion_curve) -> tuple[float, float]:
    """Signed areas between each curve and its chord (trapezoid rule).

    Insertion scores area above the chord; deletion scores area below it, so
    both are positive for orderings that move the cohort mean early.
    """
    ins = np.asarray(insertion_curve, dtype=float)
    dele = np.asarray(deletion_curve, dtype=float)
    if ins.ndim != 1 or ins.shape != dele.shape or len(ins) < 2:
        raise ValueError("curves must be 1-d, equal length d+1 >= 2")
    d = len(ins) - 1
    abc_ins = float(np.trapezoid(ins) - (ins[0] + ins[-1]) / 2.0 * d)
    abc_del = float((dele[0] + dele[-1]) / 2.0 * d - np.trapezoid(dele))
    return abc_ins, abc_del


def abc_report(cv: CohortValue, values: np.ndarray) -> AbcReport:
    """Curves and both ABC scores for one attribution's values, taken along
    their ``variable_ordering``."""
    return AbcReport(*conditional_curves(cv, variable_ordering(values)))
