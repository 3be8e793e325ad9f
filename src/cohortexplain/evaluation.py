"""Conditional insertion/deletion curves and area-between-curves scores.

An ordering of the variables is scored by how fast the cohort mean moves as
similarity constraints are added in that order (insertion) or removed from
the least important end (deletion).  The signed area between each curve and
its straight-line chord summarizes ranking quality; better orderings score
higher.  Curves use unit spacing on [0, d], so scores carry units of
response times variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .shapley import Attribution
from .similarity import refinement_path
from .values import CohortValue


@dataclass(frozen=True)
class AbcReport:
    """Curves and scores for one attribution at one target."""

    insertion_curve: np.ndarray
    deletion_curve: np.ndarray
    abc_insertion: float
    abc_deletion: float
    target_index: Optional[int] = None


def variable_ordering(values: Union[Attribution, np.ndarray]) -> np.ndarray:
    """Feature indices sorted by attribution value, descending; ties broken
    by ascending index so cross-method comparisons are deterministic."""
    vals = np.asarray(getattr(values, "values", values), dtype=float)
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


def abc_report(cv: CohortValue, values: Union[Attribution, np.ndarray]) -> AbcReport:
    """Curves and both ABC scores for one attribution, taken along its
    ``variable_ordering``."""
    insertion, deletion = conditional_curves(cv, variable_ordering(values))
    abc_ins, abc_del = abc_scores(insertion, deletion)
    return AbcReport(
        insertion_curve=insertion,
        deletion_curve=deletion,
        abc_insertion=abc_ins,
        abc_deletion=abc_del,
        target_index=cv.target_index,
    )
