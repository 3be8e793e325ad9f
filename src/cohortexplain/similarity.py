"""Per-target dissimilarity sets, cohorts, cohort refinement along an
ordering and the subset-lattice tables.

For a fixed target t, D[i, j] = |x_ij - x_tj| > w_j says whether feature j is
in the dissimilarity set J_i of observation i, w_j being the width of the
column's rule.  That boolean matrix, held by the profile, and the counts
|J_i| are the only representation of the sets; every cohort, refinement
path and subset-lattice table is computed from them, here, and IGCS reads
the same matrix.  No state is kept between profiles: each one derives its
widths from the spec's per-column rule arrays and the column ranges that
the ``Dataset`` computed when it was made (``data.similarity_widths``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import Dataset, SimilaritySpec, similarity_widths
from .errors import TargetOutOfRange
from .shapley import check_lattice


@dataclass(frozen=True, eq=False)
class SimilarityProfile:
    """Dissimilarity sets J_i of every observation for one target.

    ``dissimilar[i, j]`` is True when j is in J_i, i.e. observation i is
    not similar to the target on feature j; ``dissim_counts[i]`` is |J_i|.
    The profile keeps a read-only view of the matrix it is given.  The
    target row is all-similar, so J_t is empty.  ``indicators`` is the
    derived similarity matrix ~D.  ``dissim_counts`` are D's row sums, as
    ``intp``, summed over D's bytes in the smallest unsigned type that
    holds d (a quarter of the bool sum's time at d=1024, no slower at
    d=20).  ``sparse_rows`` lists the members of each non-empty J_i,
    built from D on first use (O(nd) once, index arrays of nnz(D) entries)
    for the refinement kernel; engines that never walk an ordering, like
    IGCS, never build it.  Profiles compare and hash by identity.
    """

    target_index: int
    dissimilar: np.ndarray
    dissim_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        D = np.asarray(self.dissimilar, dtype=bool).view()
        if D.ndim != 2:
            raise ValueError(f"dissimilarity matrix must have shape (n, d), got {D.shape}")
        if not 0 <= self.target_index < D.shape[0]:
            raise TargetOutOfRange(self.target_index, D.shape[0])
        if D[self.target_index].any():
            raise ValueError("target row must be similar to itself on every feature")
        counts = D.view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(D.shape[1])).astype(np.intp)
        for arr in (D, counts):
            arr.setflags(write=False)
        object.__setattr__(self, "dissimilar", D)
        object.__setattr__(self, "dissim_counts", counts)

    @property
    def n(self) -> int:
        return self.dissimilar.shape[0]

    @property
    def d(self) -> int:
        return self.dissimilar.shape[1]

    @property
    def indicators(self) -> np.ndarray:
        """S = ~D: True when observation i is similar to the target on feature j."""
        return ~self.dissimilar

    @cached_property
    def sparse_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, starts, cols): the rows with non-empty J_i, where each
        one's features begin in ``cols``, and the features of every J_i in
        ascending order, row after row (the CSR form of D without its empty
        rows)."""
        cols = np.flatnonzero(self.dissimilar) % self.d
        rows = np.flatnonzero(self.dissim_counts)
        starts = (np.cumsum(self.dissim_counts) - self.dissim_counts)[rows]
        for arr in (rows, starts, cols):
            arr.setflags(write=False)
        return rows, starts, cols


def build_profile(ds: Dataset, spec: SimilaritySpec, target_index: int) -> SimilarityProfile:
    """D[i, j] = |x_ij - x_tj| > w_j for one target t, with the widths w
    that ``data.similarity_widths`` derives from the spec's rules and the
    dataset's column ranges, checking the spec against the dataset.

    Where every column takes at most two values (the dataset's ``at_high``
    codes), x_ij either equals x_tj, which is similar to itself, or is
    column j's other value, so D[i, j] holds iff x_ij != x_tj and that
    other value is dissimilar to x_tj: one boolean compare of the table and
    one float compare per column, instead of a float subtract, abs and
    compare of the table.  Other tables take the float broadcast.  D is the
    same matrix either way.  A difference past the largest float is inf,
    without a warning.
    """
    if not 0 <= target_index < ds.n:
        raise TargetOutOfRange(target_index, ds.n)
    widths = similarity_widths(ds, spec)
    x = ds.features[target_index]
    if ds.at_high is None:
        with np.errstate(over="ignore"):
            diff = ds.features - x
        np.abs(diff, out=diff)
        return SimilarityProfile(target_index, diff > widths)
    own = ds.at_high[target_index]
    other = np.where(own, ds.low, ds.high)
    dissimilar = ds.at_high != own
    with np.errstate(over="ignore"):
        dissimilar &= np.abs(other - x) > widths
    return SimilarityProfile(target_index, dissimilar)


def feature_subset(u, d: int) -> list[int]:
    """The subset u as sorted distinct feature indices, each in [0, d)."""
    u = sorted(set(int(j) for j in u))
    if u and (u[0] < 0 or u[-1] >= d):
        raise ValueError(f"feature subset {u} not contained in [0, {d})")
    return u


def cohort(profile: SimilarityProfile, u) -> np.ndarray:
    """Indices of observations similar to the target on every feature in u.

    The empty set conditions on nothing, so it returns all rows; the target
    is always a member.
    """
    u = feature_subset(u, profile.d)
    if not u:
        return np.arange(profile.n)
    return np.flatnonzero(~profile.dissimilar[:, u].any(axis=1))


def refinement_path(profile: SimilarityProfile, ordering, responses, *, with_reversed: bool = False):
    """Cohort size and response sum after each prefix of an ordering.

    Entry k of both arrays describes the cohort similar to the target on the
    first k features of ``ordering`` (a non-empty sequence of distinct
    features, possibly fewer than d), for k = 0..len(ordering).  A row
    leaves the cohort at the first position where it is dissimilar and
    never returns, so its exit is the smallest rank among the features of
    J_i (len(ordering) when none of them is ranked): one gather of the ranks
    over the profile's ``sparse_rows`` and one ``np.minimum.reduceat``,
    O(nnz(D) + n + d) per ordering.  Reverse cumulative counts over the
    exits give every prefix at once.

    ``with_reversed`` (for an ordering of all d features) returns a pair of
    (sizes, sums): this path and that of the reversed ordering, from the
    same gather.  A row's exit there is d - 1 minus its largest rank
    (``np.maximum.reduceat``), d when J_i is empty.
    """
    ordering = np.asarray(ordering, dtype=np.intp)
    k = len(ordering)
    if with_reversed and k != profile.d:
        raise ValueError(f"a reversed path needs an ordering of all {profile.d} features, got {k}")
    rows, starts, cols = profile.sparse_rows
    rank = np.full(profile.d, k, dtype=np.intp)
    rank[ordering] = np.arange(k)
    ranks = rank[cols]
    exits = np.full(profile.n, k, dtype=np.intp)
    exits[rows] = np.minimum.reduceat(ranks, starts)
    path = _prefix_totals(exits, k, responses)
    if not with_reversed:
        return path
    exits = np.full(profile.n, k, dtype=np.intp)
    exits[rows] = k - 1 - np.maximum.reduceat(ranks, starts)
    return path, _prefix_totals(exits, k, responses)


def _prefix_totals(exits, k: int, responses) -> tuple[np.ndarray, np.ndarray]:
    """Cohort sizes and response sums before each of the k + 1 exit positions."""
    sizes = np.bincount(exits, minlength=k + 1)[::-1].cumsum()[::-1]
    sums = np.bincount(exits, weights=responses, minlength=k + 1)[::-1].cumsum()[::-1]
    return sizes, sums


#: ``superset_tables`` goes dense before its sparse stage holds over 2^(d - 5)
#: subsets: at n=1000 and d=20 a shift of 5-6 was fastest, of 3 or 8 slower.
_SPARSE_SHIFT = 5


def superset_tables(profile: SimilarityProfile, *weights) -> list[np.ndarray]:
    """One table over the 2^d subsets per row-weight vector: entry u sums
    the weights of the rows similar to the target on every feature of u.

    Rows are binned by their similar-feature bitmask [d] \\ J_i, then one
    accumulation pass per bit over the 2^d entries turns the bins into
    superset sums: O(n d + d 2^d) per table instead of O(4^d).  The pass
    for bit b adds entry u + 2^b into u for every u without bit b.  Below
    bit 3, where those runs are 1-4 entries long, it is 2^b one-dimensional
    strided adds instead of one pass over a (-1, 2, 2^b) view; both add the
    same pairs, so the tables are the same bytes.

    While few subsets are occupied, the first passes run over those alone:
    sorted keys with their bins (a row-order ``bincount``, as dense), and
    per bit a ``searchsorted`` for each key's partner key - 2^b, which gets
    the key's value added, or is inserted with it when absent.  An absent
    entry is +0.0 and no sum is -0.0 (only -0.0 + -0.0 is), so x + 0.0 is x
    and every entry gets the dense passes' bytes.  Before the keys would
    pass 2^(d - ``_SPARSE_SHIFT``), they are binned into the dense tables
    for the remaining bits; with more rows than that, or d <= the shift,
    every pass is dense.  All tables are checked against physical memory,
    with the one a caller derives from them, before the first is allocated.
    """
    d = profile.d
    check_lattice("superset tables", d, len(weights) + 1)
    bits = np.int64(1) << np.arange(d, dtype=np.int64)
    masks = ((1 << d) - 1) ^ (profile.dissimilar * bits).sum(axis=1)
    keys, vals, start = masks, weights, 0
    limit = 1 << max(d - _SPARSE_SHIFT, 0)
    if d > _SPARSE_SHIFT and profile.n <= limit:
        keys, bins = np.unique(masks, return_inverse=True)
        vals = [np.bincount(bins, weights=w, minlength=len(keys)) for w in weights]
        for start in range(d):
            h = 1 << start
            src = np.flatnonzero(keys & h)
            at = np.searchsorted(keys, keys[src] - h)
            found = keys[at] == keys[src] - h
            new = src[~found]
            if len(keys) + len(new) > limit:
                break  # by bit d - 5: the target row's subsets double each bit
            into, src = at[found], src[found]
            keys = np.concatenate([keys, keys[new] - h])
            order = np.argsort(keys, kind="stable")  # two sorted runs
            keys = keys[order]
            for s, v in enumerate(vals):
                v[into] += v[src]
                vals[s] = np.concatenate([v, v[new]])[order]
    tables = [np.bincount(keys, weights=w, minlength=1 << d) for w in vals]
    for acc in tables:
        for b in range(start, d):
            h = 1 << b
            if b < 3:
                for o in range(h):
                    acc[o :: 2 * h] += acc[o + h :: 2 * h]
            else:
                view = acc.reshape(-1, 2, h)
                view[:, 0, :] += view[:, 1, :]
    return tables
