"""Brute-force reference implementations, kept independent of the package
internals they are used to check."""

import itertools
import math
from fractions import Fraction

import numpy as np


def subsets(d):
    for size in range(d + 1):
        yield from itertools.combinations(range(d), size)


def shapley_by_definition(evaluate, d):
    """phi_j = (1/d) sum_{u not containing j} C(d-1,|u|)^-1 (nu(u+{j}) - nu(u)),
    enumerated subset by subset."""
    phi = np.zeros(d)
    for j in range(d):
        others = [k for k in range(d) if k != j]
        for size in range(d):
            weight = 1.0 / (d * math.comb(d - 1, size))
            for u in itertools.combinations(others, size):
                with_j = tuple(sorted(u + (j,)))
                phi[j] += weight * (evaluate(with_j) - evaluate(u))
    return phi


def shapley_by_permutations(evaluate, d):
    """Average incremental value over all d! team-building orders."""
    phi = np.zeros(d)
    count = 0
    for perm in itertools.permutations(range(d)):
        prev = evaluate(())
        prefix = []
        for j in perm:
            prefix.append(j)
            cur = evaluate(tuple(sorted(prefix)))
            phi[j] += cur - prev
            prev = cur
        count += 1
    return phi / count


def cohort_mean_brute(indicators, responses, u):
    """Mean response over rows similar on every feature in u, from scratch:
    the columns of u gathered and AND-ed across each row."""
    members = np.asarray(indicators)[:, np.asarray(u, dtype=np.intp)].all(axis=1)
    return float(np.mean(np.asarray(responses)[members]))


def refinement_path_dense(profile, ordering, responses=None):
    """Cohort sizes and response sums along every prefix of an ordering from
    a dense copy of the ordered dissimilarity columns and one argmax per row
    for its exit position; the reference summation order of the refinement
    kernel."""
    D = profile.dissimilar[:, np.asarray(ordering, dtype=np.intp)]
    k = D.shape[1]
    first = D.argmax(axis=1)
    exits = np.where(D[np.arange(len(D)), first], first, k)
    sizes = np.bincount(exits, minlength=k + 1)[::-1].cumsum()[::-1]
    if responses is None:
        return sizes, None
    sums = np.bincount(exits, weights=responses, minlength=k + 1)[::-1].cumsum()[::-1]
    return sizes, sums


def soft_similarity(dissimilar, z):
    """s_z(x_i) = prod_{j in J_i} (1 - z_j) for every row i of the
    dissimilarity matrix, at one point z of shape (d,) (giving (n,)) or at
    each row of an (R, d) array (giving (R, n))."""
    z = np.asarray(z, dtype=float)
    return np.where(dissimilar, 1.0 - z[..., np.newaxis, :], 1.0).prod(axis=-1)


def soft_value(dissimilar, responses, z):
    """The soft cohort mean nu(z) = sum_i f_i s_z(x_i) / sum_i s_z(x_i), at
    one point or at each row of an (R, d) array."""
    s = soft_similarity(dissimilar, z)
    return (s @ responses) / s.sum(axis=-1)


def soft_gradient(dissimilar, responses, z):
    """Exact gradient of nu by the quotient rule, at one point or at each row
    of an (R, d) array.  The partial d s_z(x_i) / d z_k is
    -prod_{j in J_i, j != k} (1 - z_j) for k in J_i and 0 otherwise, taken
    from prefix and suffix products so that a factor that is exactly 0
    (z_j = 1) needs no division."""
    D = np.asarray(dissimilar, dtype=bool)
    F = np.where(D, 1.0 - np.asarray(z, dtype=float)[..., np.newaxis, :], 1.0)
    before = np.ones_like(F)
    before[..., 1:] = np.cumprod(F[..., :-1], axis=-1)
    after = np.ones_like(F)
    after[..., :-1] = np.cumprod(F[..., :0:-1], axis=-1)[..., ::-1]
    partials = np.where(D, -before * after, 0.0)
    s = F.prod(axis=-1)
    B, C = s.sum(axis=-1)[..., np.newaxis], (s @ responses)[..., np.newaxis]
    return ((responses @ partials) * B - C * partials.sum(axis=-2)) / B**2


def diagonal_ig(gradient, d, steps):
    """Integrated gradients along the diagonal of [0, 1]^d by the midpoint
    rule: the mean of the gradient over the nodes alpha_r = (2r - 1) / (2R).
    ``gradient`` maps the (R, d) array of nodes to their (R, d) gradients."""
    alphas = (np.arange(steps) + 0.5) / steps
    return gradient(np.repeat(alphas[:, np.newaxis], d, axis=1)).mean(axis=0)


def central_difference_gradient(fn, z, h=1e-5):
    z = np.asarray(z, dtype=float)
    grad = np.zeros_like(z)
    for j in range(len(z)):
        up = z.copy()
        down = z.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


def table_evaluate(vals):
    """Wrap an array indexed by subset bitmask as an evaluate(u) callable."""
    vals = np.asarray(vals, dtype=float)

    def evaluate(u):
        mask = 0
        for j in u:
            mask |= 1 << int(j)
        return float(vals[mask])

    return evaluate


def make_table_vf(vals, d):
    """Array-backed ValueFunction for engine tests: vals[bitmask]."""
    from cohortexplain import ValueFunction

    evaluate = table_evaluate(vals)

    class _TableVF(ValueFunction):
        def evaluate(self, u):
            return evaluate(u)

    return _TableVF(d)


def fisher_yates_scalar(rng, d):
    """Fisher-Yates with one scalar ``rng.integers(0, i + 1)`` draw per
    position i = d-1 .. 1; the reference draw sequence."""
    perm = np.arange(d)
    for i in range(d - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def finite_real(cell):
    """float(cell) when that is a finite real, else None; one cell at a time."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def infer_column(cells):
    """(kind, column, categories) by the documented rule: numeric when every
    cell is a finite real, else integer codes in first-appearance order."""
    parsed = [finite_real(cell) for cell in cells]
    if all(v is not None for v in parsed):
        return "numeric", np.array(parsed, dtype=float), None
    codes = {}
    column = np.array([codes.setdefault(cell, len(codes)) for cell in cells], dtype=float)
    return "categorical", column, tuple(codes)


def first_non_real(cells):
    """Row index of the first cell that is not a finite real, or None."""
    return next((r for r, cell in enumerate(cells) if finite_real(cell) is None), None)


def indicators_by_rule(ds, spec, target):
    """The similarity indicators column by column, one branch per rule type:
    exact equality, |x - x_t| <= delta * (max - min), |x - x_t| <= width."""
    from cohortexplain import Equality, RelativeRange

    X = ds.features
    xt = X[target]
    S = np.empty((ds.n, ds.d), dtype=bool)
    for j, rule in enumerate(spec.rules):
        if isinstance(rule, Equality):
            S[:, j] = X[:, j] == xt[j]
        elif isinstance(rule, RelativeRange):
            S[:, j] = np.abs(X[:, j] - xt[j]) <= rule.delta * (X[:, j].max() - X[:, j].min())
        else:
            S[:, j] = np.abs(X[:, j] - xt[j]) <= rule.width
    return S


def dissimilar_by_broadcast(features, widths, target):
    """D = |X - x_t| > w in one float broadcast over the whole table, and
    the counts |J_i| as its row sums."""
    diff = features - features[target]
    np.abs(diff, out=diff)
    D = diff > widths
    return D, D.sum(axis=1)


def exact_shapley_by_columns(vals, d):
    """Subset-weighted exact Shapley values from a table indexed by bitmask,
    with per-feature copies of the without-j and with-j halves and a gather
    of the weights by subset size; the reference summation order."""
    pop = np.zeros(1 << d, dtype=np.int64)
    stride = 1
    while stride < 1 << d:
        pop[stride : 2 * stride] = pop[:stride] + 1
        stride *= 2
    weights = np.array([1.0 / (d * math.comb(d - 1, s)) for s in range(d)])
    phi = np.empty(d)
    for j in range(d):
        pairs = vals.reshape(-1, 2, 1 << j)
        without = pairs[:, 0, :].ravel()
        with_j = pairs[:, 1, :].ravel()
        sizes = pop.reshape(-1, 2, 1 << j)[:, 0, :].ravel()
        phi[j] = np.sum(weights[sizes] * (with_j - without))
    return phi


def exact_shapley_gather(vals, d):
    """(phi, nu_empty, nu_full) of a table indexed by bitmask by the fold of
    ``shapley.exact_shapley`` with its weights gathered by subset size: the
    centred table times W(|u| - 1) and W(|u|) looked up through a 2^d popcount
    table, then the same top-down fold of A and B; the reference bytes of the
    fold."""
    vals = np.asarray(vals, dtype=float)
    nu_empty, nu_full = vals[0], vals[-1]
    c = vals - nu_empty
    sizes = np.bitwise_count(np.arange(1 << d, dtype=np.uint32))
    W = [1.0 / (d * math.comb(d - 1, s)) for s in range(d)]
    A = np.array([0.0] + W)[sizes]
    A *= c
    B = np.array(W + [0.0])[sizes]
    B *= c
    phi = np.empty(d)
    for j in reversed(range(d)):
        h = 1 << j
        phi[j] = A[h:].sum() - B[:h].sum()
        A[:h] += A[h:]
        B[:h] += B[h:]
        A, B = A[:h], B[:h]
    return phi, nu_empty, nu_full


def exact_shapley_fractions(vals, d):
    """Exact Shapley values of a table indexed by bitmask, by the definition
    in rational arithmetic over the table's floats, so with no rounding at
    all (d <= 8): a list of d ``Fraction``s."""
    if d > 8:
        raise ValueError(f"the rational oracle is for d <= 8, got {d}")
    v = [Fraction(float(x)) for x in vals]
    phi = []
    for j in range(d):
        bit = 1 << j
        terms = (
            (v[mask | bit] - v[mask]) / math.comb(d - 1, bin(mask).count("1"))
            for mask in range(1 << d)
            if not mask & bit
        )
        phi.append(sum(terms, Fraction(0)) / d)
    return phi


def superset_tables_by_bits(profile, *weights):
    """Superset sums over the 2^d subsets, one table per row-weight vector:
    the rows binned by their similar-feature bitmask, then one pass per bit
    over a (-1, 2, 2^b) view that adds entry u + 2^b into u; the reference
    summation order of ``similarity.superset_tables``."""
    d = profile.d
    bits = np.int64(1) << np.arange(d, dtype=np.int64)
    masks = ((1 << d) - 1) ^ (profile.dissimilar * bits).sum(axis=1)
    tables = []
    for w in weights:
        acc = np.bincount(masks, weights=w, minlength=1 << d)
        for b in range(d):
            view = acc.reshape(-1, 2, 1 << b)
            view[:, 0, :] += view[:, 1, :]
        tables.append(acc)
    return tables


def gkw_weights_cholesky(gv, u):
    """GKW kernel weights for the subset u from a fresh Cholesky factor and
    solve of Sigma_uu (scipy), over the value function's standardized
    features ``gv._X`` and ridged covariance ``gv._cov``."""
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    from cohortexplain import SingularCovariance

    u = tuple(sorted(set(int(j) for j in u)))
    if not u:
        return np.ones(len(gv.responses))
    try:
        factor = cho_factor(gv._cov[np.ix_(u, u)])
    except LinAlgError as exc:
        raise SingularCovariance(f"covariance submatrix for {u} is not positive definite") from exc
    cols = list(u)
    delta = gv._X[:, cols] - gv._X[gv.target_index, cols]
    solved = cho_solve(factor, delta.T)
    d_sq = np.maximum(np.einsum("ij,ji->i", delta, solved), 0.0) / len(u)
    return np.exp(-d_sq / (2.0 * gv.sigma**2))


def gkw_evaluate_cholesky(gv, u):
    """nu(u) of a GKW value function from ``gkw_weights_cholesky``."""
    if not tuple(u):
        return float(gv.responses.mean())
    w = gkw_weights_cholesky(gv, u)
    return float((w @ gv.responses) / w.sum())
