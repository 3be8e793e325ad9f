"""Brute-force reference implementations, kept independent of the package
internals they are used to check."""

import itertools
import math

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
    """Mean response over rows similar on every feature in u, from scratch."""
    members = [
        i for i in range(indicators.shape[0])
        if all(indicators[i, j] for j in u)
    ]
    return float(np.mean([responses[i] for i in members]))


def soft_value_brute(indicators, responses, z):
    """Direct evaluation of the weighted-mean extension at one point."""
    num = 0.0
    den = 0.0
    for i in range(indicators.shape[0]):
        s = 1.0
        for j in range(indicators.shape[1]):
            if not indicators[i, j]:
                s *= 1.0 - z[j]
        num += responses[i] * s
        den += s
    return num / den


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
