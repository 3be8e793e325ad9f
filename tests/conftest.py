import numpy as np
import pytest

from cohortexplain import (
    CohortValue,
    ColumnKind,
    Dataset,
    Equality,
    SimilarityProfile,
    SimilaritySpec,
)

D3_FEATURES = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
D3_RESPONSES = np.array([1.0, 2.0, 3.0])


def make_dataset(features, responses, kinds=None, names=None, response_name="y") -> Dataset:
    features = np.asarray(features, dtype=float)
    d = features.shape[1]
    kinds = tuple(kinds) if kinds is not None else (ColumnKind.NUMERIC,) * d
    names = tuple(names) if names is not None else tuple(f"x{j + 1}" for j in range(d))
    categories = tuple(
        tuple(str(v) for v in sorted(set(features[:, j]))) if kinds[j] is ColumnKind.CATEGORICAL else None
        for j in range(d)
    )
    return Dataset(
        features=features,
        responses=np.asarray(responses, dtype=float),
        column_names=names,
        kinds=kinds,
        categories=categories,
        response_name=response_name,
    )


def profile_from_indicators(indicators, target_index) -> SimilarityProfile:
    """The profile whose similarity matrix S = ~D is ``indicators``."""
    S = np.asarray(indicators, dtype=bool)
    return SimilarityProfile(target_index, S.shape[1], ~S)


def random_binary_profile(rng, n, d, target=0, density=0.5) -> SimilarityProfile:
    """Random indicator matrix with an all-similar target row."""
    S = rng.random((n, d)) < density
    S[target] = True
    return profile_from_indicators(S, target)


def random_cohort_instance(rng, n, d, target=0, density=0.5):
    profile = random_binary_profile(rng, n, d, target=target, density=density)
    responses = rng.normal(size=n)
    return profile, responses, CohortValue(profile, responses)


@pytest.fixture
def d3_dataset() -> Dataset:
    return make_dataset(D3_FEATURES, D3_RESPONSES)


@pytest.fixture
def d3_spec() -> SimilaritySpec:
    return SimilaritySpec((Equality(), Equality()))


@pytest.fixture
def d3_profile() -> SimilarityProfile:
    S = np.array([[1, 1], [1, 0], [0, 0]], dtype=bool)
    return profile_from_indicators(S, 0)


@pytest.fixture
def d3_cohort_value(d3_profile) -> CohortValue:
    return CohortValue(d3_profile, D3_RESPONSES)


def random_multilinear(rng, d):
    """A random multilinear g(z) = sum_m c_m prod_{j in m} z_j over the
    subsets m of [d]: its gradient at each row of an (R, d) array, and its
    values at the 2^d corners, indexed by bitmask."""
    coeffs = rng.normal(size=1 << d)
    masks = np.arange(1 << d)

    def monomials(Z):  # column m holds prod_{j in m} z_j
        M = np.ones((len(Z), 1))
        for j in range(d):
            M = np.hstack([M, M * Z[:, j : j + 1]])
        return M

    def grad(Z):
        M = monomials(Z)
        out = np.empty_like(Z)
        for j in range(d):
            on = masks[(masks >> j) & 1 == 1]
            out[:, j] = M[:, on ^ (1 << j)] @ coeffs[on]
        return out

    corners = monomials(((masks[:, np.newaxis] >> np.arange(d)) & 1).astype(float)) @ coeffs
    return grad, corners


def product_gradient(u):
    """The gradient of g(z) = prod_{j in u} h(z_j), h(v) = 1 + v^2, at each
    row of an (R, d) array."""
    u = list(u)

    def grad(Z):
        H = 1.0 + Z[:, u] ** 2
        out = np.zeros_like(Z)
        out[:, u] = 2.0 * Z[:, u] * H.prod(axis=1, keepdims=True) / H
        return out

    return grad


def power_product_gradient(exponents):
    """The gradient of g(z) = prod_j (1 - z_j)^e_j at each row of an (R, d)
    array of interior points (every z_j < 1)."""

    def grad(Z):
        return -exponents * np.prod((1.0 - Z) ** exponents, axis=1, keepdims=True) / (1.0 - Z)

    return grad
