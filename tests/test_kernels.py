"""Property tests of the likelihood kernels and the block subproblems built on them."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from pytest import approx

from conceptfit.model import (
    FactorState,
    GradedResponseSet,
    HyperParams,
    WordCountMatrix,
    bernoulli_nll,
    bernoulli_slope,
    inverse_logit,
    objective,
    poisson_nll,
    poisson_slope,
)
from conceptfit.solvers import (
    c_block_subproblem,
    t_block_subproblem,
    w_block_subproblem,
)
from oracles import (
    central_difference,
    logaddexp_bernoulli_nll,
    naive_bernoulli_nll,
    naive_poisson_nll,
    piecewise_inverse_logit,
)

H = 1e-5
EPSILON = 1e-6

shapes = array_shapes(min_dims=1, max_dims=2, max_side=4)
taus = st.floats(0.1, 3.0)


def scalar_difference(f, x):
    return (f(x + H) - f(x - H)) / (2.0 * H)


def same_bits(got, ref):
    """Bit-for-bit equality, except that any NaN matches any NaN.

    The sign and payload of a NaN carry nothing and are not kept by numpy's
    ufuncs.
    """
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    nan = np.isnan(ref)
    return (got.shape == ref.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), ref[~nan].view(np.int64)))


any_floats = st.floats(allow_nan=True, allow_infinity=True)
edge_floats = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 700.0, -700.0, 745.2, -745.2,
     750.0, -750.0, 1e300, -1e300, 5e-324, -5e-324]
)


@given(x=st.lists(st.one_of(any_floats, edge_floats), min_size=1, max_size=30))
@settings(deadline=None)
def test_inverse_logit_is_bitwise_the_piecewise_reference(x):
    # io.simulate draws grades against these probabilities, so any change in
    # a bit would change a seeded data set
    assert same_bits(inverse_logit(np.array(x)), piecewise_inverse_logit(x))
    for v in x[:3]:
        got = inverse_logit(v)
        assert isinstance(got, float)
        assert same_bits(got, piecewise_inverse_logit(v)[0])


@given(data=st.data(), shape=shapes, tau=taus)
@settings(deadline=None)
def test_bernoulli_nll_matches_the_logaddexp_reference(data, shape, tau):
    slacks = st.one_of(st.floats(-40, 40), st.floats(-1e6, 1e6))
    z = data.draw(arrays(float, shape, elements=slacks))
    y = data.draw(arrays(float, shape, elements=st.sampled_from([0.0, 1.0])))
    got, ref = bernoulli_nll(y, z, tau), logaddexp_bernoulli_nll(y, z, tau)
    assert got.shape == shape
    # for y = 0 and tau*z < 0 the value is softplus(-tau*z) + tau*z, two terms
    # near |tau*z| that cancel, so both forms are exact to a few ulps of
    # |tau*z| there rather than of the value
    scale = np.maximum(np.abs(ref), (1.0 - y) * np.abs(tau * z))
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)


@given(y=st.sampled_from([0.0, 1.0]),
       tz=st.one_of(st.floats(-1e300, 1e300), edge_floats.filter(math.isfinite)))
@settings(deadline=None)
def test_bernoulli_kernels_raise_no_floating_point_error(y, tz):
    z = np.array([tz, -tz])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        inverse_logit(z)
        bernoulli_nll(y, z, 1.0)
        bernoulli_slope(y, z, 1.0)


@given(data=st.data(), shape=shapes, tau=taus)
@settings(max_examples=100, deadline=None)
def test_bernoulli_slope_is_the_derivative_of_the_oracle(data, shape, tau):
    z = data.draw(arrays(float, shape, elements=st.floats(-5, 5)))
    y = data.draw(arrays(float, shape, elements=st.sampled_from([0.0, 1.0])))
    got = bernoulli_slope(y, z, tau)
    assert got.shape == shape
    for idx in np.ndindex(shape):
        yi = int(y[idx])
        fd = scalar_difference(lambda v: naive_bernoulli_nll(yi, v, tau), z[idx])
        assert got[idx] == approx(fd, rel=1e-6, abs=1e-6)


@given(data=st.data(), shape=shapes)
@settings(max_examples=100, deadline=None)
def test_poisson_slope_is_the_derivative_of_the_oracle(data, shape):
    # rates stay 2H clear of the floor, where the value is differentiable
    a_raw = data.draw(arrays(float, shape, elements=st.floats(0.05, 5.0)))
    b = data.draw(arrays(float, shape, elements=st.integers(0, 20).map(float)))
    got = poisson_slope(b, a_raw, EPSILON)
    assert got.shape == shape
    for idx in np.ndindex(shape):
        fd = scalar_difference(
            lambda v: naive_poisson_nll(b[idx], v, EPSILON), a_raw[idx]
        )
        assert got[idx] == approx(fd, rel=1e-6, abs=1e-6)


@given(b=st.integers(0, 20), a_raw=st.floats(-3.0, EPSILON))
def test_poisson_slope_uses_the_floored_rate_at_or_below_the_floor(b, a_raw):
    assert poisson_slope(b, a_raw, EPSILON) == approx(1.0 - b / EPSILON, rel=1e-15)
    assert poisson_nll(b, a_raw, EPSILON) == approx(
        naive_poisson_nll(b, a_raw, EPSILON), rel=1e-15
    )


@given(y=st.sampled_from([0, 1]), z=st.floats(-400, 400), tau=taus)
def test_scalar_kernels_return_floats(y, z, tau):
    assert isinstance(bernoulli_nll(y, z, tau), float)
    assert isinstance(bernoulli_slope(y, z, tau), float)
    assert math.isfinite(bernoulli_slope(y, z, tau))
    assert isinstance(poisson_slope(y, z, EPSILON), float)


def blocks_instance(seed, Q, N, V, K):
    """Random factors and data with one unobserved learner and one unused word.

    ``observed`` is the (cells, y) form of the grades the block builders take.
    """
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.1, 1.1, size=(Q, K))
    mu = rng.standard_normal(Q)
    C = rng.standard_normal((K, N))
    T = rng.uniform(0.1, 1.1, size=(K, V))
    mask = (rng.random((Q, N)) < 0.6).astype(float)
    mask[:, rng.integers(N)] = 0.0
    grades = (rng.random((Q, N)) < 0.5) * mask
    counts = rng.poisson(W @ T).astype(float)
    counts[:, rng.integers(V)] = 0.0
    cells = np.flatnonzero(mask)
    observed = (cells, grades.ravel()[cells])
    return W, mu, C, T, mask, grades, observed, counts


def summed_bernoulli(mask, grades, W, mu, C, tau):
    total = 0.0
    for i, j in zip(*np.nonzero(mask)):
        z = sum(W[i, k] * C[k, j] for k in range(C.shape[0])) + mu[i]
        total += naive_bernoulli_nll(int(grades[i, j]), z, tau)
    return total


def summed_poisson(counts, W, T):
    total = 0.0
    for i, v in np.ndindex(counts.shape):
        a_raw = sum(W[i, k] * T[k, v] for k in range(T.shape[0]))
        total += naive_poisson_nll(counts[i, v], a_raw, EPSILON)
    return total


block_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    Q=st.integers(1, 4),
    N=st.integers(1, 5),
    V=st.integers(1, 5),
    K=st.integers(1, 3),
    tau=taus,
)


@given(**block_cases)
@settings(max_examples=40, deadline=None)
def test_block_values_match_the_summed_oracle(seed, Q, N, V, K, tau):
    W, mu, C, T, mask, grades, observed, counts = blocks_instance(seed, Q, N, V, K)
    lam, gamma, eta = 0.2, 0.4, 0.3
    bern = summed_bernoulli(mask, grades, W, mu, C, tau)
    pois = summed_poisson(counts, W, T)

    c_aug = np.vstack([C, np.ones((1, N))])
    X = np.hstack([W, mu[:, None]])
    sub = w_block_subproblem(observed, c_aug, counts, T, tau, lam, EPSILON)
    assert sub.smooth_value(X) == approx(bern + pois, rel=1e-12, abs=1e-12)
    sub = w_block_subproblem(observed, c_aug, np.zeros((Q, 0)), np.zeros((K, 0)),
                             tau, lam, EPSILON)
    assert sub.smooth_value(X) == approx(bern, rel=1e-12, abs=1e-12)

    sub = c_block_subproblem(observed, W, mu, gamma, tau)
    ridge_c = 0.5 * gamma * float(np.sum(C**2))
    assert sub.smooth_value(C) == approx(bern + ridge_c, rel=1e-12, abs=1e-12)

    sub = t_block_subproblem(counts, W, eta, EPSILON)
    ridge_t = 0.5 * eta * float(np.sum(T**2))
    assert sub.smooth_value(T) == approx(pois + ridge_t, rel=1e-12, abs=1e-12)


@given(**block_cases)
@settings(max_examples=40, deadline=None)
def test_objective_over_zero_words_is_the_grades_only_objective(seed, Q, N, V, K, tau):
    W, mu, C, _, mask, grades, _, _ = blocks_instance(seed, Q, N, V, K)
    assume(mask.any())
    lam, gamma, eta = 0.2, 0.4, 0.3
    qi, lj = np.nonzero(mask)
    responses = GradedResponseSet(Q, N, np.stack([qi, lj, grades[qi, lj]], axis=1))
    no_words = WordCountMatrix(Q, (), np.zeros((Q, 0)))
    state = FactorState(W, mu, C, np.zeros((K, 0)))
    expected = (summed_bernoulli(mask, grades, W, mu, C, tau)
                + lam * float(np.sum(np.abs(W))) + 0.5 * gamma * float(np.sum(C**2)))
    got = objective(responses, no_words, state, HyperParams(lam, gamma, eta, tau, K))
    assert got == approx(expected, rel=1e-12, abs=1e-12)


@given(**block_cases)
@settings(max_examples=25, deadline=None)
def test_block_gradients_match_central_differences_of_the_oracle(seed, Q, N, V, K,
                                                                 tau):
    W, mu, C, T, mask, grades, observed, counts = blocks_instance(seed, Q, N, V, K)
    lam, gamma, eta = 0.2, 0.4, 0.3
    c_aug = np.vstack([C, np.ones((1, N))])
    X = np.hstack([W, mu[:, None]])

    def tol(fd):
        return approx(fd, rel=1e-5, abs=1e-5)

    sub = w_block_subproblem(observed, c_aug, counts, T, tau, lam, EPSILON)
    fd = central_difference(
        lambda x: summed_bernoulli(mask, grades, x[:, :-1], x[:, -1], C, tau)
        + summed_poisson(counts, x[:, :-1], T),
        X,
    )
    assert sub.smooth_gradient(X) == tol(fd)

    sub = c_block_subproblem(observed, W, mu, gamma, tau)
    fd = central_difference(
        lambda c: summed_bernoulli(mask, grades, W, mu, c, tau)
        + 0.5 * gamma * float(np.sum(c**2)),
        C,
    )
    got = sub.smooth_gradient(C)
    assert got == tol(fd)
    # the learner with no observed grade only feels the ridge
    empty = np.flatnonzero(mask.sum(axis=0) == 0)
    assert got[:, empty] == approx(gamma * C[:, empty], rel=1e-15)

    sub = t_block_subproblem(counts, W, eta, EPSILON)
    fd = central_difference(
        lambda t: summed_poisson(counts, W, t) + 0.5 * eta * float(np.sum(t**2)),
        T,
    )
    got = sub.smooth_gradient(T)
    assert got == tol(fd)
    # a word with all-zero counts has slope 1 in every rate
    unused = np.flatnonzero(counts.sum(axis=0) == 0)
    expected = W.T @ np.ones((Q, unused.size)) + eta * T[:, unused]
    assert got[:, unused] == approx(expected, rel=1e-12)


@given(**block_cases, order_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_blocks_do_not_depend_on_the_order_of_the_observed_entries(seed, Q, N, V, K,
                                                                   tau, order_seed):
    W, mu, C, T, mask, grades, observed, counts = blocks_instance(seed, Q, N, V, K)
    cells, y = observed
    order = np.random.default_rng(order_seed).permutation(cells.size)
    shuffled = (cells[order], y[order])
    c_aug = np.vstack([C, np.ones((1, N))])
    X = np.hstack([W, mu[:, None]])

    for build, x in (
        (lambda g: w_block_subproblem(g, c_aug, counts, T, tau, 0.2, EPSILON), X),
        (lambda g: c_block_subproblem(g, W, mu, 0.4, tau), C),
    ):
        sub, moved = build(observed), build(shuffled)
        assert np.array_equal(moved.smooth_gradient(x), sub.smooth_gradient(x))
        assert moved.smooth_value(x) == approx(sub.smooth_value(x), rel=1e-12)
