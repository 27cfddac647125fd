"""Property tests of the likelihood kernels and the block subproblems built on them."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from pytest import approx

from conceptfit.estimator import _centred, _rebalanced
from conceptfit.model import (
    FactorState,
    GradedResponseSet,
    HyperParams,
    WordCountMatrix,
    bernoulli_nll,
    inverse_logit,
    objective,
    poisson_nll,
)
from conceptfit.solvers import (
    c_block_subproblem,
    c_column_subproblem,
    t_block_subproblem,
    t_column_subproblem,
    w_block_subproblem,
    w_row_subproblem,
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


def grade_slopes(y, z, tau):
    """Each cell's slope in its slack, tau-scaled, from the one-column C view.

    With W = I, mu = 0 and gamma = 0 the slacks are the variable and the
    gradient is the slope of each cell.
    """
    n = z.size
    sub = c_column_subproblem(y.ravel(), np.eye(n), np.zeros(n), 0.0, tau)
    return sub.smooth_gradient(z.ravel()).reshape(z.shape)


def count_slopes(b, a_raw):
    """Each cell's slope 1 - b / max(a_raw, epsilon), from the one-column T view.

    With W = I and eta = 0 the rates are the variable and the gradient is
    the slope of each cell.
    """
    n = a_raw.size
    sub = t_column_subproblem(b.ravel(), np.eye(n), 0.0, EPSILON)
    return sub.smooth_gradient(a_raw.ravel()).reshape(a_raw.shape)


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


@given(y=st.sampled_from([0.0, 1.0]),
       tz=st.one_of(st.floats(-1e300, 1e300), edge_floats.filter(math.isfinite)),
       b=st.integers(0, 1000))
@settings(deadline=None)
def test_one_row_views_raise_no_floating_point_error(y, tz, b):
    # the W-row view at [w | mu] = [s, s] over one concept: a zero knowledge
    # row leaves the difficulty as each grade's slack and w * 1 as the word's
    # rate; the C-column view would square s in its ridge, overflowing by itself
    c_obs = np.array([[0.0, 0.0], [1.0, 1.0]])
    sub = w_row_subproblem([y, 1.0 - y], c_obs, [b], np.ones((1, 1)), 1.0, 0.2, EPSILON)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for s in (tz, -tz):
            sub.smooth_value(np.array([s, s]))
            sub.smooth_gradient(np.array([s, s]))


@given(data=st.data(), shape=shapes, tau=taus)
@settings(max_examples=100, deadline=None)
def test_bernoulli_slope_is_the_derivative_of_the_oracle(data, shape, tau):
    z = data.draw(arrays(float, shape, elements=st.floats(-5, 5)))
    y = data.draw(arrays(float, shape, elements=st.sampled_from([0.0, 1.0])))
    got = grade_slopes(y, z, tau)
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
    got = count_slopes(b, a_raw)
    for idx in np.ndindex(shape):
        fd = scalar_difference(
            lambda v: naive_poisson_nll(b[idx], v, EPSILON), a_raw[idx]
        )
        assert got[idx] == approx(fd, rel=1e-6, abs=1e-6)


@given(b=st.integers(0, 20), a_raw=st.floats(-3.0, EPSILON))
def test_poisson_slope_uses_the_floored_rate_at_or_below_the_floor(b, a_raw):
    assert count_slopes(np.array([b]), np.array([a_raw]))[0] == approx(
        1.0 - b / EPSILON, rel=1e-15)
    assert poisson_nll(b, a_raw, EPSILON) == approx(
        naive_poisson_nll(b, a_raw, EPSILON), rel=1e-15
    )


@given(y=st.sampled_from([0, 1]), z=st.floats(-400, 400), tau=taus)
def test_scalar_kernels_return_floats(y, z, tau):
    assert isinstance(bernoulli_nll(y, z, tau), float)
    assert isinstance(poisson_nll(y, z, EPSILON), float)


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


@given(**block_cases, scales=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       no_w=st.sets(st.integers(0, 2)), no_ct=st.sets(st.integers(0, 2)))
@settings(max_examples=60, deadline=None)
def test_the_scale_step_moves_each_concept_to_its_penalty_minimum(seed, Q, N, V, K, tau,
                                                                  scales, no_w, no_ct):
    W, mu, C, T, mask, grades, _, counts = blocks_instance(seed, Q, N, V, K)
    assume(mask.any())
    W = W * 10.0 ** np.array(scales[:K])  # concepts far from their balanced scale
    W[:, [k for k in no_w if k < K]] = 0.0
    C[[k for k in no_ct if k < K]] = 0.0
    T[[k for k in no_ct if k < K]] = 0.0
    params = HyperParams(0.2, 0.4, 0.3, tau, K)
    W2, C2, T2 = _rebalanced(W, C, T, params)

    # both products, and so both likelihoods, stay as they were
    assert np.all(np.abs(W2 @ C2 - W @ C) <= 1e-12 * (W @ np.abs(C)))
    assert np.all(np.abs(W2 @ T2 - W @ T) <= 1e-12 * (W @ T))
    qi, lj = np.nonzero(mask)
    responses = GradedResponseSet(Q, N, np.stack([qi, lj, grades[qi, lj]], axis=1))
    word_counts = WordCountMatrix(Q, tuple(f"w{v}" for v in range(V)), counts)
    before = objective(responses, word_counts, FactorState(W, mu, C, T), params)
    after = objective(responses, word_counts, FactorState(W2, mu, C2, T2), params)
    assert after <= before + 1e-12 * abs(before)

    # the penalty's slope along each moved concept's scale, lam a - (gamma c + eta t), is 0
    moved = (W.sum(axis=0) > 0) & ((C * C).sum(axis=1) + (T * T).sum(axis=1) > 0)
    assert (params.lam * W2.sum(axis=0))[moved] == approx(
        (params.gamma * (C2 * C2).sum(axis=1) + params.eta * (T2 * T2).sum(axis=1))[moved],
        rel=1e-12)
    # a concept with no scale to move comes back bit for bit
    assert same_bits(W2[:, ~moved], W[:, ~moved])
    assert same_bits(C2[~moved], C[~moved]) and same_bits(T2[~moved], T[~moved])


@given(**block_cases, scales=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       offsets=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
       no_w=st.sets(st.integers(0, 2)), no_ct=st.sets(st.integers(0, 2)))
@settings(max_examples=60, deadline=None)
def test_the_shift_then_the_scale_move_each_concept_to_its_penalty_minimum(
        seed, Q, N, V, K, tau, scales, offsets, no_w, no_ct):
    W, mu, C, T, mask, grades, _, counts = blocks_instance(seed, Q, N, V, K)
    assume(mask.any())
    W = W * 10.0 ** np.array(scales[:K])  # concepts far from their balanced scale
    C = C + np.array(offsets[:K])[:, None]  # and far from mean knowledge 0
    W[:, [k for k in no_w if k < K]] = 0.0
    C[[k for k in no_ct if k < K]] = 0.0
    T[[k for k in no_ct if k < K]] = 0.0
    params = HyperParams(0.2, 0.4, 0.3, tau, K)
    mu1, C1 = _centred(W, mu, C)
    W2, C2, T2 = _rebalanced(W, C1, T, params)

    # W C + mu and W T, and so both likelihoods, stay as they were; the
    # shift moves magnitude between mu and C, so the rounding follows the
    # larger side's W |C| + |mu|
    size = np.maximum(W @ np.abs(C) + np.abs(mu)[:, None],
                      W2 @ np.abs(C2) + np.abs(mu1)[:, None])
    assert np.all(np.abs(W2 @ C2 + mu1[:, None] - (W @ C + mu[:, None])) <= 1e-12 * size)
    assert np.all(np.abs(W2 @ T2 - W @ T) <= 1e-12 * (W @ T))
    # each row of the shifted C has mean 0, the minimiser of its ridge
    assert np.all(np.abs(C1.mean(axis=1)) <= 1e-12 * np.abs(C).max(axis=1))
    qi, lj = np.nonzero(mask)
    responses = GradedResponseSet(Q, N, np.stack([qi, lj, grades[qi, lj]], axis=1))
    word_counts = WordCountMatrix(Q, tuple(f"w{v}" for v in range(V)), counts)
    before = objective(responses, word_counts, FactorState(W, mu, C, T), params)
    after = objective(responses, word_counts, FactorState(W2, mu1, C2, T2), params)
    assert after <= before + 1e-12 * abs(before)

    # the penalty's slope along each moved concept's scale, lam a - (gamma c + eta t),
    # is 0, with c taken on the centred C
    moved = (W.sum(axis=0) > 0) & ((C1 * C1).sum(axis=1) + (T * T).sum(axis=1) > 0)
    assert (params.lam * W2.sum(axis=0))[moved] == approx(
        (params.gamma * (C2 * C2).sum(axis=1) + params.eta * (T2 * T2).sum(axis=1))[moved],
        rel=1e-12)
    # a concept with no knowledge, no words and so nothing to move comes back
    # bit for bit, and so do the difficulties when no concept shifts
    still = [k for k in no_ct if k < K]
    assert same_bits(W2[:, still], W[:, still])
    assert same_bits(C2[still], C[still]) and same_bits(T2[still], T[still])
    if len(still) == K:
        assert same_bits(mu1, mu)
