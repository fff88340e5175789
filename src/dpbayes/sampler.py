"""Posterior sampling with trimmed Beta posteriors, and its exact sampler.

Answering a query with one posterior draw is itself a mechanism. If
one record moves the whole log-likelihood by at most L, one draw is
2L-DP (Dimitrakakis et al., ALT 2014). For Beta-Bernoulli networks the
bound is forced by trimming: every success probability is conditioned
into [omega, 1 - omega], omega = exp(-epsilon/2), so one factor's
log-probability changes by at most ln((1 - omega)/omega) < epsilon/2.

One record can move m factors at once, so one joint draw costs
2 m ln((1 - omega)/omega) < m epsilon. Flipping node i moves its own
factor and the factor of each child, so per unit of Hamming distance
m = max_i (1 + children(i)). Under replacement of a whole record, the
neighbouring relation of the laplace and fourier sensitivities,
m = |I|. Both give m = 17 for naive Bayes with 16 features. The
epsilon a sampler release carries is therefore a per-factor label:
omega is not yet calibrated to the graph.

The source paper also states a pure guarantee composed from per-node
Lipschitz constants and a stochastic one, an additive delta for priors
that concentrate on smooth parameters. No release reads either, so
neither is computed here.

The guarantee assumes exact draws from the trimmed posterior. A release
draws them all in one trimmed_beta_draws call, whose docstring proves
them exact and lists the blocks it takes from its generator. Posteriors
and draw blocks are tables in the graph module's entry order.

The naive-Bayes predictive, sampler_predictive_batch, takes a stack of
releases. Two workers, the calling thread and one helper thread, take
the releases in turn and each draws and scores whole releases, so both
threads call the scoring's BLAS product. The draws are the same exact
draws, each release reads its own keyed substream, and each is scored
alone, so the schedule moves no bit of any draw or probability.
"""
from __future__ import annotations

import math
import threading
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.special

from .errors import ConditionViolatedError, DimensionMismatchError, InvalidArgumentError
from .errors import OmegaTooLargeError, check_epsilon, check_integer
from .graph import BayesNetGraph, BetaParams, BetaTable, EntryTable, PosteriorMap
from .graph import check_update_stack, naive_bayes_graph
from .randomness import seed_grid, substream

_DRAW_TAG = "trimmed-posterior-draw"

# Conditioning mass from which a row tries one plain Beta proposal per slot,
# and the acceptance from which a row below it tries one envelope proposal.
PROPOSAL_MASS = 0.5

# Bytes of likelihoods naive_bayes_class1 holds at once: a block that stays
# in cache through the product, the in-place exp and the draw sums.
_BLOCK_BYTES = 2 * 2**20


def trim_bound(epsilon: float) -> float:
    """omega = exp(-epsilon/2); the trim interval is [omega, 1 - omega].

    On the interval one factor's log-probability changes by at most
    ln((1 - omega)/omega) < epsilon/2, so epsilon is a per-factor
    budget. A joint draw in which one record moves m factors costs
    2 m ln((1 - omega)/omega) < m epsilon (see the module docstring).

    Raises OmegaTooLargeError when omega >= 1/2 (epsilon <= 2 ln 2):
    the interval is empty or a single point, so the caller must raise
    epsilon or pick a smaller omega directly. Raises InvalidArgumentError
    when omega underflows to 0 (epsilon above ~1490): nothing is trimmed.
    """
    check_epsilon(epsilon)
    omega = math.exp(-epsilon / 2.0)
    if omega == 0.0:
        raise InvalidArgumentError(f"epsilon={epsilon} makes omega underflow to 0; no trim left")
    if omega >= 0.5:
        raise OmegaTooLargeError(
            f"epsilon={epsilon} gives omega={omega:.4f} >= 1/2; trim interval degenerate"
        )
    return omega


def _tangent_envelopes(
    a: np.ndarray, b: np.ndarray, mass: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangent point x0, log-slope g and log acceptance of each row's envelope on I.

    x0 is the mode (a - 1)/(a + b - 2) clipped into I (any point when
    a = b = 1), and g is the slope of log f at x0, or 0 when the mode
    lies inside I. The acceptance is mass / integral of h over I, with
    log f(x0) = (a - 1) log x0 + (b - 1) log(1 - x0) - log B(a, b) and
    the integral of exp(g (x - x0)) equal to w at g = 0 and to
    -expm1(-|g| w) / |g| otherwise, all in log space.
    """
    den = a + b - 2.0
    mode = np.divide(a - 1.0, den, out=np.full_like(a, 0.5), where=den > 0.0)
    x0 = np.clip(mode, omega, 1.0 - omega)
    g = np.where(mode == x0, 0.0, (a - 1.0) / x0 - (b - 1.0) / (1.0 - x0))
    width = 1.0 - 2.0 * omega
    rate = np.where(g == 0.0, 1.0, np.abs(g))
    log_z = np.where(
        g == 0.0, math.log(width), np.log(-np.expm1(-rate * width)) - np.log(rate)
    )
    log_f0 = (a - 1.0) * np.log(x0) + (b - 1.0) * np.log1p(-x0) - scipy.special.betaln(a, b)
    return x0, g, np.log(mass) - log_f0 - log_z


def trimmed_beta_draws(
    params: BetaParams | BetaTable,
    omega: float,
    rng: np.random.Generator,
    size: int = 1,
) -> np.ndarray:
    """Exact draws from Beta(alpha, beta) conditioned on I = [omega, 1 - omega].

    Inverse-CDF sampling (Devroye 1986, ch. II): one uniform per slot is
    mapped onto the interval's probability range [near, near + mass]
    and pushed through the regularized incomplete beta inverse. When the
    interval sits in the upper tail (CDF at omega above 1/2) the
    survival function and its inverse are used instead, so a tiny
    conditioning mass never cancels against 1. A mass that underflows
    to zero in double precision raises ConditionViolatedError; no
    boundary atom is ever substituted.

    Each row takes one of three routes. Write Q for the trimmed law and
    m for the row's mass on I.

    - Beta proposal, when m >= PROPOSAL_MASS: one plain Beta(alpha,
      beta) proposal Y per slot (Devroye 1986, ch. IX), kept when it
      lands in I. For any B inside I, P(Y in B) = m Q(B).
    - Tangent envelope, when m < PROPOSAL_MASS, alpha >= 1, beta >= 1
      and the envelope's acceptance A is at least PROPOSAL_MASS
      (Devroye 1986, ch. II.3 and VII). Then log f is concave on
      (0, 1), so it lies below its tangent at any point x0:
      log f(x) <= log f(x0) + g (x - x0) with g the slope of log f at
      x0. Hence h(x) = f(x0) exp(g (x - x0)) >= f(x) on I. Here x0 is
      the mode clipped into I and g = 0 when the mode lies inside I,
      where x0 maximizes f. One proposal X per slot is drawn from h
      normalized on I, as a truncated exponential measured from the
      end of I where h peaks, which is x0's end: X = x0 + T or x0 - T
      with T = -log1p(V expm1(-|g| w)) / |g| (T = V w when g = 0),
      w = 1 - 2 omega. It is kept when V' h(X) <= f(X). With H the
      integral of h over I and A = m / H,

          P(accept, X in B) = integral over B of (h(x) / H) (f(x) / h(x)) dx
                            = m Q(B) / H = A Q(B).

    - Inversion outright for every other row.

    A slot whose proposal misses (Y outside I, or X rejected) is
    inverted with its own uniform U from the first block. U is
    independent of the proposal and its inversion has law Q, so with
    p = m on the Beta route and p = A on the envelope route

        P(draw in B) = p Q(B) + (1 - p) Q(B) = Q(B).

    There is one proposal round and no retry. At p >= 1/2 at most half
    the slots, on average, pay for an inversion.

    params takes one of two forms: a single BetaParams gives `size`
    draws, and a BetaTable of m rows gives an (m, size) array, row r for
    the table's r-th row. `rng` yields, in
    order: one (m, size) uniform block; if any row takes the Beta
    route, one (k_beta, size) Beta block for those rows; if any row
    takes the envelope route, one (k_env, size, 2) uniform block for
    those rows, holding each slot's position uniform V and acceptance
    uniform V' side by side. Rows keep row order within each block. A
    single BetaParams consumes `rng` exactly as the one-row block does.
    """
    if not 0 < omega < 0.5:
        raise OmegaTooLargeError(f"omega must lie in (0, 1/2), got {omega}")
    single = isinstance(params, BetaParams)
    a, b = np.array([[params.alpha], [params.beta]], np.float64) if single else params.array.T
    u = rng.random((len(a), check_integer("size", size, 0)))
    cdf_lo = scipy.special.betainc(a, b, omega)
    upper = cdf_lo > 0.5
    # each tail only on the rows that read it: betaincc costs several times betainc
    near, far = cdf_lo.copy(), np.empty_like(cdf_lo)
    near[upper] = scipy.special.betaincc(a[upper], b[upper], 1.0 - omega)
    far[upper] = scipy.special.betaincc(a[upper], b[upper], omega)
    far[~upper] = scipy.special.betainc(a[~upper], b[~upper], 1.0 - omega)
    mass = far - near
    empty = np.flatnonzero(~(mass > 0.0))
    if empty.size:
        bad = empty[0]
        raise ConditionViolatedError(
            f"Beta({a[bad]:.6g}, {b[bad]:.6g}) puts no representable mass on "
            f"[{omega:.6g}, {1.0 - omega:.6g}]"
        )
    out = np.empty_like(u)
    miss = np.ones(u.shape, dtype=bool)
    propose = mass >= PROPOSAL_MASS
    if propose.any():
        y = rng.beta(a[propose, None], b[propose, None], (np.count_nonzero(propose), size))
        out[propose] = y
        miss[propose] = (y < omega) | (y > 1.0 - omega)
    rows = np.flatnonzero(~propose & (a >= 1.0) & (b >= 1.0))
    x0, g, log_accept = _tangent_envelopes(a[rows], b[rows], mass[rows], omega)
    keep = log_accept >= math.log(PROPOSAL_MASS)
    rows, x0, g = rows[keep], x0[keep, None], g[keep, None]
    if rows.size:
        v = rng.random((rows.size, size, 2))
        ra, rb = a[rows, None] - 1.0, b[rows, None] - 1.0
        width = 1.0 - 2.0 * omega
        rate = np.where(g == 0.0, 1.0, np.abs(g))
        t = np.where(
            g == 0.0, v[..., 0] * width, -np.log1p(v[..., 0] * np.expm1(-rate * width)) / rate
        )
        x = np.where(g > 0.0, 1.0 - omega - t, omega + t)
        log_ratio = (
            ra * (np.log(x) - np.log(x0)) + rb * (np.log1p(-x) - np.log1p(-x0)) - g * (x - x0)
        )
        out[rows] = x
        miss[rows] = v[..., 1] > np.exp(log_ratio)
    for invert, tail in (
        (scipy.special.betaincinv, ~upper),
        (scipy.special.betainccinv, upper),
    ):
        rows, cols = np.nonzero(miss & tail[:, None])
        out[rows, cols] = invert(a[rows], b[rows], near[rows] + u[rows, cols] * mass[rows])
    # The clip only absorbs ulp rounding of the inverse and of the envelope
    # positions at the interval ends.
    np.clip(out, omega, 1.0 - omega, out=out)
    return out[0] if single else out


def trimmed_posterior_draws(
    posterior: PosteriorMap, omega: float, seed: int, samples: int
) -> EntryTable:
    """`samples` trimmed draws per posterior entry: one (m, samples) block, one keyed substream.

    Rows follow the posterior's table, so a dict is drawn in sorted key order.
    """
    table = BetaTable.of(posterior)
    block = trimmed_beta_draws(table, omega, substream(seed, _DRAW_TAG), samples)
    return EntryTable(table.order, block)


def trimmed_posterior_sample(posterior: PosteriorMap, epsilon: float, seed: int) -> EntryTable:
    """One trimmed draw per posterior entry, omega = exp(-epsilon/2): a one-column block."""
    draws = trimmed_posterior_draws(posterior, trim_bound(epsilon), seed, 1)
    return EntryTable(draws.order, draws.array[:, 0])


def naive_bayes_params(posterior: PosteriorMap, d: int) -> BetaTable:
    """The posterior's table, checked to list the entries of naive_bayes_graph(d).

    That is class (0, 0), then (f, 0), (f, 1) per feature f = 1..d; any
    other key set raises DimensionMismatchError.
    """
    keys = naive_bayes_graph(d).entry_keys()
    return BetaTable.keyed("naive-Bayes posterior rows", posterior, keys)


def naive_bayes_class1(theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Pr(Y=1 | x) for every group of draws and every row of X: (G, rows).

    theta is (m, G, S): one row per entry in naive_bayes_params order and
    G groups of S draw columns; each group averages over its own S. A
    stack of R such sets, (R, m, G, S), is scored against an (R, rows, d)
    stack of X, set r against its own rows X[r], into one (R, G, rows)
    stack; one set is the R = 1 case of that stack. Every theta must lie
    strictly inside (0, 1), or InvalidArgumentError is raised: a log of 0
    would turn the product into NaN. Per draw,
    log p_y(x) = c_y[s] + x . (log theta_y - log(1 - theta_y))[:, s]
    with c_y[s] the class term plus the sum of log(1 - theta_y). Every
    column, ordered (group, class, draw), of a set's (d+1) x 2GS matrix is
    [log-odds | c], so its product with the columns [x | 1] gives every
    row's 2GS log-likelihoods, one column per row of X. The columns of
    every set are built in one vectorised pass; each set then takes its
    own products, of the same shape as when it is scored alone.

    The product is taken in blocks of columns, and exp runs in place on
    one buffer of at most _BLOCK_BYTES, reused by every block of every
    set, so the likelihoods stay in cache between the product, the exp
    and the sum. (It is larger only when 2 x rows doubles, or 2GS, exceed
    that.) The class sums of a set go to one (G, 2, rows) buffer, also
    reused, and only its probabilities to the output stack. A (group,
    class) segment of S columns sums its draws into one row per row of
    X; a segment of one draw is its own sum, so the product writes it
    there and exp runs on it in place. When S fits in a block, a block
    holds whole segments, so the S = 1 posterior means of many groups
    are one product. When it does not, a block holds a run of one
    segment's draws, and the segment's partial sum rides along as row 0
    of the next run's reduction. Either way
    every segment adds its draws one at a time in ascending order, as a
    sum over the whole segment does, so the result differs from one
    unblocked product only by how BLAS rounds a product of another shape.
    For the same reason each group matches a call with that group alone
    up to that rounding (none seen with OpenBLAS at S = 1, or when each
    segment fills blocks of its own), and each set matches a call with
    that set alone bit for bit.

    No column is shifted by its max first. For feature bits each
    log-likelihood is a sum of log-probabilities, so it is <= 0 and its
    exp cannot overflow. When a group's sum p0 + p1 is at least 2^-900,
    its largest term is at least 2^-900 / 2S, still a normal double for
    any S below 2^100; the subnormal terms that underflow beside it each
    lose less than 2^-1074, at most a 2S * 2^-174 share of the sum, so
    p1 / (p0 + p1) keeps full precision. Rows with a (group, row) sum
    outside [2^-900, 2^900] (about 1000 features, or a non-binary x that
    can overflow) are recomputed, per set, with each group's 2S block
    shifted by its own max, which makes its largest term exactly 1, and
    only the out-of-window cells take the new values. The recomputation
    reuses the buffer, taking those rows of X in chunks of as many as
    their 2GS likelihoods each fit. The class sums reduce over the draw
    axis, which comes before the row axis: a reduction along a short
    trailing axis (2S = 2 for a single column of means) costs numpy a
    call per row of X.
    """
    one_set = theta.ndim == 3
    d = theta.shape[-3] // 2
    X = np.asarray(X)
    if X.ndim != theta.ndim - 1 or X.shape[-1] != d or (not one_set and len(X) != len(theta)):
        per_set = "" if one_set else f"{len(theta)} sets of "
        raise DimensionMismatchError(
            f"X must be {per_set}rows of {d} feature bits, got shape {X.shape}"
        )
    if one_set:
        theta, X = theta[None], X[None]
    sets, _, groups, samples = theta.shape
    inside = (0.0 < theta) & (theta < 1.0)
    if not inside.all():
        raise InvalidArgumentError(
            f"every theta must lie strictly inside (0, 1), got {theta[~inside][0]}"
        )
    # per_class[r, f, g, y, s] for feature f given class value y in draw s of group g of set r
    per_class = np.stack([theta[:, 1::2], theta[:, 2::2]], axis=3)
    log_1mth = np.log1p(-per_class)
    # coef[r, :, g, y, s] = [log-odds of every feature | c_y[s]] of group g of set r
    coef = np.empty((sets, d + 1, groups, 2, samples))
    np.subtract(np.log(per_class), log_1mth, out=coef[:, :d])
    coef[:, d] = log_1mth.sum(axis=1) + np.stack(
        [np.log1p(-theta[:, 0]), np.log(theta[:, 0])], axis=2
    )
    # rows[:, i] = [x_i | 1] of the set being scored
    n = X.shape[1]
    rows = np.empty((d + 1, n))
    rows[d] = 1.0
    # a block is `run` draws of each of `per` segments, under a carried row 0
    block_rows = max(1, _BLOCK_BYTES // (8 * max(n, 1)) - 1)
    run = min(samples, block_rows)
    per = min(2 * groups, max(1, block_rows // samples))
    buf = np.empty(max((per * run + 1) * n, 2 * groups * samples))
    sums = np.empty((2 * groups, n))
    by_class = sums.reshape(groups, 2, n)
    total = np.empty((groups, n))
    out = np.empty((sets, groups, n))
    for r in range(sets):
        columns = coef[r].reshape(d + 1, -1).T  # 2GS x (d+1)
        rows[:d] = X[r].T
        with np.errstate(over="ignore"):
            for seg in range(0, 2 * groups, per):
                k = min(per, 2 * groups - seg)
                for start in range(0, samples, run):
                    width = min(run, samples - start)
                    block = buf[: (1 + k * width) * n].reshape(1 + k * width, n)
                    # a segment's first run of one draw is its own sum
                    direct = width == 1 and not start
                    lik = sums[seg : seg + k] if direct else block[1:]
                    at = seg * samples + start
                    np.matmul(columns[at : at + k * width], rows, out=lik)
                    np.exp(lik, out=lik)
                    if start:
                        block[0] = sums[seg]
                        block.sum(axis=0, out=sums[seg])
                    elif not direct:
                        lik.reshape(k, width, n).sum(axis=1, out=sums[seg : seg + k])
        np.add(by_class[:, 0], by_class[:, 1], out=total)
        redo = (total < 2.0**-900) | (total > 2.0**900)
        if redo.any():
            hit = np.flatnonzero(redo.any(axis=0))
            chunk = len(buf) // len(columns)
            for at in range(0, hit.size, chunk):
                cells = hit[at : at + chunk]
                # the max-shifted formula, written into the front of the buffer
                shifted = buf[: len(columns) * cells.size].reshape(len(columns), -1)
                np.matmul(columns, rows[:, cells], out=shifted)
                shifted = shifted.reshape(groups, 2 * samples, -1)
                shifted -= shifted.max(axis=1, keepdims=True)
                np.exp(shifted, out=shifted)
                fixed = shifted.reshape(groups, 2, samples, -1).sum(axis=2)
                kept = by_class[:, :, cells]
                by_class[:, :, cells] = np.where(redo[:, None, cells], fixed, kept)
            np.add(by_class[:, 0], by_class[:, 1], out=total)
        np.divide(by_class[:, 1], total, out=out[r])
    return out[0] if one_set else out


def sampler_predictive_batch(
    graph: BayesNetGraph,
    posterior: PosteriorMap | np.ndarray,
    X: np.ndarray,
    epsilon: float | Sequence[float],
    samples: int,
    seed: int | Sequence[Sequence[int]] | np.ndarray,
) -> np.ndarray:
    """Monte Carlo class-1 probabilities for rows of X under trimming.

    graph must be naive_bayes_graph(d) for some d >= 1. A release is the
    (m, samples) block of trimmed_posterior_draws, in the graph's entry
    order, fed to naive_bayes_class1 as its one group.

    One release takes a posterior mapping, (n, d) rows of X, a float
    epsilon and an int seed, and gives (n,) probabilities. A stack of
    releases takes an (R, m, 2) array of (alpha, beta) rows in
    naive_bayes_params order, an (R, n, d) stack of X, E epsilons and an
    (R, E) grid of seeds, and gives (R, E, n) probabilities: entry
    (r, e) is the one release of posterior r, X[r], epsilon e and seed
    (r, e), bit for bit. Any other shape is a DimensionMismatchError,
    raised before anything is drawn.

    A stack hands out its releases in (r, e) order to two workers, the
    calling thread and one helper thread. Each takes the next release
    whenever it is free, draws it from its own substream(seed,
    "trimmed-posterior-draw") and scores it alone, as one release is, so
    a stack holds at most two draw blocks at once, one per worker. Draws
    stay exact and each keeps its own stream, so the schedule changes no
    output. Once a release fails no worker takes another, and those
    already taken run to their end. Every release before a failing one
    was taken before it, so the error raised is that of the first
    failing release in (r, e) order, as a loop over the releases would
    raise it. The helper is joined before the call returns or raises.
    One release starts no thread.
    """
    check_integer("samples", samples, 1)
    one = isinstance(posterior, Mapping)
    if not one and np.ndim(epsilon) != 1:
        raise DimensionMismatchError(f"need a sequence of epsilons, got {epsilon!r}")
    omegas = [trim_bound(epsilon)] if one else [trim_bound(eps) for eps in epsilon]
    d = graph.node_count - 1
    if not d or graph != naive_bayes_graph(d):
        raise ConditionViolatedError(
            "the predictive needs a naive-Bayes graph: node 0 the sole parent of nodes 1..d, d >= 1"
        )
    if one:
        draws = trimmed_posterior_draws(naive_bayes_params(posterior, d), omegas[0], seed, samples)
        return naive_bayes_class1(draws.array[:, None, :], X)[0]
    stack = check_update_stack(posterior, 2 * d + 1).astype(np.float64, copy=False)
    X = np.asarray(X)
    if X.ndim != 3 or X.shape[::2] != (len(stack), d):
        raise DimensionMismatchError(
            f"X must be {len(stack)} sets of rows of {d} feature bits, got shape {X.shape}"
        )
    seeds = seed_grid(seed, len(stack), len(omegas)).tolist()
    tables = [BetaTable(graph.entry_keys(), rows) for rows in stack]
    # release k is (r, e) = divmod(k, E): the workers share one iterator in (r, e) order
    jobs, taking = iter(range(len(tables) * len(omegas))), threading.Lock()
    failed: dict[int, BaseException] = {}  # each failing release's error, by release index

    def draw(r: int, e: int) -> np.ndarray:
        return trimmed_posterior_draws(tables[r], omegas[e], seeds[r][e], samples).array

    def work() -> None:
        while True:
            with taking:
                k = None if failed else next(jobs, None)
            if k is None:
                return
            r, e = divmod(k, len(omegas))
            try:
                # no name holds the block, so it is freed before the worker draws again
                out[r, e] = naive_bayes_class1(draw(r, e)[:, None, :], X[r])[0]
            except BaseException as exc:
                failed[k] = exc

    out = np.empty((len(tables), len(omegas), X.shape[1]))
    with ThreadPoolExecutor(1) as helper:
        other = helper.submit(work)
        work()
        other.result()
    if failed:
        raise failed[min(failed)]
    return out
