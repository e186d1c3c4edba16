"""Independent oracles used to pin expected values.

Everything here is deliberately written against first definitions
(series identities, direct sampling of the defining random objects),
never through the code paths under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def poisson_tail_gamma_cdf(k: int, x: float) -> float:
    """Gamma(k, 1) CDF via the Poisson tail identity.

    P(Gamma(k) <= x) = P(N_x >= k) = 1 - sum_{j<k} e^-x x^j / j!
    for integer k >= 1 (and 1 for k == 0 by the point-mass convention).
    """
    if k == 0:
        return 1.0
    terms = []
    log_t = -x
    for j in range(k):
        terms.append(math.exp(log_t))
        log_t += math.log(x) - math.log(j + 1) if x > 0 else -math.inf
    return 1.0 - math.fsum(terms)


def binomial_sum_beta_cdf(x: float, a: int, b: int) -> float:
    """Beta(a, b) CDF via the binomial-sum identity for integer a, b >= 1.

    I_x(a, b) = sum_{j=a}^{a+b-1} C(a+b-1, j) x^j (1-x)^(a+b-1-j).
    """
    n = a + b - 1
    return math.fsum(
        math.comb(n, j) * x**j * (1.0 - x) ** (n - j) for j in range(a, n + 1)
    )


def mc_channel_cdfs(n, y, z, t, u, xs, n_cond_samples, rng):
    """Conditional Monte Carlo estimate of both channel endpoint CDFs.

    Draws the six a-random interval endpoints (unit-scale gamma lower
    ends with shapes (n, y, z); independent unit-exponential gaps),
    conditions on the interval for s intersecting s >= 0
    (N_u >= Y_l / t), and returns

        F_lower(x) = P(N_l <= Y_u/t + x Z_u/u | cond)
        F_upper(x) = P(N_u <= Y_l/t + x Z_l/u | cond)

    at each x, plus the accepted-sample count for binomial errors.
    Sampling continues until n_cond_samples draws satisfy the
    conditioning event.
    """
    xs = np.asarray(xs, dtype=float)
    f_lo = np.zeros(xs.size)
    f_up = np.zeros(xs.size)
    accepted = 0
    while accepted < n_cond_samples:
        m = int(min(max((n_cond_samples - accepted) * 1.3, 100_000), 4_000_000))
        nl = rng.gamma(n, 1.0, m) if n > 0 else np.zeros(m)
        nu = nl + rng.exponential(1.0, m)
        yl = rng.gamma(y, 1.0, m) if y > 0 else np.zeros(m)
        yu = yl + rng.exponential(1.0, m)
        zl = rng.gamma(z, 1.0, m) if z > 0 else np.zeros(m)
        zu = zl + rng.exponential(1.0, m)
        keep = nu >= yl / t
        nl, nu, yl, yu, zl, zu = (
            v[keep][: n_cond_samples - accepted]
            for v in (nl, nu, yl, yu, zl, zu)
        )
        accepted += nl.size
        for i, x in enumerate(xs):
            f_lo[i] += np.count_nonzero(nl <= yu / t + x * zu / u)
            with np.errstate(invalid="ignore"):
                f_up[i] += np.count_nonzero(nu <= yl / t + x * zl / u)
    return f_lo / accepted, f_up / accepted, accepted


def mc_posterior_ratio_cdf(shapes, scales, xs, n_draws, rng):
    """Monte Carlo CDF of (G_n - G_b) / G_e conditioned on G_n >= G_b.

    G's are independent gammas with the given (shape, scale) triples;
    returns the conditional frequency at each x and the accepted count.
    """
    (kn, kb, ke), (wn, wb, we) = shapes, scales
    gn = rng.gamma(kn, wn, n_draws)
    gb = rng.gamma(kb, wb, n_draws)
    ge = rng.gamma(ke, we, n_draws)
    keep = gn >= gb
    s = (gn[keep] - gb[keep]) / ge[keep]
    xs = np.asarray(xs, dtype=float)
    est = np.array([np.count_nonzero(s <= x) for x in xs], dtype=float)
    return est / s.size, s.size


def mc_interval_commonality(count, scale, lo, hi, n_samples, rng):
    """Fraction of sampled a-random intervals containing [lo, hi]."""
    left = rng.gamma(count, scale, n_samples) if count > 0 else np.zeros(n_samples)
    right = left + rng.exponential(scale, n_samples)
    return float(np.mean((left <= lo) & (right >= hi)))


def mc_credibility(limit, n, y, z, t, u, b_prior, e_prior, n_draws, rng):
    """Credibility by sampling s as well (no closed-form inner integral).

    Draws (b, eps) from their posteriors, then s from an exponential
    envelope... actually integrates P(S <= limit) by drawing s uniform
    on a wide range with importance weights equal to the Poisson
    likelihood; kept simple and fully independent of the tested path.
    """
    shape_b = b_prior[0] ** 2 / b_prior[1] ** 2
    scale_b = b_prior[1] ** 2 / b_prior[0]
    shape_e = e_prior[0] ** 2 / e_prior[1] ** 2
    scale_e = e_prior[1] ** 2 / e_prior[0]
    bs = rng.gamma(shape_b + y, scale_b / (1 + t * scale_b), n_draws)
    es = rng.gamma(shape_e + z, scale_e / (1 + u * scale_e), n_draws)
    s_hi = (n + 10.0 * math.sqrt(n + 1.0) + 20.0) / max(es.min(), 1e-12)
    ss = rng.uniform(0.0, s_hi, n_draws)
    lam = es * ss + bs
    w = np.exp(n * np.log(lam) - lam - math.lgamma(n + 1))
    den = float(np.mean(w))
    num = float(np.mean(w * (ss <= limit)))
    return num / den


def conditioning_mass(kn: int, kb: int, t: float) -> float:
    """P(A >= B) for A ~ Gamma(kn, 1) and B ~ Gamma(kb, 1/t), kn >= 1:
    the regularized incomplete beta I_x(kb, kn) at x = t / (1 + t), as
    B / (A + B) on the unit scale is Beta(kb, kn).  For integer shapes,
    with m = kb + kn - 1 and t = p / q exactly,
    I_x(kb, kn) = sum_{kb <= j <= m} C(m, j) x^j (1 - x)^(m - j)
                = sum_j C(m, j) p^j q^(m - j) / (p + q)^m,
    a ratio of integers summed exactly and rounded once; 1 at kb == 0."""
    if kb == 0:
        return 1.0
    (p, q), m = t.as_integer_ratio(), kb + kn - 1
    total, term = 0, 1  # term = C(m, j) q^(m - j)
    for j in range(m, kb - 1, -1):  # Horner in p, from the top term down
        total = total * p + term
        term = term * j * q // (m - j + 1)
    return total * p**kb / (p + q) ** m


def _nb_law(r: int, success: float, ks: np.ndarray):
    """pmf and survival function of NB(r) at ks by scipy (its CDF is a
    regularized incomplete beta), with scipy's success probability
    ``success`` = 1 - p; r == 0 is the point mass at 0 and success == 0
    (x = inf) puts all mass at infinity."""
    from scipy.stats import nbinom

    if r == 0:
        return (ks == 0).astype(float), np.zeros(ks.shape)
    if success == 0.0:
        return np.zeros(ks.shape), np.ones(ks.shape)
    return nbinom.pmf(ks, r, success), nbinom.sf(ks, r, success)


def nb_convolution_survival(x, kn, wn, kb, wb, ke, we) -> float:
    """P(A > B + x E) for integer shapes as the negative binomial
    convolution sum_{m < kn} P(NB(kb, pb) = m) P(NB(ke, pe) <= kn - 1 - m),
    pb = wb / (wn + wb), pe = x we / (wn + x we), with the success
    probabilities 1 - p taken from the scales, never from a rounded p."""
    if kn == 0:
        return 0.0
    ms = np.arange(kn)
    pmf_b, _ = _nb_law(kb, wn / (wn + wb), ms)
    _, sf_e = _nb_law(ke, 0.0 if math.isinf(x) else wn / (wn + x * we), ms)
    return float(np.sum(pmf_b * (1.0 - sf_e[::-1])))


def nb_convolution_integral(x, kn, wn, kb, wb, ke, we) -> float:
    """J(x) = int_0^x P(A > B + v E) dv for integer shapes, ke >= 2, from
    the identity J(x) = c / (ke - 1) E[min(K, (kn - B)^+)], c = wn / we,
    K ~ NB(ke - 1, pe(x)), B ~ NB(kb, pb), summed with scipy's nbinom:
    E[min(K, L)] = sum_{j < L} P(K > j)."""
    ms = np.arange(kn)
    pmf_b, _ = _nb_law(kb, wn / (wn + wb), ms)
    _, sf_k = _nb_law(ke - 1, 0.0 if math.isinf(x) else wn / (wn + x * we), ms)
    partial = np.cumsum(sf_k)  # partial[L - 1] = E[min(K, L)]
    return wn / we / (ke - 1) * float(np.sum(pmf_b * partial[::-1]))


def bisection_root(reached, rel_tol: float = 1e-12, cap: float = 1e15) -> float:
    """Root of a monotone scalar predicate on x >= 0 by plain bisection.

    reached(x) is False below the root and True from it on.  The bracket
    starts at [0, 1] and doubles while reached(hi) is False; it is then
    halved until hi - lo <= rel_tol * max(hi, 1e-300), and its midpoint
    is returned.  Raises ValueError past ``cap``.
    """
    lo, hi = 0.0, 1.0
    while not reached(hi):
        lo, hi = hi, 2.0 * hi
        if hi > cap:
            raise ValueError(f"root bracket exceeded {cap:g}")
    while hi - lo > rel_tol * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sample_exponential(rng, scale: float, size=None):
    """Draw from Expo(scale) (mean = scale) on the stream of an RngHandle."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    out = rng.generator.exponential(scale, size=size)
    return float(out) if size is None else out


def sample_gamma(rng, shape: float, scale: float, size=None):
    """Draw from Gamma(shape, scale); shape == 0 returns exactly 0."""
    if shape < 0:
        raise ValueError("shape must be >= 0")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if shape == 0:
        return 0.0 if size is None else np.zeros(size)
    out = rng.generator.gamma(shape, scale, size=size)
    return float(out) if size is None else out


# The Poisson belief-interval model.  Observing a count k from a Poisson
# process with unknown rate L brackets the rate between the k-th and
# (k+1)-th transition times of a unit-rate process: the lower endpoint is
# Gamma(k) distributed (0 exactly when k == 0) and the gap to the upper
# endpoint is an independent unit exponential.  A count observed at a
# known scale t (a Pois(t*L) count) brackets L by the same interval
# divided by t, which is what the ``scale`` field expresses.  The DS
# limits are built on this model in closed form; these first-definition
# functionals check it.


@dataclass(frozen=True)
class ARandomIntervalLaw:
    """Joint law of the interval (lower, upper) bounding a Poisson rate.

    count is the observed k; scale is 1 for a plain Poisson count and
    1/t for a count observed through Pois(t * rate).  The lower
    endpoint is Gamma(count, scale) with the count == 0 degenerate-at-
    zero convention; the gap (upper - lower) is an independent
    Expo(scale).
    """

    count: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.count < 0 or self.count != int(self.count):
            raise ValueError("count must be a nonnegative integer")
        if not self.scale > 0:
            raise ValueError("scale must be positive")


def commonality(law: ARandomIntervalLaw, lo: float, hi: float) -> float:
    """P(lower <= lo and upper >= hi): the mass on intervals containing
    [lo, hi], equal to (1/k!) (lo/scale)^k e^{-hi/scale}.

    Computed in the log domain so large counts do not overflow the
    factorial.
    """
    if lo < 0 or hi < lo:
        raise ValueError("commonality requires 0 <= lo <= hi")
    k = law.count
    u = lo / law.scale
    v = hi / law.scale
    if k == 0:
        return math.exp(-v)
    if u == 0.0:
        return 0.0
    return math.exp(k * math.log(u) - v - math.lgamma(k + 1))


def singleton_plausibility(law: ARandomIntervalLaw, lam: float) -> float:
    """Probability that the random interval covers the single rate lam.

    Identical to ``commonality(law, lam, lam)``; also expressible as
    F_lower(lam) - F_upper(lam), the gap between the endpoint CDFs.
    Each plausibility curve integrates to ``scale``.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return commonality(law, lam, lam)


def sample_interval(law: ARandomIntervalLaw, rng) -> tuple[float, float]:
    """Draw one (lower, upper) interval from the law."""
    lo = sample_gamma(rng, float(law.count), law.scale)
    hi = lo + sample_exponential(rng, law.scale)
    return lo, hi


def sample_intervals(law: ARandomIntervalLaw, rng, size: int):
    """Vectorized sample_interval for Monte Carlo work."""
    lo = sample_gamma(rng, float(law.count), law.scale, size=size)
    hi = lo + sample_exponential(rng, law.scale, size=size)
    return lo, hi
