"""The M/M/N queueing model of paper §IV (Eqs. 1–5).

This module is pure stdlib math with no dependencies on the rest of the
repo, which is why it lives at the bottom of the layer stack in
``repro.sim`` (every layer above — sizing, admission control, the
controller, the fleet generator — reasons with these equations).
``repro.core`` re-exports its public names.

Queries arrive Poisson(λ), N containers each serve exp(μ), one FIFO queue
of infinite capacity.  With ρ = λ/(Nμ) < 1 the stationary distribution is
Eq. 1; the waiting-time CDF is Eq. 4:

    F_W(t) = 1 − π_N/(1−ρ) · exp(−Nμ(1−ρ)t)

and the paper's discriminant function (Eq. 5) inverts "the r-ile of
(wait + mean service) equals the QoS target T_D" for the largest
admissible arrival rate:

    λ(μ) = Nμ + ln[(1−r)(1−ρ)/π_N] / (T_D − 1/μ)

Because ρ and π_N on the right-hand side themselves depend on λ, Eq. 5 is
a fixed-point equation; :func:`discriminant_lambda` solves it by damped
iteration, and :func:`max_arrival_rate` solves the same threshold by
bisection (the two agree — a regression test asserts it).

All probability computations genuinely run in log space.  Writing
a = Nρ for the offered load, the Eq. 1 normalization is

    S = Σ_{k=0}^{N-1} a^k/k!  +  a^N / (N! (1−ρ))

whose individual terms overflow/underflow double precision long before
N = 10³ (a^k/k! peaks near e^a, and e^700 is already inf).  We therefore
compute log S directly: anchor at the largest term k* = min(N−1, ⌊a⌋),
sum the neighbours *relative to the anchor* via the exact term ratios
t_{k−1}/t_k = k/a and t_{k+1}/t_k = a/(k+1) with compensated (Kahan)
accumulation, stopping once terms fall below 1e−19 of the running total
(the term profile is a discrete Gaussian of width ~√a, so only O(√a) of
the N terms ever matter), and fold in the queueing tail as
exp(log t_N − log t_{k*})/(1−ρ).  Every downstream quantity (π_N,
Erlang-C, wait quantiles, Eq. 5) is then derived from log S without ever
exponentiating an intermediate that could underflow — finite and
accurate for N ≥ 10⁵.
"""

from __future__ import annotations

import math

__all__ = [
    "discriminant_lambda",
    "erlang_c",
    "erlang_pi0",
    "erlang_pin",
    "log_erlang_c",
    "log_erlang_pi0",
    "log_erlang_pin",
    "max_arrival_rate",
    "max_arrival_rate_gg",
    "mean_wait",
    "min_servers",
    "qos_satisfied",
    "qos_satisfied_gg",
    "sojourn_quantile",
    "wait_cdf",
    "wait_quantile",
    "wait_quantile_gg",
]


def _validate(n: int, rho: float) -> None:
    if n < 1:
        raise ValueError(f"need at least one server, got n={n}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"utilization must be in [0, 1) for a stable queue, got rho={rho}")


def _log_norm(n: int, rho: float) -> float:
    """log S for the Eq. 1 normalization S (see module docstring).

    Anchored scaled summation: all terms are accumulated relative to the
    largest head term t_{k*}, so the running total stays in [1, ~√a·t_rel]
    and never overflows; the anchor's own magnitude is carried in log
    space.  Requires 0 < rho < 1.
    """
    a = n * rho
    log_a = math.log(a)
    k0 = min(n - 1, int(a))
    log_max = k0 * log_a - math.lgamma(k0 + 1)
    total = 1.0  # the anchor term t_{k0}, scaled to 1
    comp = 0.0  # Kahan compensation
    # downward sweep: t_{k-1}/t_k = k/a
    term = 1.0
    for k in range(k0, 0, -1):
        term *= k / a
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term < 1e-19 * total:
            break
    # upward sweep over the remaining head terms: t_{k+1}/t_k = a/(k+1)
    term = 1.0
    for k in range(k0 + 1, n):
        term *= a / k
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term < 1e-19 * total:
            break
    # queueing tail a^n/(n!(1-rho)); t_n <= t_{k0} so the scaled value is
    # at most 1/(1-rho) — large near saturation but nowhere near overflow
    log_tail = n * log_a - math.lgamma(n + 1) - math.log1p(-rho)
    tail = math.exp(log_tail - log_max)
    y = tail - comp
    total = total + y
    return log_max + math.log(total)


def log_erlang_pi0(n: int, rho: float) -> float:
    """log π₀ = −log S: finite for any N even when π₀ itself underflows."""
    _validate(n, rho)
    if rho == 0.0:
        return 0.0
    return -_log_norm(n, rho)


def log_erlang_pin(n: int, rho: float) -> float:
    """log π_N = N·ln(Nρ) − ln N! − log S.  Requires rho > 0."""
    _validate(n, rho)
    if rho == 0.0:
        raise ValueError("pi_N is exactly 0 at rho=0; its log is undefined")
    a = n * rho
    return n * math.log(a) - math.lgamma(n + 1) - _log_norm(n, rho)


def log_erlang_c(n: int, rho: float) -> float:
    """log P{W > 0} = log π_N − log(1−ρ).  Requires rho > 0."""
    return log_erlang_pin(n, rho) - math.log1p(-rho)


def erlang_pi0(n: int, rho: float) -> float:
    """π₀: probability the system is empty (Eq. 1 normalization).

    Underflows to 0.0 only when π₀ is genuinely below the smallest
    positive double (e.g. N = 10⁵, ρ = 0.95 has π₀ ≈ e^{−92000});
    use :func:`log_erlang_pi0` when the magnitude itself is needed.
    """
    _validate(n, rho)
    if rho == 0.0:
        return 1.0
    return math.exp(-_log_norm(n, rho))


def erlang_pin(n: int, rho: float) -> float:
    """π_N: probability exactly N queries are in the system (Eq. 1)."""
    _validate(n, rho)
    if rho == 0.0:
        return 0.0
    return math.exp(log_erlang_pin(n, rho))


def erlang_c(n: int, rho: float) -> float:
    """Erlang-C: probability an arrival must wait, P{W > 0} = π_N/(1−ρ)."""
    _validate(n, rho)
    if rho == 0.0:
        return 0.0
    return math.exp(log_erlang_c(n, rho))


def wait_cdf(t: float, lam: float, mu: float, n: int) -> float:
    """F_W(t): probability the queueing delay is at most ``t`` (Eq. 4).

    The survival term π_N/(1−ρ)·e^{−Nμ(1−ρ)t} is assembled in log space
    so the product cannot spuriously under/overflow at large N.
    """
    if t < 0:
        return 0.0
    if lam < 0 or mu <= 0:
        raise ValueError("lam must be >= 0 and mu > 0")
    rho = lam / (n * mu)
    _validate(n, rho)
    if lam == 0.0:
        return 1.0
    log_sf = log_erlang_c(n, rho) - n * mu * (1.0 - rho) * t
    return -math.expm1(log_sf) if log_sf < 0.0 else 0.0


def wait_quantile(r: float, lam: float, mu: float, n: int) -> float:
    """W_r: the r-ile of the queueing delay (inverse of Eq. 4).

    Zero when P{W > 0} ≤ 1 − r (the r-ile arrival does not wait at all).
    Evaluated as (log P{W>0} − log(1−r)) / (Nμ(1−ρ)), entirely in log
    space.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must be in (0, 1), got {r}")
    if lam < 0 or mu <= 0:
        raise ValueError("lam must be >= 0 and mu > 0")
    rho = lam / (n * mu)
    _validate(n, rho)
    if lam == 0.0:
        return 0.0
    log_pw = log_erlang_c(n, rho)
    log_tail = math.log1p(-r)
    if log_pw <= log_tail:
        return 0.0
    return (log_pw - log_tail) / (n * mu * (1.0 - rho))


def mean_wait(lam: float, mu: float, n: int) -> float:
    """E[W]: mean queueing delay = P{W>0} / (Nμ − λ)."""
    if lam < 0 or mu <= 0:
        raise ValueError("lam must be >= 0 and mu > 0")
    rho = lam / (n * mu)
    _validate(n, rho)
    if lam == 0.0:
        return 0.0
    return erlang_c(n, rho) / (n * mu - lam)


def sojourn_quantile(r: float, lam: float, mu: float, n: int) -> float:
    """The paper's r-ile end-to-end estimate: W_r + 1/μ.

    (Eq. 5 budgets T_D − 1/μ for the wait, i.e. it adds the *mean*
    service time to the wait quantile rather than convolving the two —
    we reproduce that approximation faithfully.)
    """
    return wait_quantile(r, lam, mu, n) + 1.0 / mu


def qos_satisfied(lam: float, mu: float, n: int, qos: float, r: float = 0.95) -> bool:
    """Can N containers of capacity μ meet ``qos`` at arrival rate λ?"""
    if qos <= 0:
        raise ValueError(f"qos must be positive, got {qos}")
    if lam >= n * mu:
        return False  # unstable queue: no
    return sojourn_quantile(r, lam, mu, n) <= qos


def max_arrival_rate(mu: float, n: int, qos: float, r: float = 0.95, tol: float = 1e-9) -> float:
    """Largest λ for which ``qos_satisfied`` holds, by bisection.

    This is the operational meaning of the paper's discriminant function:
    if the observed load λ is at most this value, switching the service
    to the serverless platform keeps its r-ile latency within T_D.
    Returns 0.0 when even a lone query misses the target (1/μ > T_D).
    """
    if mu <= 0 or n < 1:
        raise ValueError("mu must be > 0 and n >= 1")
    if qos <= 1.0 / mu:
        return 0.0
    lo, hi = 0.0, n * mu * (1.0 - 1e-12)
    if qos_satisfied(hi, mu, n, qos, r):
        return hi
    while hi - lo > tol * max(1.0, n * mu):
        mid = 0.5 * (lo + hi)
        if qos_satisfied(mid, mu, n, qos, r):
            lo = mid
        else:
            hi = mid
    return lo


def discriminant_lambda(
    mu: float,
    n: int,
    qos: float,
    r: float = 0.95,
    max_iter: int = 200,
    damping: float = 0.5,
) -> float:
    """Paper Eq. 5 by damped fixed-point iteration.

        λ(μ) = Nμ + ln[(1−r)(1−ρ)/π_N] / (T_D − 1/μ)

    The iteration is started from the bisection answer's neighbourhood
    (0.5·Nμ) and damped because the bare map can oscillate near
    saturation.  The logarithm is expanded as
    ln(1−r) + ln(1−ρ) − ln π_N with ln π_N evaluated in log space, so
    the map stays exact even where π_N itself would underflow double
    precision (large N).  Agrees with :func:`max_arrival_rate` to solver
    tolerance; a unit test enforces that.
    """
    if mu <= 0 or n < 1:
        raise ValueError("mu must be > 0 and n >= 1")
    if qos <= 1.0 / mu:
        return 0.0
    budget = qos - 1.0 / mu
    lam = 0.5 * n * mu
    for _ in range(max_iter):
        rho = lam / (n * mu)
        if not 0.0 < rho < 1.0:
            rho = min(max(rho, 1e-9), 1.0 - 1e-9)
        log_arg = math.log1p(-r) + math.log1p(-rho) - log_erlang_pin(n, rho)
        if log_arg >= 0.0:
            # r-ile wait already zero: the wait constraint is slack
            lam_new = n * mu * (1.0 - 1e-9)
        else:
            lam_new = n * mu + log_arg / budget
        lam_new = min(max(lam_new, 0.0), n * mu * (1.0 - 1e-12))
        nxt = (1.0 - damping) * lam + damping * lam_new
        if abs(nxt - lam) < 1e-10 * max(1.0, n * mu):
            lam = nxt
            break
        lam = nxt
    return lam


def _gg_factor(ca2: float, cs2: float) -> float:
    """Allen–Cunneen variability factor (C_a² + C_s²)/2."""
    if ca2 < 0 or cs2 < 0:
        raise ValueError("squared coefficients of variation must be >= 0")
    return 0.5 * (ca2 + cs2)


def wait_quantile_gg(
    r: float, lam: float, mu: float, n: int, ca2: float = 1.0, cs2: float = 0.0
) -> float:
    """G/G/N wait r-ile via the Allen–Cunneen correction.

    The paper's Eq. 5 assumes exponential service (M/M/N), but FaaS
    kernels are near-deterministic, which makes M/M/N waits conservative
    by about 2× (M/D/1's mean wait is exactly half of M/M/1's).  The
    Allen–Cunneen approximation scales the M/M/N wait by
    (C_a² + C_s²)/2; with Poisson arrivals (C_a² = 1) and deterministic
    service (C_s² = 0) that recovers the M/D/N half-wait rule.  This is
    an *extension* beyond the paper — the default discriminant stays
    faithful to Eq. 5.
    """
    return wait_quantile(r, lam, mu, n) * _gg_factor(ca2, cs2)


def qos_satisfied_gg(
    lam: float, mu: float, n: int, qos: float, r: float = 0.95, ca2: float = 1.0, cs2: float = 0.0
) -> bool:
    """G/G/N analogue of :func:`qos_satisfied`."""
    if qos <= 0:
        raise ValueError(f"qos must be positive, got {qos}")
    if lam >= n * mu:
        return False
    return wait_quantile_gg(r, lam, mu, n, ca2, cs2) + 1.0 / mu <= qos


def max_arrival_rate_gg(
    mu: float,
    n: int,
    qos: float,
    r: float = 0.95,
    ca2: float = 1.0,
    cs2: float = 0.0,
    tol: float = 1e-9,
) -> float:
    """Largest admissible λ under the Allen–Cunneen-corrected wait."""
    if mu <= 0 or n < 1:
        raise ValueError("mu must be > 0 and n >= 1")
    if qos <= 1.0 / mu:
        return 0.0
    lo, hi = 0.0, n * mu * (1.0 - 1e-12)
    if qos_satisfied_gg(hi, mu, n, qos, r, ca2, cs2):
        return hi
    while hi - lo > tol * max(1.0, n * mu):
        mid = 0.5 * (lo + hi)
        if qos_satisfied_gg(mid, mu, n, qos, r, ca2, cs2):
            lo = mid
        else:
            hi = mid
    return lo


def min_servers(lam: float, mu: float, qos: float, r: float = 0.95, n_cap: int = 4096) -> int:
    """Smallest N meeting ``qos`` at load λ; raises if ``n_cap`` is not enough.

    Used both by the controller (how many containers must be warm) and by
    the IaaS "just-enough" sizing.  Feasibility is monotone in N (more
    servers at the same λ never hurt — the max_arrival_rate monotonicity
    test pins this), so instead of the old linear scan we double up to the
    first feasible N and bisect back down: O(log N) discriminant
    evaluations, which matters now that fleet sizing runs at N in the
    thousands.
    """
    if lam < 0 or mu <= 0:
        raise ValueError("lam must be >= 0 and mu > 0")
    if qos <= 1.0 / mu:
        raise ValueError(f"QoS {qos}s is below the mean service time {1.0 / mu}s: unattainable")
    if lam == 0.0:
        return 1

    def feasible(n: int) -> bool:
        return lam < n * mu and qos_satisfied(lam, mu, n, qos, r)

    floor_n = max(1, math.ceil(lam / mu))  # below this the queue is unstable
    hi = floor_n
    while not feasible(hi):
        if hi >= n_cap:
            raise ValueError(f"no server count up to {n_cap} meets qos={qos} at lam={lam}, mu={mu}")
        hi = min(2 * hi, n_cap)
    lo = floor_n - 1  # unstable, hence infeasible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
