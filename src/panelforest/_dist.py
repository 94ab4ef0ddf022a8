"""Distribution tails for the package's p-values, from the standard library.

One regularized incomplete beta serves the t and F tails and the
Clopper-Pearson bounds of the `pval` stopping rule.  The chi-square tail of
an integer df is a closed Poisson sum, and the normal tail is `math.erfc`.
Against `scipy.stats`, each is within a relative error of 1e-10 wherever the
tail is at least 1e-290 (tests/test_pvalues.py).
"""

from __future__ import annotations

import math

__all__ = ["betainc", "t_two_sided", "f_upper", "chi2_upper", "normal_tail"]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = 2.0 ** -52
_TINY = 1e-300  # keeps a continued-fraction denominator off zero
_MAX_TERMS = 100_000


def _stirling_rest(z: float) -> float:
    """log Gamma(z) minus its Stirling part (z - 1/2) log z - z + log(2 pi)/2."""
    if z < 10.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI)
    r = 1.0 / (z * z)  # the asymptotic series, with an error below 3e-17 from z = 10
    return (1 / 12 + r * (-1 / 360 + r * (1 / 1260 + r * (-1 / 1680 + r * (
        1 / 1188 + r * (-691 / 360360 + r / 156)))))) / z


def _log_beta_kernel(a: float, b: float, x: float, y: float) -> float:
    """log(x^a y^b / B(a, b)) for y = 1 - x.  The Stirling parts of the three
    gamma functions cancel in closed form (DiDonato & Morris 1992, brcomp), so
    no large log Gamma is subtracted from another."""
    c = a + b
    e = x * c - a if x <= y else b - y * c  # c x - a = b - c y

    def part(s, z, d):  # s log(z c / s), where z c - s = d
        return s * (math.log1p(d / s) if abs(d) < 0.5 * s else math.log(z * c / s))

    return (part(a, x, e) + part(b, y, -e) + 0.5 * math.log(a * b / c) - _HALF_LOG_2PI
            - _stirling_rest(a) - _stirling_rest(b) + _stirling_rest(c))


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction b0 + a1 / (b1 + a2 / (b2 + ...)) with
    I_x(a, b) = x^a y^b / (B(a, b) times it), in the form of DiDonato & Morris
    (1992, bfrac) whose terms take y = 1 - x as given, so that no term
    subtracts a multiple of x from a number of its size; evaluated by the
    modified Lentz method (Numerical Recipes, section 6.4).  It converges fast
    for x < (a + 1) / (a + b + 2)."""
    f = a * (a * y - b * x + 1.0) / (a + 1.0)
    f = f if abs(f) > _TINY else _TINY
    c, d = f, 0.0
    for m in range(1, _MAX_TERMS):
        span = a + 2 * m - 1.0
        am = (a + m - 1.0) * (a + b + m - 1.0) * m * (b - m) * x * x / (span * span)
        bm = (m + m * (b - m) * x / span
              + (a + m) * (a * y - b * x + 1.0 + m * (1.0 + y)) / (span + 2.0))
        d = bm + am * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = bm + am / c
        c = c if abs(c) > _TINY else _TINY
        f *= c * d
        if abs(c * d - 1.0) <= _EPS:
            return f
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def betainc(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta I_x(a, b) for a, b > 0 and y = 1 - x,
    passed separately since the caller often has it more exactly.  Past
    x = (a + 1) / (a + b + 2) the fraction is that of I_y(b, a) = 1 - I_x(a, b),
    where it converges; I_x(a, b) is then above 0.08 for a, b >= 1/2, so
    nothing small is taken from 1."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(_log_beta_kernel(a, b, x, y)) / _beta_fraction(a, b, x, y)
    return 1.0 - math.exp(_log_beta_kernel(b, a, y, x)) / _beta_fraction(b, a, y, x)


def t_two_sided(t: float, df: float) -> float:
    """P(|T| > |t|) for Student's t with df degrees of freedom:
    I_{df / (df + t^2)}(df / 2, 1/2)."""
    if math.isnan(t):
        return math.nan
    t2 = t * t
    if math.isinf(t2):
        return 0.0
    return betainc(0.5 * df, 0.5, df / (df + t2), t2 / (df + t2))


def f_upper(f: float, dfn: float, dfd: float) -> float:
    """P(F > f) for the F distribution: I_{dfd / (dfd + dfn f)}(dfd / 2, dfn / 2);
    1 at and below the support's lower end 0."""
    if math.isnan(f):
        return math.nan
    if f <= 0.0:
        return 1.0
    s = dfn * f
    if math.isinf(s):
        return 0.0
    return betainc(0.5 * dfd, 0.5 * dfn, dfd / (dfd + s), s / (dfd + s))


def _log_poisson(s: float, h: float) -> float:
    """log(h^s e^-h / Gamma(s + 1)), written like the beta kernel so that no
    large log Gamma is subtracted."""
    if s == 0.0:
        return -h
    d = h - s
    log_ratio = math.log1p(d / s) if abs(d) < 0.5 * s else math.log(h / s)
    return s * log_ratio - d - 0.5 * math.log(s) - _HALF_LOG_2PI - _stirling_rest(s)


def chi2_upper(x: float, df: int) -> float:
    """P(X > x) for chi-square with a positive integer df; 1 at and below 0.

    With h = x / 2 this is erfc(sqrt(h)) for odd df (0 for even df) plus the
    Poisson-like terms h^s e^-h / Gamma(s + 1) for s = df/2 - 1, df/2 - 2, ...
    down to 0 or 1/2.  The sum starts at the term nearest its peak, which is
    evaluated in log space, and reaches the others by the ratios s / h and
    h / (s + 1), stopping once a term no longer counts."""
    if df != int(df) or df < 1:
        raise ValueError(f"chi-square df must be a positive integer, got {df}")
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    h = 0.5 * x
    odd = int(df) % 2
    base = math.erfc(math.sqrt(h)) if odd else 0.0
    lowest, top = 0.5 * odd, 0.5 * df - 1.0
    if top < lowest:
        return base
    s0 = top if top <= h else top - math.floor(top - h)
    first = math.exp(_log_poisson(s0, h))
    total = first
    term, s = first, s0
    while s - 1.0 >= lowest:
        term *= s / h
        s -= 1.0
        total += term
        if term <= _EPS * total and s < h:
            break
    term, s = first, s0
    while s + 1.0 <= top:
        s += 1.0
        term *= h / s
        total += term
        if term <= _EPS * total:
            break
    return base + total


def normal_tail(z: float) -> float:
    """P(Z > |z|) for the standard normal."""
    return 0.5 * math.erfc(abs(z) / math.sqrt(2.0))
