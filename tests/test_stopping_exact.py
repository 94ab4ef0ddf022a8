"""Exact null operating characteristics of the five stopping rules, with no
forests.

Under the null the observed importance is exchangeable with the permuted
ones, so its exceedance probability is uniform on (0, 1), and given that
probability the exceedances are iid Bernoulli (Besag & Clifford 1991). One
path with d exceedances among m permutations then has probability
d!(m-d)!/(m+1)!. A rule's size and expected cost are sums of that over its
stopping states (m, d), weighted by N(m, d), the number of paths that reach
(m, d) without stopping earlier. Fractions make the sums exact.

Each state's decision comes from `run_sequential` itself: one stored path
that reaches the state, plus one more outcome, is replayed. That stands for
every path to the state, since each rule is a table of boundaries on
(m, d) and its decision depends on the state alone. sprt and sapt build
theirs from the closed-form log-likelihood ratio d*a + (m-d)*b, so
`characteristics` also checks that every reachable state lies well clear
of both bounds, where the rounding of that form cannot change a decision.
"""

import itertools
import math
from fractions import Fraction

import pytest

from panelforest.vimp import SeqTestConfig, _llr_walk, run_sequential

ALPHA = SeqTestConfig.alpha
MARGIN = 1e-9  # far above the rounding of a sum of a few hundred steps


class _Continue(Exception):
    """The rule asked for a permutation past the step being probed."""


def decide(cfg, path):
    """run_sequential's decision on `path` if it stops at its last step,
    else None."""
    def exceedance(j):
        if j > len(path):
            raise _Continue
        return path[j - 1]
    try:
        decision, _, m, _, _ = run_sequential(cfg, exceedance)
    except _Continue:
        return None
    assert m == len(path)
    return decision


def characteristics(cfg):
    """Exact null size and expected permutation count of cfg's rule."""
    if cfg.method in ("sprt", "sapt"):
        step_exc, step_non, lower, upper = _llr_walk(cfg)
    live, count = {0: ()}, {0: 1}  # d -> one path to (m, d), and N(m, d)
    size = cost = Fraction(0)
    for m in range(1, cfg.mmax + 1):
        next_live, next_count = {}, {}
        for d0, path in live.items():
            for exceeded in (False, True):
                d = d0 + exceeded
                if cfg.method in ("sprt", "sapt"):
                    llr = d * step_exc + (m - d) * step_non
                    assert min(abs(llr - lower), abs(llr - upper)) >= MARGIN, (m, d)
                decision = decide(cfg, path + (exceeded,))
                if decision is None:
                    next_live.setdefault(d, path + (exceeded,))
                    next_count[d] = next_count.get(d, 0) + count[d0]
                    continue
                p = Fraction(count[d0], (m + 1) * math.comb(m, d))
                cost += m * p
                size += p if decision == "significant" else 0
        live, count = next_live, next_count
    assert not live  # every path has stopped by mmax
    return size, cost


# (null size, null E[m]) of each rule at the demo's mmax (40) and
# criterion 05's (100)
EXACT = {
    40: {"certain": (2 / 41, 7.532086077872752), "pval": (2 / 41, 10.133447685126619),
         "sprt": (2 / 41, 14.427979907491968), "sapt": (2 / 41, 14.427979907491968),
         "complete": (2 / 41, 40.0)},
    100: {"certain": (5 / 101, 19.419200449612582),
          "pval": (0.049262815211079655, 16.050529893644566),
          "sprt": (0.04950486212096909, 20.716451157822277),
          "sapt": (0.04951373783967255, 20.346385396242702),
          "complete": (5 / 101, 100.0)},
}


class TestExactSizeAndCost:
    @pytest.mark.parametrize("mmax", [40, 100])
    def test_sizes_and_null_costs(self, mmax):
        sizes = {}
        for method, (size, cost) in EXACT[mmax].items():
            sizes[method], exact_cost = characteristics(SeqTestConfig(method, mmax))
            assert float(sizes[method]) == pytest.approx(size, rel=1e-12), method
            assert float(exact_cost) == pytest.approx(cost, rel=1e-12), method
        # complete's p-value (d + 1)/(mmax + 1) is uniform under the null
        complete = Fraction(math.floor(Fraction(1, 20) * (mmax + 1)), mmax + 1)
        assert sizes["complete"] == complete
        assert sizes["certain"] == complete  # its curtailment is exact
        for method in ("sprt", "pval", "certain"):
            assert sizes[method] <= ALPHA, method

    def test_default_mmax_sizes(self):
        # SeqTestConfig's default mmax: sprt and certain stay within alpha
        sprt, _ = characteristics(SeqTestConfig("sprt", 500))
        assert float(sprt) == pytest.approx(0.04861380321250892, rel=1e-12)
        certain, _ = characteristics(SeqTestConfig("certain", 500))
        assert certain == Fraction(25, 501) <= ALPHA

    @pytest.mark.parametrize("mmax, size", [(200, 0.05001654368432015),
                                            (500, 0.050670750486612785)])
    def test_sapt_size_exceeds_alpha_from_mmax_200(self, mmax, size):
        # a known excess, pinned rather than asserted <= alpha: sapt's default
        # bounds +-ln(beta / (1 - alpha)) approximate Wald's bounds for the
        # simple pair p0 against p1, which do not bound the size under the
        # composite null, and the fallback at mmax adds rejections of its own
        exact, _ = characteristics(SeqTestConfig("sapt", mmax))
        assert float(exact) == pytest.approx(size, rel=1e-12)
        assert exact > ALPHA


class TestCertainIsComplete:
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 0.3])
    def test_same_decision_on_every_path(self, alpha):
        # Besag-Clifford curtailment stops only once the complete decision
        # is certain, so it gives that decision on every path
        kw = {"alpha": alpha, "p1": alpha / 2, "p0": (1 + alpha) / 2}
        for mmax in range(1, 13):
            certain = SeqTestConfig("certain", mmax, **kw)
            complete = SeqTestConfig("complete", mmax, **kw)
            for path in itertools.product((False, True), repeat=mmax):
                got = run_sequential(certain, lambda j: path[j - 1])
                want = run_sequential(complete, lambda j: path[j - 1])
                assert got[0] == want[0], (mmax, path)
