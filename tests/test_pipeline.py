import random

import pytest

from privreg import (EmpiricalDistribution, RegLearnConfig, RunFailure,
                     TheoreticalScaleError, compute_parameters, excess_risk,
                     reg_learn, rng_stream, undisc_hypothesis)
from privreg.classes import DomainError, RealClass

from helpers import (H_DESK, X2, X3, reg_learn_per_group, reg_learn_result)

DESK = dict(epsilon=1.0, delta=0.05, eta_bar=0.5, beta=0.2, ell_bar=1,
            m=60, n0=40, n1=200, ell_prime=6)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _sampler(n, rng):
    target = H_DESK.hyps[0]
    out = []
    for _ in range(n):
        i = int(rng.integers(0, 2))
        y = float(min(1.0, max(-1.0, target[i] + rng.uniform(-0.2, 0.2))))
        out.append((i, y))
    return out


def test_config_validation():
    with pytest.raises(DomainError):
        RegLearnConfig(epsilon=0.0, delta=0.1, eta_bar=0.5, beta=0.2, ell_bar=1)
    with pytest.raises(DomainError):
        RegLearnConfig(epsilon=0.5, delta=1.5, eta_bar=0.5, beta=0.2, ell_bar=1)
    with pytest.raises(DomainError):
        RegLearnConfig(epsilon=0.5, delta=0.1, eta_bar=0.5, beta=0.2, ell_bar=1,
                       m=-3)
    with pytest.raises(DomainError):     # a JSON true is a bool, not a count
        RegLearnConfig(**dict(DESK, m=True))


def test_compute_parameters_desk():
    params = compute_parameters(H_DESK, RegLearnConfig(**DESK))
    assert params.K == 4 and params.d == 2
    assert params.alpha_delta == 18.0
    assert params.tau_max == 12 * (params.d + 1)
    assert params.r_max == params.d + 1
    assert params.chi == 5
    assert params.schedule.ell(0, 2) == 4
    assert set(params.overridden) == {"m", "n0", "n1", "ell_prime"}
    assert params.n == 60 * 40


def test_compute_parameters_memoizes_fat_alpha():
    H = RealClass(X2, H_DESK.hyps)
    cfg = RegLearnConfig(**DESK)
    params = compute_parameters(H, cfg)
    assert H.memo[("fat_alpha", H.hyps, cfg.c0 * cfg.eta_bar)] == params.fat


def test_theoretical_scale_refusal():
    cfg = RegLearnConfig(epsilon=1.0, delta=0.05, eta_bar=0.5, beta=0.2,
                         ell_bar=1)
    with pytest.raises(TheoreticalScaleError):
        compute_parameters(H_DESK, cfg)


def test_reg_learn_seed_contract():
    cfg = RegLearnConfig(**DESK)
    with pytest.raises(DomainError):
        reg_learn(H_DESK, _sampler, cfg)
    with pytest.raises(DomainError):
        reg_learn(H_DESK, _sampler, cfg, seed=1, rng=rng_stream(1))
    with pytest.raises(DomainError):
        reg_learn(H_DESK, [(0, 0.0)] * 10, cfg, seed=1)


def test_reg_learn_runs_and_is_deterministic():
    cfg = RegLearnConfig(**DESK)
    a = reg_learn(H_DESK, _sampler, cfg, seed=4)
    b = reg_learn(H_DESK, _sampler, cfg, seed=4)
    assert a.h_hat == b.h_hat
    assert a.transcript == b.transcript
    assert all(-1.0 <= v <= 1.0 for v in a.h_hat)
    assert a.g_hat == tuple(1 + round((v + 1) * 2) for v in a.h_hat)
    assert a.transcript["winner"] is not None
    assert len(a.transcript["s_sizes"]) == 60


@pytest.mark.parametrize("point, y, message", [
    (2, 0.0, "point index 2"), (-1, 0.0, "point index -1"),
    (1.5, 0.0, "point index 1.5"), (1, 2.0, "value 2.0")])
def test_reg_learn_rejects_a_bad_group_sample(point, y, message):
    # Sample 7 is the fourth sample of group 0 (n1 = 4).
    data = [(0, 0.0)] * 10
    data[7] = (point, y)
    cfg = RegLearnConfig(**dict(DESK, m=2, n0=3, n1=4))
    with pytest.raises(DomainError, match=f"sample 7: {message}"):
        reg_learn(H_DESK, data, cfg, seed=1)


def _real(hyps, K):
    """A real class whose values sit mid-bucket, so it discretizes at
    K = ceil(2/eta) to hyps."""
    return RealClass({2: X2, 3: X3}[len(hyps[0])],
                     tuple(tuple(v + 1.0 / K for v in undisc_hypothesis(h, K))
                           for h in hyps))


def _following(target, width):
    def sampler(n, rng):
        return [(i, float(min(1.0, max(-1.0, target[i] + rng.uniform(-width, width)))))
                for i in rng.integers(0, len(target), n).tolist()]
    return sampler


def _mixed_data(H, n1, m, n0, rng):
    """n1 samples at y = 1, far from H's low values, then m groups of n0 that
    each follow one hypothesis of H with noise of their own width, so that
    groups differ in their level classes."""
    data = [(rng.randrange(H.domain.size), 1.0) for _ in range(n1)]
    for _ in range(m):
        target, width = rng.choice(H.hyps), rng.choice([0.0, 0.3, 1.0, 2.0])
        for _ in range(n0):
            i = rng.randrange(H.domain.size)
            data.append((i, min(1.0, max(-1.0, target[i] + rng.uniform(-width, width)))))
    return data


def _differential_runs():
    """(H, cfg, data, seed): the desk configuration; the K=4 class whose runs
    end in BOTTOM; random 3-point classes with K from 5 to 7 on groups that
    differ; and a K=40 class where every third group abstains."""
    desk = RegLearnConfig(**DESK)
    for seed in range(10):
        yield H_DESK, desk, _sampler, seed
    H = _real([(1, 2), (1, 3), (2, 2), (2, 3), (3, 1), (4, 1)], 4)
    for seed in range(5):
        yield H, desk, _following(H.hyps[0], 0.2), seed
    rng = random.Random(11)
    for K, eta in ((5, 0.4), (6, 0.34), (7, 0.3)) * 4:
        H = _real([tuple(rng.randint(1, 3) for _ in range(3))
                   for _ in range(rng.randint(2, 8))], K)
        cfg = RegLearnConfig(**dict(DESK, eta_bar=eta, m=20, n0=20, n1=50))
        data = _mixed_data(H, 50, 20, 20, rng)
        for seed in range(2):
            yield H, cfg, data, seed
    H = _real([(1, 1), (1, 3), (3, 1), (3, 3)], 40)
    data = [(i, H.hyps[0][i]) for i in (0, 1) * 15]
    for j in range(10):
        data += [(i, 1.0 if j % 3 == 0 else H.hyps[j % 4][i]) for i in (0, 1) * 5]
    yield H, RegLearnConfig(**dict(DESK, eta_bar=0.05, m=10, n0=10, n1=30)), data, 0


def test_reg_learn_matches_the_per_group_reference():
    # Histogram errors and abs_error's sums may differ in the last bits; the
    # thresholds' slack keeps every level class, and so every output, equal.
    winners = abstaining = mixed = 0
    for H, cfg, data, seed in _differential_runs():
        got = reg_learn_result(H, data, cfg, seed)
        assert repr(got) == repr(reg_learn_per_group(H, data, cfg, seed))
        winners += got[1] is not None
        abstaining += bool(got[0]["abstained"])
        mixed += len(set(got[0]["s_sizes"])) > 1
    assert winners and abstaining and mixed


def test_reg_learn_bottom_failure():
    # Product-structure class: the reduction loop cannot break before the
    # output threshold goes negative, so selection always returns BOTTOM.
    H = RealClass(X2, ((-0.75, -0.75), (-0.75, 0.25), (0.25, -0.75),
                       (0.25, 0.25)))
    cfg = RegLearnConfig(epsilon=1.0, delta=0.05, eta_bar=0.5, beta=0.2,
                         ell_bar=1, m=5, n0=10, n1=20, ell_prime=6)
    with pytest.raises(RunFailure) as exc:
        reg_learn(H, _sampler, cfg, seed=0)
    assert exc.value.transcript["winner"] is None


def test_excess_risk():
    test = [(0, -0.75), (1, 0.25)]
    assert excess_risk(H_DESK.hyps[0], test, H_DESK) == pytest.approx(0.0)
    assert excess_risk((0.0, 0.0), test, H_DESK) >= 0.0
    Q = EmpiricalDistribution.from_samples(test)
    assert excess_risk((0.0, 0.0), Q, H_DESK) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        excess_risk((0.0, 0.0), test, RealClass(X2))
