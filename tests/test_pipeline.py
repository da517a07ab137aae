import pytest

from privreg import (EmpiricalDistribution, RegLearnConfig, RunFailure,
                     TheoreticalScaleError, compute_parameters, excess_risk,
                     reg_learn, rng_stream)
from privreg.classes import DomainError, RealClass

from helpers import H_DESK, X2

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
