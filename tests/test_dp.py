import math

import numpy as np
import pytest

from privreg import (BOTTOM, PrivacyParams, SelectionInstance, candidate_id,
                     dp_audit, laplace_sample, noisy_opt_error, rng_stream,
                     sparse_select)
from privreg.classes import DomainError, EmpiricalDistribution, min_error, sample_cells
from privreg.dp import selection_threshold

from helpers import F_TOY, dclass


def test_privacy_params():
    with pytest.raises(DomainError):
        PrivacyParams(0.0, 0.1)
    with pytest.raises(DomainError):
        PrivacyParams(0.5, 0.0)
    with pytest.warns(UserWarning):
        PrivacyParams(2.0, 0.1)
    PrivacyParams(0.5, 1e-6)


def test_rng_stream_deterministic():
    a = [rng_stream(7, 1, 2).random() for _ in range(2)]
    b = [rng_stream(7, 1, 2).random() for _ in range(2)]
    assert a == b
    assert rng_stream(7, 0).random() != rng_stream(7, 1).random()


def test_laplace_sample():
    rng = rng_stream(11)
    xs = [laplace_sample(2.0, rng) for _ in range(20000)]
    assert abs(float(np.median(xs))) < 0.05
    with pytest.raises(DomainError):
        laplace_sample(0.0, rng)
    again = rng_stream(11)
    assert [laplace_sample(2.0, again) for _ in range(3)] == xs[:3]


class _Draws:
    """A generator stub whose random() returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_laplace_sample_draws_again_on_zero():
    rng = _Draws(0.0, 0.75, 0.25)
    assert laplace_sample(2.0, rng) == laplace_sample(2.0, _Draws(0.75)) == 2.0 * math.log(2.0)
    assert rng.values == [0.25]
    assert laplace_sample(2.0, _Draws(0.25)) == -2.0 * math.log(2.0)


def test_noisy_opt_error():
    P = EmpiricalDistribution.from_samples([(0, 1), (1, 3)])
    cells = sample_cells(P.samples, 2, F_TOY.K)
    total = noisy_opt_error(F_TOY, cells, 0.5, 2, rng_stream(3))
    assert total == min_error(F_TOY, P) + laplace_sample(2 * F_TOY.K / (0.5 * 2), rng_stream(3))
    with pytest.raises(DomainError):
        noisy_opt_error(F_TOY, cells[:0], 0.5, 0, rng_stream(3))
    with pytest.raises(DomainError, match="got 2 for n1 = 1"):
        noisy_opt_error(F_TOY, cells, 0.5, 1, rng_stream(3))
    with pytest.raises(DomainError, match="empty class"):
        noisy_opt_error(dclass([]), cells, 0.5, 2, rng_stream(3))


def test_candidate_id():
    a = candidate_id((1, 2, 3))
    assert a == candidate_id([1, 2, 3])
    assert a != candidate_id((1, 2, 4))
    assert len(a) == 64


def test_selection_instance_truncation():
    inst = SelectionInstance([["c", "a", "b"], ["a"]], 2)
    assert inst.user_sets[0] == ["a", "b"]
    assert inst.truncated_users == [0]
    with pytest.raises(DomainError):
        SelectionInstance([], 2)
    with pytest.raises(DomainError):
        SelectionInstance([["a"]], 0)


def test_selection_threshold_formula():
    priv = PrivacyParams(1.0, 1e-6)
    expected = 1.0 + 4.0 * math.log(4.0 * 10 ** 6)
    assert selection_threshold(2, priv) == pytest.approx(expected)


def test_sparse_select_bottom_and_universe():
    priv = PrivacyParams(1.0, 1e-6)
    inst = SelectionInstance([[], []], 2)
    assert sparse_select(inst, priv, rng_stream(1)) is BOTTOM
    users = [["u", f"only{i}"] for i in range(100)]
    inst = SelectionInstance(users, 2)
    universe = {c for s in users for c in s}
    for seed in range(10):
        got = sparse_select(inst, priv, rng_stream(seed))
        assert got is BOTTOM or got in universe


def test_sparse_select_deterministic():
    priv = PrivacyParams(1.0, 1e-6)
    inst = SelectionInstance([["u"]] * 300, 1)
    a = sparse_select(inst, priv, rng_stream(5))
    b = sparse_select(inst, priv, rng_stream(5))
    assert a == b == "u"


def test_dp_audit_neighboring_check():
    priv = PrivacyParams(0.5, 1e-6)
    with pytest.raises(DomainError):
        dp_audit(lambda D, rng: 0, [1, 2], [3, 4], priv, 10, 0)
    with pytest.raises(DomainError):
        dp_audit(lambda D, rng: 0, [1], [1, 2], priv, 10, 0)


@pytest.mark.parametrize("trials", [0, -5])
def test_dp_audit_needs_a_trial(trials):
    # With no trials no event is seen, and the audit could not fail.
    with pytest.raises(DomainError, match="trials"):
        dp_audit(lambda D, rng: sum(D), [0], [1], PrivacyParams(0.5, 1e-6), trials, 0)


def test_dp_audit_flags_noiseless_mechanism():
    priv = PrivacyParams(0.5, 1e-6)
    report = dp_audit(lambda D, rng: sum(D), [0], [1], priv, 500, 9)
    assert report.violation


def test_dp_audit_respects_delta_slack():
    def mech(D, rng):
        # Leaks the first record with probability 0.05, delta-style.
        return D[0] if rng.random() < 0.05 else "same"

    priv_tight = PrivacyParams(0.5, 1e-6)
    priv_loose = PrivacyParams(0.5, 0.2)
    assert dp_audit(mech, [0], [1], priv_tight, 20000, 13).violation
    assert not dp_audit(mech, [0], [1], priv_loose, 20000, 13).violation


def test_dp_audit_laplace_counting():
    priv = PrivacyParams(1.0, 1e-6)

    def mech(D, rng):
        return round(sum(D) + laplace_sample(1.0, rng))

    report = dp_audit(mech, [1, 0, 0], [0, 0, 0], priv, 20000, 17)
    assert not report.violation
