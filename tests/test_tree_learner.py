import itertools
import random

import pytest

from privreg import (EmpiricalDistribution, ReduceTreeError, ReduceTreeParams,
                     level_class, min_error, reduce_tree_reg, sfat2, soa)
from privreg.classes import DomainError
from privreg.irreducibility import is_l_irreducible

from helpers import F_TOY, class_stream, dclass


def _uniform(samples):
    return EmpiricalDistribution.from_samples(samples)


def test_params_validation():
    with pytest.raises(DomainError):
        ReduceTreeParams(1.0, 0.0, 2)
    with pytest.raises(DomainError):
        ReduceTreeParams(1.0, 1.0, 0)
    p = ReduceTreeParams(10.0, 2.0, 3)
    assert p.alpha(1) == 10.0 and p.alpha(3) == 6.0
    assert p.ell(2) == 12


def test_level_class_threshold():
    P = _uniform([(0, 1), (1, 3)])
    assert level_class(F_TOY, P, 0.0).hyps == ((1, 3),)
    assert len(level_class(F_TOY, P, 2.0).hyps) == 4


def test_singleton_run():
    F = dclass([(2, 3)])
    P = _uniform([(0, 2), (1, 2)])
    err = min_error(F, P)
    params = ReduceTreeParams(err + 2.0, 2.0, 2)
    out = reduce_tree_reg(F, P, params)
    assert out.candidate_set == ((2, 3),)
    assert out.tree.depth() == 0


def test_error_when_alpha1_too_small():
    P = _uniform([(0, 1), (1, 3)])
    with pytest.raises(ReduceTreeError):
        reduce_tree_reg(F_TOY, P, ReduceTreeParams(-1.0, 2.0, 2))
    with pytest.raises(DomainError):
        reduce_tree_reg(dclass([], nx=2), P, ReduceTreeParams(1.0, 2.0, 2))


def test_no_error_when_low_level_nonempty():
    rng = random.Random(41)
    checked = 0
    for F in class_stream(43, max_h=8):
        d = sfat2(F)
        samples = [(rng.randrange(2), rng.randint(1, 4)) for _ in range(8)]
        P = _uniform(samples)
        alpha1 = min_error(F, P) + (d + 1) * 2.0 + 0.5
        out = reduce_tree_reg(F, P, ReduceTreeParams(alpha1, 2.0, 2))
        assert 0 <= out.t_final <= d
        checked += 1
        if checked >= 40:
            break


def test_depth_and_size_bounds():
    rng = random.Random(47)
    for F in itertools.islice(class_stream(53, max_h=8), 40):
        d = sfat2(F)
        samples = [(rng.randrange(2), rng.randint(1, 4)) for _ in range(8)]
        P = _uniform(samples)
        params = ReduceTreeParams(min_error(F, P) + (d + 1) * 2.0 + 0.5, 2.0, 2)
        out = reduce_tree_reg(F, P, params)
        assert out.tree.depth() <= params.ell(out.t_final + 1) - params.ell_prime
        assert len(out.candidate_set) <= F.K ** (params.ell_prime * 2 ** (d + 1))


def test_candidates_rederive_from_leaves():
    P = _uniform([(0, 1), (1, 3)])
    params = ReduceTreeParams(min_error(F_TOY, P) + 3 * 18.0 + 1, 18.0, 6)
    out = reduce_tree_reg(F_TOY, P, params)
    alpha = params.alpha(out.t_final + 1) - 2 * params.alpha_delta / 3
    rederived = set()
    for path in out.leaves:
        cls = level_class(F_TOY, P, alpha).restrict(out.tree.ancestor_set(path))
        if not cls.is_empty and is_l_irreducible(cls, params.ell_prime):
            rederived.add(soa(cls))
    assert set(out.candidate_set) == rederived


def test_determinism():
    P = _uniform([(0, 1), (1, 3), (0, 3)])
    params = ReduceTreeParams(10.0, 2.0, 2)
    a = reduce_tree_reg(F_TOY, P, params)
    b = reduce_tree_reg(F_TOY, P, params)
    assert a.candidate_set == b.candidate_set
    assert a.t_final == b.t_final
