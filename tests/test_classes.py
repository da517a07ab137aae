import gc
import itertools
import random
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privreg import (DiscreteClass, Domain, DomainError, EmpiricalDistribution,
                     LadderSchedule, RealClass, ReduceTreeParams, abs_error,
                     discretize_class, discretize_dataset, discretize_value,
                     filter_step, label_count, min_error, reduce_tree_reg, sfat2,
                     soa_filter, sup_distance, undisc_hypothesis)
from privreg.classes import (canonical_restriction, enumerate_restriction_subclasses,
                             group_errors, sample_cells)
from privreg.tree_learner import _level_masks

from helpers import F_TOY, X1, X2, dclass, make_domain


def test_label_count():
    assert label_count(0.5) == 4
    assert label_count(0.3) == 7
    with pytest.raises(DomainError):
        label_count(0.0)
    with pytest.raises(DomainError):
        label_count(1.0)


def test_discretize_value_examples():
    assert discretize_value(-1, 0.5) == 1
    assert discretize_value(1, 0.5) == 4
    assert discretize_value(0, 0.5) == 3


def test_discretize_value_errors():
    with pytest.raises(DomainError):
        discretize_value(1.5, 0.5)
    with pytest.raises(DomainError):
        discretize_value(0.0, 2.0)


@given(st.floats(min_value=-1, max_value=1), st.floats(min_value=-1, max_value=1),
       st.sampled_from([0.9, 0.5, 0.25, 0.1]))
@example(1.0, 0.9999999999999999, 0.9)
def test_discretize_value_monotone(y1, y2, eta):
    lo, hi = sorted((y1, y2))
    assert discretize_value(lo, eta) <= discretize_value(hi, eta)


def test_discretize_class_collapse():
    H = RealClass(X1, ((0.0,), (0.01,)))
    F = discretize_class(H, 0.5)
    assert F.hyps == ((3,),)
    assert discretize_class(RealClass(X1, ((1.0,),)), 0.5).hyps == ((4,),)
    assert discretize_class(RealClass(X1), 0.5).is_empty


def test_discretize_dataset():
    assert discretize_dataset([(0, -1.0)], 0.5) == [(0, 1)]
    assert discretize_dataset([(0, 1.0), (1, 0.0)], 0.5) == [(0, 4), (1, 3)]
    assert discretize_dataset([], 0.5) == []
    with pytest.raises(DomainError, match="sample 1"):
        discretize_dataset([(0, 0.0), (0, 2.0)], 0.5)


@given(st.lists(st.floats(min_value=-1, max_value=1), max_size=20),
       st.sampled_from([0.9, 0.5, 0.3, 0.1]))
@example([1.0, -1.0, 0.9999999999999999], 0.9)
def test_discretize_dataset_matches_discretize_value(ys, eta):
    samples = [(j % 3, y) for j, y in enumerate(ys)]
    expected = [(i, discretize_value(y, eta)) for i, y in samples]
    assert repr(discretize_dataset(samples, eta)) == repr(expected)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_group_errors_match_abs_error(data):
    nx, K = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 8))
    label = st.integers(1, K)
    F = DiscreteClass(make_domain(nx), K, tuple(data.draw(
        st.lists(st.tuples(*[label] * nx), min_size=1, max_size=10))))
    n, m = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 3))
    samples = data.draw(st.lists(st.tuples(st.integers(0, nx - 1), label),
                                 min_size=n * m, max_size=n * m))
    errs = group_errors(F, sample_cells(samples, nx, K), n)
    ref = np.array([[abs_error(f, EmpiricalDistribution.from_samples(samples[g * n:(g + 1) * n]))
                     for f in F.hyps] for g in range(m)])
    assert errs.shape == ref.shape
    assert np.abs(errs - ref).max() <= 1e-12
    # Thresholds at every error, between neighbouring errors, and on a grid.
    values = np.unique(ref)
    alphas = (values.tolist() + ((values[1:] + values[:-1]) / 2).tolist()
              + np.linspace(-0.5, K, 23).tolist())
    (got, got_index), (want, want_index) = (_level_masks(F, errs, alphas),
                                            _level_masks(F, ref, alphas))
    assert [got[r] for r in got_index] == [want[r] for r in want_index]


def test_restrict_examples():
    assert F_TOY.restrict([(0, 1)]).hyps == ((1, 1), (1, 3))
    assert F_TOY.restrict([(0, 1), (1, 3)]).hyps == ((1, 3),)
    assert F_TOY.restrict([(0, 2)]).is_empty
    with pytest.raises(DomainError):
        F_TOY.restrict([(5, 1)])
    with pytest.raises(DomainError):
        F_TOY.restrict([(0, 9)])


def test_restrict_composition():
    rng = random.Random(3)
    for _ in range(50):
        F = dclass([[rng.randint(1, 4) for _ in range(2)] for _ in range(5)])
        a = [(rng.randrange(2), rng.randint(1, 4))]
        b = [(rng.randrange(2), rng.randint(1, 4))]
        assert F.restrict(a).restrict(b).hyps == F.restrict(a + b).hyps


def test_restrict_contract():
    F = dclass([(1, 1), (1, 3), (3, 1), (3, 3), (2, 4)])
    assert F.restrict([(0, 1), (0, 3)]).is_empty
    assert F.restrict([(0, 1), (0, 3)]).hyps == ()
    assert F.restrict([(0, 1), (0, 1)]).hyps == ((1, 1), (1, 3))
    assert F.restrict([(1, 3), (0, 1), (1, 3)]).hyps == ((1, 3),)
    assert F.restrict([]).hyps == F.hyps
    for bad in ([(2, 1)], [(-1, 1)], [(0, 0)], [(0, 5)], [(0, 1), (1, 9)],
                [(0, 4), (7, 1)]):
        with pytest.raises(DomainError):
            F.restrict(bad)


def test_with_hyps_contract():
    F = dclass([(1, 1), (1, 3), (3, 1), (3, 3)])
    G = F.restrict([(0, 1)])
    # Rows of the root outside G are allowed; order and repeats are not kept.
    sub = G.with_hyps([(3, 3), (1, 1), (3, 3)])
    assert sub.hyps == ((1, 1), (3, 3))
    assert sub.memo is F.memo
    assert F.with_hyps([]).is_empty
    for bad in ([(2, 2)], [(1, 1), (1, 1, 1)], [(0, 1)]):
        with pytest.raises(DomainError):
            G.with_hyps(bad)


def test_subclasses_are_canonical_and_share_the_root_memo():
    rng = random.Random(12)
    for _ in range(40):
        F = dclass([[rng.randint(1, 5) for _ in range(3)] for _ in range(12)], K=5, nx=3)
        G = F
        for _ in range(3):
            cons = [(rng.randrange(3), rng.randint(1, 5)) for _ in range(rng.randint(0, 2))]
            expect = tuple(h for h in G.hyps if all(h[i] == k for i, k in cons))
            G = G.restrict(cons)
            assert G.hyps == expect == tuple(sorted(set(G.hyps)))
            assert G.memo is F.memo and G.bits is F.bits
            assert G == DiscreteClass(F.domain, F.K, G.hyps)
            assert G.with_hyps(reversed(G.hyps)) == G


def test_canonical_restriction():
    assert canonical_restriction([(1, 2), (0, 3), (1, 2)]) == ((0, 3), (1, 2))


def test_class_canonicalization():
    F = dclass([(3, 3), (1, 1), (3, 3)])
    assert F.hyps == ((1, 1), (3, 3))
    with pytest.raises(DomainError):
        dclass([(0, 1)])
    with pytest.raises(DomainError):
        dclass([(1,)])


def test_memo_lives_on_the_class():
    F = dclass([(1, 3), (2, 1), (3, 4), (4, 1), (2, 4)])
    schedule = LadderSchedule(1, 3, 36, 5)
    filter_step(F, schedule, schedule.r_max)
    soa_filter(F, (2, 3), schedule)
    reduce_tree_reg(F, EmpiricalDistribution.from_samples([(0, 2), (1, 3)]),
                    ReduceTreeParams(60.0, 18.0, 6))
    assert F.restrict([(0, 2)]).memo is F.memo
    ref, bits = weakref.ref(F), weakref.ref(F.bits)
    del F
    gc.collect()
    assert ref() is None
    assert bits() is None

    G1, G2 = dclass([(1, 3), (2, 1)]), dclass([(2, 1), (1, 3)])
    sfat2(G1)
    assert G1 == G2 and hash(G1) == hash(G2) and G1.memo is not G2.memo
    H = RealClass(X2, ((-0.75, 0.25), (0.25, -0.75)))
    assert discretize_class(H, 0.5) is discretize_class(H, 0.5)
    assert discretize_class(H, 0.25) is not discretize_class(H, 0.5)


def test_empirical_distribution():
    with pytest.raises(DomainError):
        EmpiricalDistribution(((0, 1, 0.7),))
    with pytest.raises(DomainError):
        EmpiricalDistribution.from_samples([])
    P = EmpiricalDistribution.from_samples([(0, 1), (1, 3)])
    assert sum(w for _, _, w in P.atoms) == pytest.approx(1.0)


def test_abs_error_examples():
    P = EmpiricalDistribution.from_samples([(0, 1), (1, 3)])
    assert abs_error((1, 1), P) == pytest.approx(1.0)
    assert abs_error((1, 3), P) == pytest.approx(0.0)
    point = EmpiricalDistribution.from_samples([(0, 2)])
    assert abs_error((2, 2), point) == pytest.approx(0.0)
    assert min_error(F_TOY, P) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        min_error(dclass([], nx=2), P)


def test_enumerate_restriction_subclasses_examples():
    single = dclass([(2, 2)])
    assert [G.hyps for G in enumerate_restriction_subclasses(single)] == [((2, 2),)]
    subs = enumerate_restriction_subclasses(F_TOY)
    assert len(subs) == 9
    sizes = sorted((len(G.hyps) for G in subs), reverse=True)
    assert sizes == [4, 2, 2, 2, 2, 1, 1, 1, 1]
    assert enumerate_restriction_subclasses(dclass([], nx=2)) == []


def test_enumerate_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(20):
        F = dclass([[rng.randint(1, 3) for _ in range(2)] for _ in range(5)], K=3)
        pairs = [(i, k) for i in range(2) for k in range(1, 4)]
        expected = set()
        for size in range(len(pairs) + 1):
            for S in itertools.combinations(pairs, size):
                sub = F.restrict(S)
                if not sub.is_empty:
                    expected.add(sub.hyps)
        got = {G.hyps for G in enumerate_restriction_subclasses(F)}
        assert got == expected


def test_undisc_hypothesis():
    assert undisc_hypothesis((1, 1), 4) == (-1.0, -1.0)
    assert undisc_hypothesis((4,), 4) == (0.5,)
    assert undisc_hypothesis((1, 4), 4) == (-1.0, 0.5)
    with pytest.raises(DomainError):
        undisc_hypothesis((5,), 4)


def test_sup_distance():
    assert sup_distance((1, 4), (2, 2)) == 2
    assert sup_distance((3,), (3,)) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_discretization_sandwich(seed):
    rng = random.Random(seed)
    eta = rng.choice([0.9, 0.5, 0.3, 0.2])
    K = label_count(eta)
    n = rng.randint(1, 6)
    h = tuple(rng.uniform(-1, 1) for _ in range(n))
    samples = [(rng.randrange(n), rng.uniform(-1, 1)) for _ in range(5)]
    Q = EmpiricalDistribution.from_samples(samples)
    err = abs_error(h, Q)
    h_disc = tuple(discretize_value(v, eta) for v in h)
    Q_disc = EmpiricalDistribution.from_samples(discretize_dataset(samples, eta))
    err_disc = abs_error(h_disc, Q_disc)
    assert K * err / 2 - 1 <= err_disc + 1e-9
    assert err_disc <= K * err / 2 + 1 + 1e-9


def test_domain_validation():
    with pytest.raises(DomainError):
        Domain(())
    with pytest.raises(DomainError):
        Domain(("a", "a"))
    with pytest.raises(DomainError):
        make_domain(2).index("zz")
