import itertools
import random

import pytest

from privreg import DiscreteClass, RealClass, fat_alpha, sfat2, sfat_alpha
from privreg.classes import DomainError
from privreg.dimensions import (CertNode, extract_sfat_certificate, sfat2_mask,
                                verify_certificate)

from helpers import (F_TOY, X1, X2, X3, class_stream, dclass, fat_alpha_tuples, make_domain,
                     sfat2_tuples)


def test_sfat2_conventions():
    assert sfat2(dclass([], nx=2)) == -1
    low = dclass(list(itertools.product((1, 2), repeat=2)))
    assert sfat2(low) == 0
    assert sfat2(F_TOY) == 2
    assert sfat2(dclass([(2, 2)])) == 0


def test_sfat2_monotone_under_restriction():
    stream = class_stream(21)
    for F in itertools.islice(stream, 60):
        d = sfat2(F)
        for i in range(2):
            for k in range(1, 5):
                assert sfat2(F.restrict([(i, k)])) <= d


def test_fat_alpha_examples():
    assert fat_alpha(RealClass(X1, ((0.0,),)), 1.0) == 0
    assert fat_alpha(RealClass(X1, ((-1.0,), (1.0,))), 0.5) == 1
    assert fat_alpha(RealClass(X1), 1.0) == -1
    with pytest.raises(DomainError):
        fat_alpha(RealClass(X1, ((0.0,),)), 0.0)


def test_fat_alpha_float_boundary():
    # 0.5 >= 0.4 + 0.1 holds though 0.5 - 0.4 < 0.1: the threshold 0.4 at x1
    # sends the rows at 0.5 up, and 0.19 at x2 splits each side again.
    H = RealClass(X2, ((-0.8, 0.8), (0.3, 0.08), (0.5, 0.08), (0.5, 0.3)))
    assert fat_alpha(H, 0.1) == 2
    assert fat_alpha_tuples(H, 0.1) == 2


def test_fat_alpha_matches_tuple_search():
    rng = random.Random(12)
    classes = []
    for _ in range(320):
        nx = rng.randint(1, 4)
        # Values from a short grid, so rows repeat values at a point.
        grid = [round(rng.uniform(-1, 1), 2) for _ in range(rng.randint(2, 6))]
        classes.append(RealClass(make_domain(nx), tuple(
            tuple(rng.choice(grid) for _ in range(nx)) for _ in range(rng.randint(1, 10)))))
    margins = [0.05, 0.1, 0.25, 0.4, 0.7, 1.0]
    for k, H in enumerate(classes):
        for alpha in margins[k % 3::3]:
            assert fat_alpha(H, alpha) == fat_alpha_tuples(H, alpha), (H.hyps, alpha)
    # A 3-point, 10-hypothesis class at the margin c0 * eta of K = 241.
    H = RealClass(X3, tuple(tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(10)))
    assert fat_alpha(H, 0.25 * 0.0083) == fat_alpha_tuples(H, 0.25 * 0.0083)


def test_sfat2_mask_matches_subclass():
    for F in itertools.islice(class_stream(44, nx=3, K=5, max_h=12), 30):
        for mask in (F.mask, F.mask & 0b1011011, F.mask >> 1, 0):
            assert sfat2_mask(F, mask) == sfat2(F.with_mask(mask))


def test_sfat_alpha_examples():
    assert sfat_alpha(RealClass(X2, ((0.5, -0.5),)), 1.0) == 0
    cube = RealClass(X2, tuple(itertools.product((-1.0, 1.0), repeat=2)))
    assert sfat_alpha(cube, 1.0) == 2
    assert sfat_alpha(RealClass(X1), 1.0) == -1


def test_sfat_alpha_monotone_in_scale():
    rng = random.Random(5)
    for _ in range(20):
        H = RealClass(X2, tuple(tuple(rng.uniform(-1, 1) for _ in range(2))
                                for _ in range(4)))
        assert sfat_alpha(H, 0.3) >= sfat_alpha(H, 0.9)


def test_certificate_roundtrip():
    cert = extract_sfat_certificate(F_TOY)
    assert cert.depth == 2
    assert verify_certificate(F_TOY, cert)


def test_certificate_shifted_witness_fails():
    cert = extract_sfat_certificate(F_TOY)

    def shift(node):
        if node is None:
            return None
        return CertNode(node.point_index, node.witness + 3,
                        shift(node.high), shift(node.low))

    assert not verify_certificate(F_TOY, shift(cert))


def test_certificate_errors():
    with pytest.raises(DomainError):
        extract_sfat_certificate(dclass([(1, 1)]))
    cert = extract_sfat_certificate(F_TOY)
    assert not verify_certificate(dclass([], nx=2), cert)
    lopsided = CertNode(0, 2.0, CertNode(1, 2.0, None, None), None)
    with pytest.raises(DomainError):
        verify_certificate(F_TOY, lopsided)


def test_certificate_depth_matches_dimension():
    for F in itertools.islice(class_stream(33, max_h=10), 40):
        d = sfat2(F)
        if d < 1:
            continue
        cert = extract_sfat_certificate(F)
        assert cert.depth == d
        assert verify_certificate(F, cert)


def test_sfat2_matches_tuple_recursion():
    classes = list(itertools.islice(class_stream(41, max_h=10), 120))
    classes += itertools.islice(class_stream(42, nx=3, K=6, max_h=14), 60)
    rng = random.Random(8)
    for nx, K, nf in [(2, 4, 8), (3, 5, 12), (4, 6, 20), (5, 6, 25), (5, 7, 30)]:
        for _ in range(4):
            hyps = set()
            while len(hyps) < nf:
                hyps.add(tuple(rng.randint(1, K) for _ in range(nx)))
            classes.append(DiscreteClass(make_domain(nx), K, tuple(hyps)))
    # Subclasses too, whose masks are not the root's full mask.
    classes += [F.restrict([(0, k)]) for F in classes[-20:] for k in (1, 2)]
    for F in classes:
        d = sfat2(F)
        assert d == sfat2_tuples(F)
        assert d <= len(F).bit_length() - 1  # floor(log2 |F|); -1 when empty
        if d >= 1:
            cert = extract_sfat_certificate(F)
            assert cert.depth == d
            assert verify_certificate(F, cert)
