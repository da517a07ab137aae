"""Golden hash of the tree layer's outputs on a seeded stream of small classes.

The records cover witness and reducing trees, the validators' verdicts and
messages (on the class a tree was built for and on the next class of the
stream), soa_filter members and traces under the learner's schedule and a
tight one, and reduce_tree_reg outputs.  The constant was last taken when
witness trees began to write a constant point's pair once, where they used
to repeat it once per level; that changed 80 of the 2,268 reducing-tree
records, in their JSON and verdicts, and no other record.  It pins the
outputs byte for byte across every later change.
"""

import hashlib
import itertools
import json
import random

from privreg import (DomainError, EmpiricalDistribution, LadderSchedule, ReduceTreeError,
                     ReduceTreeParams, TreeError, build_reducing_tree, min_error,
                     reduce_tree_reg, reduction_witness_tree, sfat2, soa_filter,
                     validate_reducing_tree, validate_witness_tree)

from helpers import class_stream

GOLDEN = "a9f2b73c010a7d3c4a30b64acd385b51aec17fc58d6b95c5fae3e8a12dc82408"


def _verdict(check, *args):
    try:
        check(*args)
        return "ok"
    except (TreeError, DomainError) as e:
        return f"{type(e).__name__}: {e}"


def tree_layer_record(F, G, rng: random.Random) -> list:
    """The tree layer's outputs on F; F's trees are also judged against G,
    a class on the same domain with the same K."""
    d, dom, nx, K = sfat2(F), F.domain, F.domain.size, F.K
    out = []
    for l in (1, 2):
        w = reduction_witness_tree(F, l)
        out.append(None if w is None else [
            w.to_json(dom),
            [_verdict(validate_witness_tree, X, w, ll) for X in (F, G) for ll in (1, 2)]])
    for x in range(nx):
        for y in range(1, K + 1):
            reduces = sfat2(F.restrict([(x, y)])) < d
            for require, ell_seq in ((True, [2 ** t for t in range(d + 1)]),
                                     (False, [rng.choice((2, 3)) ** t for t in range(d + 1)])):
                if require and not reduces:
                    continue
                tree = build_reducing_tree(F, x, y, ell_seq, require_reduction=require)
                out.append([tree.to_json(dom)] + [
                    _verdict(validate_reducing_tree, X, tree, seq)
                    for X in (F, G) for seq in (ell_seq, [1] * (d + 1), [1] + [4] * d)])
    for schedule in (LadderSchedule(1, d + 1, 12 * (d + 1), 5),
                     LadderSchedule(1, d + 1, d + 1, 1)):
        for _ in range(2):
            g_hat = tuple(rng.randint(1, K) for _ in range(nx))
            trace = []
            rep = soa_filter(F, g_hat, schedule, trace=trace)
            out.append([[L.hyps for L in rep.members], trace])
    P = EmpiricalDistribution.from_samples(
        [(rng.randrange(nx), rng.randint(1, K)) for _ in range(8)])
    eta = min_error(F, P)
    for alpha1 in (eta + (d + 1) * 2.0 + 0.5, eta + 1.0 + d * 2.0):
        try:
            res = reduce_tree_reg(F, P, ReduceTreeParams(alpha1, 2.0, 2))
            out.append([res.candidate_set, res.tree.to_json(dom), res.leaves, res.t_final])
        except ReduceTreeError as e:
            out.append(str(e))
    return out


def tree_layer_records(seed: int, count: int, nx: int, K: int, max_h: int) -> list:
    rng = random.Random(seed)
    classes = list(itertools.islice(class_stream(seed, nx=nx, K=K, max_h=max_h), count + 1))
    return [tree_layer_record(F, G, rng) for F, G in zip(classes, classes[1:])]


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_tree_layer_golden():
    records = (tree_layer_records(71, 60, 3, 4, 12)
               + tree_layer_records(73, 20, 2, 5, 12)
               + tree_layer_records(79, 15, 3, 6, 15))
    assert _digest(records) == GOLDEN
