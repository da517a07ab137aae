"""Per-layer tracing of privreg from outside the library.

Tracer.install() rebinds each traced function, in every privreg module that
holds it, to a wrapper that records a span (name, start, duration, parent
span, operation index); uninstall() puts the originals back.  Methods are
rebound on their class.  A layer's self time is its span time minus the time
of the traced spans it caused.

Aggregates (calls, self time, output counts) cover every traced call; the
span list itself is capped so that a long run keeps bounded memory.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, attribute path, metric name, output count name, output counter)
TRACED = [
    ("pipeline", "reg_learn", "pipeline.reg_learn", None, None),
    ("pipeline", "compute_parameters", "pipeline.compute_parameters", None, None),
    ("tree_learner", "reduce_tree_reg", "tree_learner.reduce_tree_reg", None, None),
    ("tree_learner", "level_class", "tree_learner.level_class", None, None),
    ("dp", "noisy_opt_error", "dp.noisy_opt_error", None, None),
    ("dp", "candidate_id", "dp.candidate_id", None, None),
    ("dp", "sparse_select", "dp.sparse_select", "candidates",
     lambda args, result: len(set().union(*map(set, args[0].user_sets)))),
    ("classes", "discretize_dataset", "classes.discretize_dataset", None, None),
    ("classes", "EmpiricalDistribution.from_samples", "classes.from_samples", None, None),
    ("classes", "DiscreteClass.restrict", "classes.restrict", None, None),
    ("classes", "enumerate_restriction_subclasses", "classes.enumerate_restriction_subclasses",
     "subclasses", lambda args, result: len(result)),
    ("dimensions", "sfat2", "dimensions.sfat2", None, None),
    ("irreducibility", "is_l_irreducible", "irreducibility.is_l_irreducible", None, None),
    ("irreducibility", "irreducibility_level", "irreducibility.irreducibility_level", None, None),
    ("irreducibility", "soa", "irreducibility.soa", None, None),
    ("irreducibility", "soa_partial", "irreducibility.soa_partial", None, None),
    ("irreducibility", "reduction_witness_tree", "irreducibility.reduction_witness_tree", None, None),
    ("irreducibility", "build_reducing_tree", "irreducibility.build_reducing_tree", None, None),
    ("filtering", "filter_step", "filtering.filter_step", None, None),
    ("filtering", "soa_filter", "filtering.soa_filter", "members",
     lambda args, result: len(result.members)),
    ("trees", "KTree.attach", "trees.attach", None, None),
    ("trees", "KTree.ancestor_set", "trees.ancestor_set", None, None),
    ("trees", "KTree.leaves", "trees.leaves", None, None),
]

SPAN_CAP = 200_000


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = [name for _, _, name, _, _ in TRACED]
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.counted = [0] * n
        self.stack: list = []
        self.spans: list = []
        self.next_id = 1
        self.op = -1
        self.ops = 0
        self.origin = time.perf_counter_ns()
        self._restore: list = []
        self._wrappers = self._build()

    # ----------------------------------------------------------- spans

    def _enter(self, idx: int) -> None:
        parent = self.stack[-1][1] if self.stack else 0
        self.stack.append([idx, self.next_id, parent, 0, time.perf_counter_ns()])
        self.next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        idx, sid, parent, child, start = self.stack.pop()
        dur = end - start
        self.self_ns[idx] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, idx, self.op, (start - self.origin) // 1000, dur // 1000))

    def _wrap(self, idx: int, fn, counter):
        if inspect.isgeneratorfunction(fn):
            # Time each resumption, so the consumer's loop body is not
            # charged to the generator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[idx] += 1
                it = fn(*args, **kwargs)
                while True:
                    self._enter(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[idx] += 1
            self._enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                self.counted[idx] += counter(args, result)
            return result
        return wrapper

    def _build(self) -> list:
        """(owner, attribute, original, replacement, rebind-in-modules)."""
        out = []
        for idx, (module, path, _, _, counter) in enumerate(TRACED):
            owner = sys.modules[f"{self.package.__name__}.{module}"]
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            # A renamed or removed function must fail the traced run, not
            # read as a layer that costs nothing.
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(idx, raw.__func__, counter))
            else:
                new = self._wrap(idx, raw, counter)
            out.append((owner, attr, raw, new, not owners))
        return out

    # -------------------------------------------------------- install

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for owner, attr, raw, new, module_level in self._wrappers:
            if not module_level:
                setattr(owner, attr, new)
                self._restore.append((owner, attr, raw))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, name, new)
                        self._restore.append((mod, name, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def run_op(self, op_index: int, fn, *args):
        """fn(*args) as one traced operation; returns (result, wall ns)."""
        self.install()
        self.op = op_index
        try:
            start = time.perf_counter_ns()
            result = fn(*args)
            elapsed = time.perf_counter_ns() - start
        finally:
            self.uninstall()
            self.stack.clear()
        self.ops += 1
        return result, elapsed

    # --------------------------------------------------------- report

    def metrics(self, overhead_pct: float) -> dict:
        ops = max(self.ops, 1)
        out = {}
        for idx, (_, _, name, count_name, _) in enumerate(TRACED):
            out[f"{name}.calls"] = {"value": self.calls[idx] / ops, "unit": "calls/op"}
            out[f"{name}.self_ms"] = {"value": self.self_ns[idx] / ops / 1e6, "unit": "ms/op"}
            if count_name:
                per_call = self.counted[idx] / self.calls[idx] if self.calls[idx] else 0.0
                out[f"{name}.{count_name}"] = {"value": per_call, "unit": "count/call"}
        out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
        return out

    def write(self, path, header: dict) -> None:
        doc = dict(header)
        doc["traced_ops"] = self.ops
        doc["layers"] = {
            name: {"calls": self.calls[i], "self_ms": self.self_ns[i] / 1e6,
                   "output_count": self.counted[i]}
            for i, name in enumerate(self.names)}
        doc["span_fields"] = ["id", "parent", "name", "op", "start_us", "dur_us"]
        doc["span_names"] = self.names
        doc["spans_dropped"] = self.next_id - 1 - len(self.spans)
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
