"""Per-layer spans recorded from outside the program.

While a traced call runs, public functions and methods of ``telescope``
are replaced at their module or class attribute by wrappers that record a
span (name, start, end, parent) or bump a counter; the originals are put
back after the call, so untraced calls run the program unchanged.

Spans are kept in memory and written out at the end.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter, defaultdict

# (span name, module, attribute path).  A name listed twice is patched at
# both places: ``cli`` imports ``parse_word`` into its own namespace.
SPANS = (
    ("cli.main", "cli", "main"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.sample_words", "cli", "sample_words"),
    ("words.parse_word", "words", "parse_word"),
    ("words.parse_word", "cli", "parse_word"),
    ("perm.order", "perm", "PermGroup.order"),
    ("perm.contains", "perm", "PermGroup.contains"),
    ("selfsim.level_action", "selfsim", "WreathRecursion.level_action"),
    ("selfsim.ball", "selfsim", "WreathRecursion.ball"),
    ("selfsim.element_order", "selfsim", "WreathRecursion.element_order"),
    ("selfsim.is_trivial", "selfsim", "WreathRecursion.is_trivial"),
    ("selfsim.torsion_growth", "selfsim", "WreathRecursion.torsion_growth"),
    ("tower.evaluate_component", "tower", "TelescopeGroup.evaluate_component"),
    ("tower.verify_trace_lemmas", "tower", "verify_trace_lemmas"),
    ("tower.verify_fundamental_general", "tower", "verify_fundamental_general"),
    ("tower.verify_orbit_bound", "tower", "verify_orbit_bound"),
    ("tower.verify_torsion_bound", "tower", "verify_torsion_bound"),
    ("certify.alt_cutoff", "certify", "alt_cutoff"),
    ("certify.check_subdirect", "certify", "check_subdirect"),
    ("certify.perfectness_scan", "certify", "perfectness_scan"),
    ("certify.check_tail_injectivity", "certify", "check_tail_injectivity"),
)

# Spans whose calls per op and self seconds per op are reported.
CALLS_AND_SELF = (
    "perm.order", "perm.contains", "selfsim.level_action", "selfsim.ball",
    "selfsim.element_order", "selfsim.is_trivial", "tower.evaluate_component",
)
SELF_ONLY = (
    "tower.verify_trace_lemmas", "tower.verify_fundamental_general",
    "tower.verify_orbit_bound", "tower.verify_torsion_bound",
    "certify.alt_cutoff", "certify.check_subdirect", "certify.perfectness_scan",
    "certify.check_tail_injectivity",
    "cli.load_config", "cli.sample_words", "words.parse_word",
)
# Spans kept for writing out; later ones are still folded into the totals.
KEEP_SPANS = 200_000
# Stages whose inclusive time is the chain-bound share of a verify call.
CHAIN_STAGES = ("certify.alt_cutoff", "certify.check_subdirect")


def _resolve(modules, module, path):
    owner = modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counters for the calls made inside ``with tracer:``."""

    def __init__(self, modules, run_id):
        self.run_id = run_id
        self.kept = []
        self.dropped = 0
        self.ops = 0
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self s, total s
        self.counts = Counter()
        self._spans = []
        self._stack = []
        self._ids = itertools.count()
        self._patches = []
        for name, module, path in SPANS:
            owner, attr = _resolve(modules, module, path)
            original = getattr(owner, attr)
            after = self._after_alt_cutoff if name == "certify.alt_cutoff" else None
            self._patches.append((owner, attr, original,
                                  self._span(name, original, after)))
        owner, attr = _resolve(modules, "perm", "Permutation.__mul__")
        self._patches.append((owner, attr, getattr(owner, attr),
                              self._count_calls(getattr(owner, attr))))
        owner, attr = _resolve(modules, "selfsim", "WreathRecursion.equal")
        self._patches.append((owner, attr, getattr(owner, attr),
                              self._count_equal(getattr(owner, attr))))

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, ids, clock = self._spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [next(ids), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _count_calls(self, fn):
        counts = self.counts

        def wrapper(*args):
            counts["perm.mul.calls"] += 1
            return fn(*args)
        return wrapper

    def _count_equal(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["selfsim.equal.calls"] += 1
            counts["selfsim.equal.true"] += bool(result)
            return result
        return wrapper

    def _after_alt_cutoff(self, args, result):
        """Kernel generators kept against Schreier generators tried."""
        tg, parameters = args[0], result[0].parameters
        self.counts["alt_cutoff.kept"] += parameters["kernel_generators"]
        self.counts["alt_cutoff.tried"] += (
            parameters["sign_image_size"] * (len(tg.gen_names) + 1))

    # -- one traced call -------------------------------------------------------

    def __enter__(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._fold()
        return False

    def _fold(self):
        spans = self._spans
        if not spans:
            return
        self.ops += 1
        base = spans[0][0]
        inner = [0.0] * len(spans)
        for _, parent, _, start, end in spans:
            if parent >= base:
                inner[parent - base] += end - start
        for (_, _, name, start, end), child in zip(spans, inner):
            total = self.totals[name]
            total[0] += 1
            total[1] += end - start - child
            total[2] += end - start
        if len(self.kept) + len(spans) <= KEEP_SPANS:
            self.kept.extend(spans)
        else:
            self.dropped += len(spans)
        spans.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, each a mean per traced op."""
        ops = max(self.ops, 1)
        absent = (0, 0.0, 0.0)
        out = {}
        for name in CALLS_AND_SELF:
            calls, own, _ = self.totals.get(name, absent)
            out[f"{name}.calls"] = (calls / ops, "calls/op")
            out[f"{name}.self_s"] = (own / ops, "s/op")
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = (self.totals.get(name, absent)[1] / ops, "s/op")
        out["perm.mul.calls"] = (self.counts["perm.mul.calls"] / ops, "calls/op")
        equal_calls = self.counts["selfsim.equal.calls"]
        out["selfsim.equal.calls"] = (equal_calls / ops, "calls/op")
        out["selfsim.equal.hit_ratio"] = (
            self.counts["selfsim.equal.true"] / equal_calls if equal_calls else 0.0,
            "ratio")
        tried = self.counts["alt_cutoff.tried"]
        out["certify.alt_cutoff.kept_ratio"] = (
            self.counts["alt_cutoff.kept"] / tried if tried else 0.0, "ratio")
        call_total = self.totals.get("cli.main", absent)[2]
        chain = sum(self.totals.get(name, absent)[2] for name in CHAIN_STAGES)
        out["certify.chain_share"] = (chain / call_total if call_total else 0.0, "ratio")
        out["trace.spans_per_op"] = (sum(t[0] for t in self.totals.values()) / ops,
                                     "spans/op")
        return out

    def summary(self):
        """Every span name with its calls, self seconds and total seconds per op."""
        ops = max(self.ops, 1)
        return {name: {"calls": calls / ops, "self_s": own / ops, "total_s": total / ops}
                for name, (calls, own, total) in sorted(self.totals.items())}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"run_id": self.run_id, "ops": self.ops,
                                     "kept": len(self.kept),
                                     "dropped": self.dropped}) + "\n")
            for sid, parent, name, start, end in self.kept:
                handle.write(f'{{"run":"{self.run_id}","id":{sid},"parent":{parent},'
                             f'"name":"{name}","start":{start:.9f},"end":{end:.9f}}}\n')
