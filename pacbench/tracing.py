"""Per-layer tracing by wrapping the program's public functions from outside.

While installed, every listed function is replaced, in each ``pactrellis``
module that holds a reference to it, by a wrapper that records a span: name,
start, end, the span that caused it and the outermost span of the same call
tree.  A span's self time is its duration minus the durations of the wrapped
calls made inside it.  Counts are taken at the same boundaries.  Spans and
counts stay in memory until ``write``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

SPAN_LIMIT = 20_000  # spans kept for the output file; aggregates cover every call


def _prune_before(args):
    return args[0].size


def _prune_after(before, args, counts):
    counts["decoder.prune.candidates"] += before
    counts["decoder.prune.kept"] += args[0].size


def _bank_after(_, args, counts):
    # bytes written into the bank's new arrays, computed from their shapes
    bank = args[0]
    counts["sc_engine.bytes_copied"] += bank.llr.nbytes + bank.beta.nbytes


# (layer, module, attribute; "Class.method" for methods, optional (before, after) count hooks)
LAYERS = (
    ("cli.main", "pactrellis.cli", "main", None),
    ("sim.run_sweep", "pactrellis.sim", "run_sweep", None),
    ("sim.run_trial", "pactrellis.sim", "run_trial", None),
    ("sim.trial_rng", "pactrellis.sim", "trial_rng", None),
    ("pac_core.pac_encode", "pactrellis.pac_core", "pac_encode", None),
    ("channel.bpsk_modulate", "pactrellis.channel", "bpsk_modulate", None),
    ("channel.awgn", "pactrellis.channel", "awgn", None),
    ("channel.channel_llr", "pactrellis.channel", "channel_llr", None),
    ("decoder.decode", "pactrellis.decoder", "decode", None),
    ("decoder.extend_frozen", "pactrellis.decoder", "extend_frozen", None),
    ("decoder.extend_info", "pactrellis.decoder", "extend_info", None),
    ("decoder.prune", "pactrellis.decoder", "prune", (_prune_before, _prune_after)),
    ("sc_engine.update_llrs", "pactrellis.sc_engine", "ScBank.update_llrs", None),
    ("sc_engine.update_partial_sums", "pactrellis.sc_engine", "ScBank.update_partial_sums", None),
    ("sc_engine.duplicate", "pactrellis.sc_engine", "ScBank.duplicate", (None, _bank_after)),
    ("sc_engine.take", "pactrellis.sc_engine", "ScBank.take", (None, _bank_after)),
)


class Tracer:
    """Span recorder for the functions in ``LAYERS``; use ``with tracer:`` around traced work."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.wall_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent = set()  # layers whose function, or whose count hook, no longer exists
        self.spans = []  # (id, parent id, root id, name, start ns, end ns), the first SPAN_LIMIT
        self.spans_dropped = 0
        self._stack = []  # open spans: [id, root id, ns covered by wrapped children]
        self._next_id = 0
        self._saved = []

    def _wrap(self, name, fn, hooks):
        before, after = hooks if hooks else (None, None)
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1] if stack else None
            frame = [sid, parent[1] if parent else sid, 0]
            token = self._hook(name, before, args) if before else None
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                self.calls[name] += 1
                self.wall_ns[name] += dt
                self.self_ns[name] += dt - frame[2]
                if parent:
                    parent[2] += dt
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((sid, parent[0] if parent else None, frame[1], name, t0, t1))
                else:
                    self.spans_dropped += 1
                if after:
                    self._hook(name, after, token, args, self.counts)

        return traced

    def _hook(self, name, hook, *args):
        try:
            return hook(*args)
        except (AttributeError, IndexError, TypeError):
            self.absent.add(name + " (count)")
            return None

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "pactrellis"]
        for name, modname, attr, hooks in LAYERS:
            owner = sys.modules.get(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, fn, hooks)
            if isinstance(owner, type):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def write(self, path, extra: dict) -> None:
        """Write aggregates, counts and the recorded spans as one JSON document."""
        layers = {
            name: {"calls": self.calls[name], "wall_ns": self.wall_ns[name],
                   "self_ns": self.self_ns[name]}
            for name, *_ in LAYERS
        }
        doc = dict(extra, layers=layers, counts=dict(self.counts), absent=sorted(self.absent),
                   spans_dropped=self.spans_dropped,
                   span_fields=["id", "parent", "root", "name", "start_ns", "end_ns"],
                   spans=self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh)
