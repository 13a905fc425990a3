"""Bench-side tracer: wraps each layer's functions from outside the package.

Every timed call in `tokenskip` goes through a module global or a class
attribute, so replacing that attribute with a timing wrapper sees every call
without touching the package. The tracer is installed only for the traced
pass and restores the original attributes afterwards; the untraced pass calls
the originals, which `wrapped` checks (wrappers carry `__wrapped__`; the
package's own functions do not).

Spans are kept in memory (name, start, end, parent id) and written out by
`write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np


def _module(name: str):
    # importlib, not `import tokenskip.replay`: the package re-exports the
    # function `replay` under the submodule's name.
    return importlib.import_module(f"tokenskip.{name}")


@dataclass(frozen=True)
class Target:
    """One logical function and every attribute it is reached through."""

    layer: str
    function: str
    owners: tuple  # ((object, attribute name), ...)
    has_children: bool = False

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.function}"


def targets() -> tuple[Target, ...]:
    numerics, policy, filtering = _module("numerics"), _module("policy"), _module("filtering")
    model, metrics, replay, trace = (_module("model"), _module("metrics"), _module("replay"),
                                     _module("trace"))
    engine, session, ledger = filtering.FilterEngine, model.DecodeSession, metrics.FlopsLedger
    return (
        Target("numerics", "layer_norm", ((numerics, "layer_norm"), (model, "layer_norm"))),
        Target("numerics", "softmax",
               ((numerics, "softmax"), (model, "softmax"), (trace, "softmax"))),
        Target("numerics", "cosine_similarity",
               ((numerics, "cosine_similarity"), (filtering, "cosine_similarity"))),
        Target("policy", "update_threshold",
               ((policy, "update_threshold"), (filtering, "update_threshold"))),
        Target("filtering", "process", ((engine, "process"),), True),
        Target("filtering", "end_step", ((engine, "end_step"),), True),
        Target("filtering", "head_similarity", ((filtering, "head_similarity"),), True),
        Target("filtering", "fuse", ((filtering, "fuse"),)),
        Target("filtering", "update_anchor", ((filtering, "update_anchor"),)),
        Target("model", "decode", ((session, "decode"),), True),
        Target("model", "block_forward", ((session, "block_forward"),), True),
        Target("model", "logits", ((session, "logits"),), True),
        Target("model", "project_kv", ((model, "project_kv"),)),
        Target("model", "attention_forward", ((model, "attention_forward"),), True),
        Target("model", "ffn_forward", ((model, "ffn_forward"),)),
        Target("metrics", "charge_keep", ((ledger, "charge_keep"),)),
        Target("metrics", "charge_skip", ((ledger, "charge_skip"),)),
        Target("replay", "replay", ((replay, "replay"),), True),
        Target("trace", "write_trace", ((trace, "write_trace"),)),
        Target("trace", "read_trace", ((trace, "read_trace"),)),
    )


def _current(owner, attr):
    # vars() for classes: getattr on a class would hand back the same plain
    # function, but vars() is what setattr replaces.
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def wrapped() -> list[str]:
    """The traced attributes that are currently tracer wrappers."""
    return [f"{owner.__name__}.{attr}" for t in targets() for owner, attr in t.owners
            if hasattr(_current(owner, attr), "__wrapped__")]


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.targets = targets()
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.decisions = self.skipped = self.shadow = self.degenerate = 0
        self._stack: list[int] = []
        self._saved: list = []

    def _count_decision(self, result) -> None:
        _, report = result
        if report is not None:
            self.decisions += 1
            self.skipped += report.skipped
            self.shadow += report.shadow
            self.degenerate += report.degenerate

    def _wrap(self, index: int, fn, on_return=None):
        names, parents, starts, ends = (self.span_name, self.span_parent, self.span_start,
                                        self.span_end)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter_ns()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for i, t in enumerate(self.targets):
            on_return = self._count_decision if t.name == "filtering.process" else None
            wrappers = {}
            for owner, attr in t.owners:
                fn = _current(owner, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(i, fn, on_return)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def stats(self) -> dict[str, dict]:
        """Per function: calls, total and self time in microseconds."""
        n = len(self.targets)
        calls = [0] * n
        total = [0] * n
        child = [0] * len(self.span_name)
        for sid, (idx, parent) in enumerate(zip(self.span_name, self.span_parent)):
            dur = self.span_end[sid] - self.span_start[sid]
            calls[idx] += 1
            total[idx] += dur
            if parent >= 0:
                child[parent] += dur
        self_ns = [0] * n
        for sid, idx in enumerate(self.span_name):
            self_ns[idx] += self.span_end[sid] - self.span_start[sid] - child[sid]
        return {t.name: {"calls": calls[i], "total_us": total[i] / 1e3,
                         "self_us": self_ns[i] / 1e3, "has_children": t.has_children}
                for i, t in enumerate(self.targets)}

    def write_spans(self, path) -> None:
        """One array per span field; `name` indexes `names`, `parent` is a
        span index or -1."""
        np.savez(path, names=np.array([t.name for t in self.targets]),
                 name=np.asarray(self.span_name), parent=np.asarray(self.span_parent),
                 start_ns=np.asarray(self.span_start), end_ns=np.asarray(self.span_end))
