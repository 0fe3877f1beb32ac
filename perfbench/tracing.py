"""Span recorder installed from outside the library for the traced run.

Every public module-level function of each layer module of ``qwad`` is
replaced, wherever a module of the package (or a benchmark module) holds
a reference to it, by a wrapper that records one span per call: name,
start, end, parent span and the benchmark op it belongs to.  Spans live
in flat in-memory arrays and are written out once, at exit.  Per
function the tracer keeps the call count, the total (inclusive) time and
the self time, which is the span's duration minus the time its child
spans cover.

A call that re-enters a function already on the span stack (recursion
through the module-level name) runs unwrapped, so a recursive public
function counts one span per outermost call.

A few functions also feed counters computed from their arguments or
results (bytes produced by ``embed``, compiled members kept, nodes of a
derivative, characters parsed, trajectories requested).  The counting
runs after the span's end; its time is charged to no span, so it shows
only as tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = (
    "syntax",
    "autodiff",
    "compiler",
    "semantics",
    "linalg",
    "gates",
    "gradient",
    "casestudy",
    "benchmarks",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.counters = {
            "linalg.embed.mib_out": 0.0,
            "compiler.members_out": 0,
            "compiler.members_kept": 0,
            "autodiff.nodes_out": 0,
            "syntax.parse.chars": 0,
            "gradient.trajectories": 0,
        }
        self.op = -1  # index of the benchmark op being run
        self.enabled = True  # off while the benchmark checks outputs
        self._stack = []  # per open span: [span id, child time]
        self._active = []
        self._next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def wrap(self, name: str, fn, hook=None):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self._active.append(False)
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[fid] or not self.enabled:
                return fn(*args, **kwargs)
            active[fid] = True
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                stack.pop()
                active[fid] = False
                self._record(fid, sid, parent, t0, t1, frame[1])
                if done and hook is not None:
                    hook(self, args, kwargs, result)
                if stack:
                    # the parent's covered time includes this span and
                    # the counting done for it
                    stack[-1][1] += clock() - t0
            return result

        return traced

    def _record(self, fid, sid, parent, t0, t1, child):
        self.calls[fid] += 1
        self.total_s[fid] += t1 - t0
        self.self_s[fid] += (t1 - t0) - child
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_name.append(fid)
        self.span_op.append(self.op)
        self.span_start.append(t0)
        self.span_end.append(t1)

    def stats(self, name: str):
        """(calls, self seconds, total seconds) of one wrapped function."""
        try:
            i = self.names.index(name)
        except ValueError:
            raise KeyError(f"{name} is not a traced function") from None
        return self.calls[i], self.self_s[i], self.total_s[i]

    def table(self) -> dict:
        return {
            n: {"calls": c, "self_s": s, "total_s": t}
            for n, c, s, t in zip(self.names, self.calls, self.self_s, self.total_s)
            if c
        }

    def write_spans(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# -- counters -----------------------------------------------------------------

def _count_embed(tracer, args, kwargs, result):
    dim = result.shape[0]
    tracer.counters["linalg.embed.mib_out"] += dim * dim * 16 / 2**20


def _count_compile(tracer, args, kwargs, result):
    from qwad.ast import essentially_aborts

    members = result.members
    tracer.counters["compiler.members_out"] += len(members)
    tracer.counters["compiler.members_kept"] += sum(
        1 for m in members if not essentially_aborts(m)
    )


def _count_diff(tracer, args, kwargs, result):
    tracer.counters["autodiff.nodes_out"] += dag_size(result.transformed)


def _count_parse(tracer, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.counters["syntax.parse.chars"] += len(text)


def _count_shots(tracer, args, kwargs, result):
    tracer.counters["gradient.trajectories"] += result


HOOKS = {
    "linalg.embed": _count_embed,
    "compiler.compile_additive": _count_compile,
    "autodiff.differentiate": _count_diff,
    "syntax.parse": _count_parse,
    "gradient.shot_count": _count_shots,
}


def dag_size(p) -> int:
    """Distinct program nodes reachable from ``p`` (shared subtrees,
    which the derivative transform produces, count once)."""
    from qwad.ast import Case, Seq, Sum, While

    seen = set()
    todo = [p]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Seq):
            todo += (node.first, node.second)
        elif isinstance(node, Sum):
            todo += (node.left, node.right)
        elif isinstance(node, Case):
            todo += node.branches
        elif isinstance(node, While):
            todo.append(node.body)
    return len(seen)


def install(tracer: Tracer, extra_modules=()) -> int:
    """Wrap every public function of every layer module and rebind each
    name under which a ``qwad`` module (or one of ``extra_modules``)
    looks it up.  Returns the number of functions wrapped."""
    replacements = {}
    for layer in LAYERS:
        mod = sys.modules[f"qwad.{layer}"]
        for name, obj in vars(mod).items():
            if (
                name.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
            ):
                continue
            full = f"{layer}.{name}"
            replacements[id(obj)] = (obj, tracer.wrap(full, obj, HOOKS.get(full)))
    holders = [
        m for n, m in sys.modules.items() if n == "qwad" or n.startswith("qwad.")
    ]
    holders += list(extra_modules)
    for mod in holders:
        for attr, val in list(vars(mod).items()):
            hit = replacements.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    return len(replacements)
