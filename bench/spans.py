"""Span tracer that wraps csprefine's entry points from outside the package.

The tracer replaces selected functions and methods of the ``csprefine``
modules with timing wrappers while it is installed, and puts the originals
back when it is removed. Nothing under ``src/`` knows about it. Each call
becomes one span: name, layer, start, end, parent span and run id (the
benchmark phase that caused it). Spans stay in memory and are written out
once, after the measured work is over.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). The layer is the span name's first part.
# Attributes that a module no longer has are skipped and listed in
# ``Tracer.missing``, so the benchmark keeps running while the code moves.
# Every public function of ``csprefine.tensor`` is traced as well, as
# ``tensor.<name>``: see ``tensor_ops``.
TARGETS = (
    ("csp", "build_graph_coloring", "csp.build"),
    ("csp", "build_sudoku", "csp.build"),
    ("csp", "build_maxcut", "csp.build"),
    ("csp", "constraint_graph", "csp.constraint_graph"),
    ("penalty", "LossProgram.__init__", "penalty.compile"),
    ("penalty", "LossProgram.loss", "penalty.loss"),
    # the not-equal branch of the penalty as the batched training path runs it
    ("train", "_StackedPairLoss.loss", "penalty.loss"),
    ("model", "init_weights", "model.init_weights"),
    ("model", "InstanceContext.build", "model.context"),
    ("model", "forward", "model.forward"),
    ("model", "select_subset", "model.select_subset"),
    ("model", "gumbel_noise", "model.gumbel_noise"),
    ("train", "train", "train.train"),
    ("train", "prepare", "train.prepare"),
    ("train", "train_epoch", "train.epoch"),
    ("train", "AdamW.step", "train.optimizer"),
    ("solve", "multi_start", "solve.multi_start"),
    ("solve", "ViolationChecker.total", "solve.checker"),
    ("solve", "instance_cut_value", "solve.cut"),
    ("data", "gen_coloring_dataset", "data.generate"),
    ("data", "gen_maxcut_dataset", "data.generate"),
    ("data", "save_instances", "data.save"),
    ("data", "load_instances", "data.load"),
    ("data", "save_sudoku", "data.save"),
    ("data", "load_sudoku", "data.load"),
)

PACKAGE = "csprefine"
MODULES = ("tensor", "csp", "penalty", "model", "train", "solve", "data", "cli")
LAYERS = MODULES[:-1]  # cli only parses arguments around the same calls
# public functions of csprefine.tensor that are not ops
TENSOR_NOT_OPS = frozenset({"active_tape", "no_grad", "grad_check"})


def tensor_ops(mod) -> tuple:
    """Every op function of the tensor module, as targets.

    The ``Tensor`` operators (``a + b``, ``a @ b``, ``a.sum()``) look these
    functions up as module globals, so rebinding the globals traces them
    too. What runs before the op function is called (the operator method
    itself, wrapping a Python number as a Tensor) stays in the caller's span.
    """
    return tuple(
        ("tensor", name, f"tensor.{name}")
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__
        and not name.startswith("_") and name not in TENSOR_NOT_OPS
    )


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "run")

    def __init__(self, name, layer, start, parent, run):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, time.perf_counter(), parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, run: str):
        """Spans opened inside carry ``run`` as their run id."""
        prev, self.run = self.run, run
        span = self.open(f"bench.{run}", "bench")
        try:
            yield
        finally:
            self.close(span)
            self.run = prev

    # -- installation --------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        tape_of = mods["tensor"].active_tape
        for mod_name, attr, span_name in tensor_ops(mods["tensor"]) + TARGETS:
            mod = mods[mod_name]
            owner, _, member = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            if holder is None or not hasattr(holder, member):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            raw = inspect.getattr_static(holder, member)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(fn, span_name, tape_of)
            if owner:
                self._set(holder, member, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                continue
            # rebind every module-level reference, including `from x import f`
            for m in list(sys.modules.values()):
                name = getattr(m, "__name__", "")
                if name == PACKAGE or name.startswith(PACKAGE + "."):
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._set(m, key, wrapped)

    def remove(self) -> None:
        for holder, key, old in reversed(self._undo):
            setattr(holder, key, old)
        self._undo.clear()

    def _set(self, holder, key, new) -> None:
        self._undo.append((holder, key, inspect.getattr_static(holder, key)))
        setattr(holder, key, new)

    def _wrap(self, fn, span_name, tape_of):
        tracer = self
        layer = span_name.split(".", 1)[0]
        if span_name == "model.forward":
            def name_of():
                return "model.forward.train" if tape_of() is not None else "model.forward.solve"
        else:
            def name_of():
                return span_name
        count_tape = span_name == "tensor.backward"

        def wrapper(*args, **kwargs):
            if count_tape:
                tape = tape_of()
                tracer.counts["tape_ops"] += len(tape.ops) if tape is not None else 0
            span = tracer.open(name_of(), layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ------------------------------------------------------------

    def totals(self):
        """Per span name: (total seconds, calls); per layer: self seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        by_name: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0])
        self_s: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            d = s.end - s.start
            rec = by_name[(s.run, s.name)]
            rec[0] += d
            rec[1] += 1
            self_s[s.layer] += d - child[i]
        return by_name, self_s

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, times in seconds from the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "run"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.name, round(s.start - t0, 9), round(s.end - t0, 9),
                                     s.parent, s.run]) + "\n")

