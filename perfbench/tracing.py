"""Spans and call counts recorded from outside the emsoftmax package.

Nothing under ``src/`` knows it is being measured. The benchmark rebinds
the module-level names that the trainer, the loss code and the CLI call
through (plus two methods on ``MlpFeatureExtractor`` and ``Rng.normal``),
runs a workload, and puts every original back afterwards.

A span is ``(name, start, end, parent, step)``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``step`` the id of the step
the call ran in (-1 outside any step). Spans stay in memory until the
run ends. Cheap, very frequent calls (``as_matrix``,
``normalize_classifier``) are counted per step instead of spanned, so
that tracing them does not swamp what they measure.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span and counter recorder for one traced phase."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[tuple[str, int], int] = {}
        self.step = -1
        self._stack: list[int] = []
        self._next_step = 0

    def new_step(self) -> int:
        self.step = self._next_step
        self._next_step += 1
        return self.step

    def end_steps(self) -> None:
        self.step = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.step))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, _, parent, step = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, step)

    def span(self, name: str, fn, *, is_step: bool = False, ends_steps: bool = False):
        """``fn`` wrapped so that every call records one span.

        ``is_step`` makes each call its own step; ``ends_steps`` closes the
        current step when the call returns (the training loop, whose steps
        are opened by batch fetches).
        """

        def traced(*args, **kwargs):
            if is_step:
                self.new_step()
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if is_step or ends_steps:
                    self.end_steps()

        return traced

    def counter(self, name: str, fn):
        """``fn`` wrapped so that every call bumps a per-step count."""
        counts = self.counts

        def counted(*args, **kwargs):
            key = (name, self.step)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, step) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "step": step}) + "\n")


@contextmanager
def rebound(targets):
    """Temporarily set ``owner.attr = value`` for each (owner, attr, value)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
