"""Spans around the program's public functions, installed from outside.

The traced run wraps module attributes and class methods of the layers
it measures, records each call's duration and self time (its duration
minus the time of wrapped calls made inside it), and restores every
original on exit.  Nothing under ``src/`` knows it is being traced.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Records spans for the functions :meth:`wrap` replaced.

    Use as a context manager; leaving it restores every wrapped
    attribute, also when the traced code raised.
    """

    def __init__(self):
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_times: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, owner, name: str, span: str, keep=None, observe=None):
        """Replace ``owner.name`` (a module function or a method of class
        ``owner``) with a timed wrapper recording span ``span``.

        ``keep(args, kwargs)`` may reject a call, which then runs
        untimed; ``observe(tracer, result)`` runs after each timed call
        (outside the span) to update counters.
        """
        if isinstance(owner, type):
            # Methods may be inherited: patch the class that defines it.
            owner = next(k for k in owner.__mro__ if name in vars(k))
        original = vars(owner).get(name)
        if not callable(original) or isinstance(
            original, (staticmethod, classmethod)
        ):
            raise TypeError(f"cannot trace {owner!r}.{name}")
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if keep is not None and not keep(args, kwargs):
                return original(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return_value = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer.durations[span].append(elapsed)
                tracer.self_times[span].append(elapsed - frame[0])
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if observe is not None:
                observe(tracer, return_value)
            return return_value

        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))
        return wrapper

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

