"""Trace-and-replay compiled execution for the tape engine.

The eager tape (:mod:`repro.tensor.tensor`) allocates one closure node per
op per step.  Shapes, however, are already bucketed everywhere that matters
(power-of-two length buckets in the trainer, fixed padded buffers in the
engine), so the graph built on step *N* is structurally identical to the
graph built on step *N+1* — only the numbers in the arrays change.  This
module removes the per-step graph construction:

- **Tracing.**  One instrumented eager execution runs with the module-level
  recorder (``tensor._TRACER``) installed.  Every op reports its output,
  parents, and a *refire* closure — a zero-argument callable that recomputes
  the op's output array **in place** from its parents' current arrays.  The
  trace-time arrays are retained by the closures and refreshed on every
  replay, so the eager backward closures (also retained, with their
  captured array references) replay bitwise without modification.
  Host-side steps (mask refills, RNG draws for the reparameterization
  sample, target scatters) are recorded through :func:`record_host` in exec
  order, and per-step inputs (the padded batch, the KL β) are declared as
  named *feeds* refreshed via ``np.copyto``.

- **Shared scratch slab.**  Every buffer that a replay fully rewrites
  before reading it — refired op outputs, closure-cached backward products,
  fused-kernel temporaries, interior gradient buffers, host-refreshed draw
  and noise buffers — is copied at trace time into a view of the model's
  :class:`ProgramCache` slab (``tensor._retain``), keeping the eager
  array's shape, dtype and strides.  The slab is rewound at the start of
  every trace, so all programs of a model overlap in one grow-only set of
  chunks sized to the largest program, not the sum.  What must survive
  from one replay to the next stays private: trace-time constants (index
  arrays, mask conditions, averaging coefficients, the backward seed),
  parameters and their gradient buffers, caller-owned feeds, and module
  scratch that outlives a trace.  **Lifetime rule:** a replay result, or a
  parameter ``.grad`` that aliases the slab, is valid until the next trace
  or replay of *any* key on the same model.

- **Replay.**  :meth:`Program.replay` copies the feeds and runs the flat
  step list — pure numpy, zero :class:`Tensor` construction, zero tape
  nodes, zero buffer growth.  :meth:`Program.replay_backward` reruns the
  recorded backward closures in the original reverse-topological order;
  gradients land in each node's reusable ``_grad_buf``, so the steady state
  allocates nothing.

- **Fallback.**  Anything the recorder cannot prove replayable — an op
  without a refire, a data-dependent output shape, an explicit backward
  seed — marks the trace *dynamic*.  The trace still **is** a full eager
  execution, so its results are used directly and the cache pins the key to
  :data:`DYNAMIC`: that bucket runs eager forever, bitwise-unchanged.

Correctness is determinism-first, like everything in this repo: replayed
outputs, gradients, and RNG streams are bitwise-identical to eager
execution (``tests/tensor/test_compile.py`` proves it model by model).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from importlib import import_module

# The package __init__ re-exports the ``tensor`` *function*, shadowing the
# submodule attribute — resolve the module itself for the _TRACER hook.
_tensor_mod = import_module(".tensor", __package__)
Tensor = _tensor_mod.Tensor

__all__ = [
    "DYNAMIC",
    "Program",
    "ProgramCache",
    "trace",
    "build_program",
    "tracing",
    "record_host",
    "record_feed",
    "mark_dynamic",
    "programs_for",
    "invalidate",
    "run_compiled",
]


# Sentinel cached for keys whose trace bailed: the bucket is known to be
# untraceable and runs eager permanently (no retrace attempts).
DYNAMIC = object()

#: Bytes per slab chunk.  Large enough that the biggest per-step buffers
#: (the ``(batch·length, |I|)`` softmax products of a catalogue-wide
#: loss) fit whole, small enough that the unused tail of the last chunk
#: stays a modest fraction of the slab.  Larger buffers stay private.
SLAB_CHUNK_BYTES = 16 << 20

# Alignment of every slab view (a cache line; also satisfies every
# numpy dtype and the BLAS kernels' preferred alignment).
_ALIGN = 64


# ----------------------------------------------------------------------
# Scratch slab
# ----------------------------------------------------------------------

def _dense(array: np.ndarray) -> bool:
    """True when ``array`` tiles exactly ``array.nbytes`` bytes with
    positive strides (C, Fortran, or any axis permutation of either)."""
    expected = array.itemsize
    for stride, dim in sorted(
        (s, d) for s, d in zip(array.strides, array.shape) if d > 1
    ):
        if stride != expected:
            return False
        expected *= dim
    return True


class _Slab:
    """Grow-only chunked first-fit allocator shared by a model's programs.

    Rewound at the start of every trace; each retained buffer takes the
    next aligned span of the first chunk with room for it, opening the
    next chunk (allocated on first use) when none has.  A buffer that
    skips the tail of a chunk therefore leaves it to later, smaller
    buffers instead of wasting it.  All chunks have the same size, so a
    program's layout depends only on its own trace, and the slab ends up
    as large as the largest program's layout whatever order the keys are
    traced in.
    """

    __slots__ = ("chunks", "_used")

    def __init__(self):
        self.chunks: list[np.ndarray] = []
        self._used: list[int] = []  # bytes taken per chunk in this trace

    @property
    def nbytes(self) -> int:
        return len(self.chunks) * SLAB_CHUNK_BYTES

    def rewind(self) -> None:
        self._used = []

    def take(self, array: np.ndarray) -> np.ndarray:
        """A slab view holding a copy of ``array`` with its exact shape,
        dtype and strides — or ``array`` itself when it is empty, larger
        than a chunk, or not densely laid out."""
        size = array.nbytes
        if not 0 < size <= SLAB_CHUNK_BYTES or not _dense(array):
            return array
        for index, used in enumerate(self._used):
            offset = -(-used // _ALIGN) * _ALIGN
            if offset + size <= SLAB_CHUNK_BYTES:
                break
        else:
            index, offset = len(self._used), 0
            self._used.append(0)
        if index == len(self.chunks):
            raw = np.empty(SLAB_CHUNK_BYTES + _ALIGN, dtype=np.uint8)
            start = -raw.ctypes.data % _ALIGN
            self.chunks.append(raw[start:start + SLAB_CHUNK_BYTES])
        self._used[index] = offset + size
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=self.chunks[index],
            offset=offset, strides=array.strides,
        )
        np.copyto(view, array)
        return view


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------

class _Tracer:
    """Recorder installed as ``tensor._TRACER`` for one eager execution."""

    __slots__ = ("steps", "feeds", "dynamic", "reason",
                 "root", "order", "seed", "slab")

    def __init__(self, slab: _Slab | None = None):
        self.slab = slab
        self.steps: list = []          # zero-arg callables, exec order
        self.feeds: dict[str, np.ndarray] = {}
        self.dynamic = False
        self.reason = ""
        self.root: Tensor | None = None
        self.order: list[Tensor] | None = None
        self.seed: np.ndarray | None = None

    def _bail(self, reason: str) -> None:
        if not self.dynamic:
            self.dynamic = True
            self.reason = reason

    def retain(self, array: np.ndarray) -> np.ndarray:
        """``tensor._retain`` under this trace: move a replay-rewritten
        buffer into the slab.  A bailed trace keeps its arrays private,
        and numpy scalars stay scalars (their ops bail the trace)."""
        if self.dynamic or self.slab is None or not isinstance(
            array, np.ndarray
        ):
            return array
        return self.slab.take(array)

    def record_op(self, out: Tensor, parents, forward) -> None:
        """Called by ``Tensor._make`` for every op while tracing."""
        if self.dynamic:
            return
        if forward is None:
            if parents:
                self._bail("op without a refire closure")
            return
        for p in parents:
            if out.data is not p.data and np.may_share_memory(
                out.data, p.data
            ):
                # The output is a view of a parent (reshape/transpose/
                # basic slice): refreshing the parent's buffer refreshes
                # the view for free, so no replay step is needed.
                return
        self.steps.append(forward)

    def capture_backward(self, root: Tensor, order, default_seed) -> bool:
        """Called by ``Tensor.backward`` after the topo sort.

        Returning True tells the tape to retain its closures and topology;
        they become the program's backward plan.
        """
        if self.dynamic:
            return False
        if not default_seed:
            self._bail("backward() with an explicit gradient seed")
            return False
        if self.root is not None:
            self._bail("multiple backward() calls in one trace")
            return False
        self.root = root
        self.order = list(order)
        self.seed = np.ones_like(root.data)
        return True


class trace:
    """Context manager installing the recorder for one eager execution.

    ::

        with trace(cache) as tr:
            result = step()            # ordinary eager code
        program = build_program(tr, result, require_backward=True)

    ``result`` is always valid — the trace *is* an eager run — so callers
    use it directly even when ``build_program`` returns ``None``.

    With a :class:`ProgramCache`, the trace rewinds the cache's slab and
    places the program's replay-rewritten buffers in it; without one
    every buffer stays private to the program.
    """

    def __init__(self, cache: "ProgramCache | None" = None):
        self.slab = None if cache is None else cache.slab
        self.tracer: _Tracer | None = None

    def __enter__(self) -> _Tracer:
        if _tensor_mod._TRACER is not None:
            raise RuntimeError("a tensor trace is already active")
        if self.slab is not None:
            self.slab.rewind()
        self.tracer = _Tracer(self.slab)
        _tensor_mod._TRACER = self.tracer
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        _tensor_mod._TRACER = None
        return False


def tracing() -> bool:
    """True while a (non-bailed) trace is recording.

    Instrumentation sites use this to skip building host-step closures on
    ordinary eager steps.
    """
    t = _tensor_mod._TRACER
    return t is not None and not t.dynamic


def record_host(fn) -> None:
    """Record a host-side replay step (mask refill, RNG draw, scatter).

    ``fn`` is a zero-argument callable that refreshes host-produced numpy
    arrays **in place**; it must capture the arrays (and RNG generator
    objects) directly, never attribute lookups that might be rebound.  The
    caller has already performed the equivalent work eagerly for the
    current step — ``fn`` is *not* invoked at record time.
    """
    t = _tensor_mod._TRACER
    if t is not None and not t.dynamic:
        t.steps.append(fn)


def record_feed(name: str, array: np.ndarray) -> None:
    """Declare ``array`` as the target for per-step input ``name``.

    Replay refreshes it with ``np.copyto(array, value)`` before running the
    step list.
    """
    t = _tensor_mod._TRACER
    if t is None or t.dynamic:
        return
    existing = t.feeds.get(name)
    if existing is None:
        t.feeds[name] = array
    elif existing is not array:
        t._bail(f"feed {name!r} bound to two different arrays")


def mark_dynamic(reason: str) -> None:
    """Bail the active trace (if any) to permanent eager for this key."""
    t = _tensor_mod._TRACER
    if t is not None:
        t._bail(reason)


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

class Program:
    """A replayable flat op program over its retained buffers."""

    __slots__ = ("steps", "feeds", "result", "root", "order", "seed",
                 "replays")

    def __init__(self, steps, feeds, result, root=None, order=None,
                 seed=None):
        self.steps = steps
        self.feeds = feeds
        self.result = result
        self.root = root
        self.order = order
        self.seed = seed
        self.replays = 0

    @property
    def has_backward(self) -> bool:
        return self.root is not None

    def replay(self, feed_values=None):
        """Refresh feeds, run the step list, return the retained result.

        The result object is the same one the trace returned; its tensors'
        arrays have been refreshed in place.  No tensors are constructed.
        """
        if feed_values:
            feeds = self.feeds
            for name, value in feed_values.items():
                target = feeds.get(name)
                if target is not None:
                    np.copyto(target, value)
        for step in self.steps:
            step()
        self.replays += 1
        return self.result

    def replay_backward(self) -> None:
        """Rerun the recorded backward plan against the refreshed buffers.

        Mirrors ``Tensor.backward`` exactly: seed the root, then run the
        retained closures in the recorded reverse-topological order.
        Gradients accumulate into each node's reusable ``_grad_buf``.
        """
        order = self.order
        for node in order:
            node.grad = None
        self.root._accumulate(self.seed)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def build_program(tracer: _Tracer, result, require_backward: bool = False):
    """Turn a finished trace into a :class:`Program`, or ``None`` if the
    trace bailed (caller should cache :data:`DYNAMIC` for the key)."""
    if tracer.dynamic:
        return None
    if require_backward and tracer.root is None:
        return None
    return Program(
        steps=tracer.steps,
        feeds=tracer.feeds,
        result=result,
        root=tracer.root,
        order=tracer.order,
        seed=tracer.seed,
    )


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------

class ProgramCache:
    """Bounded LRU of compiled programs, keyed on (mode, shape, dtype...),
    plus the scratch slab all of them share (see :class:`trace`)."""

    def __init__(self, capacity: int = 16):
        self.capacity = capacity
        self._programs: OrderedDict = OrderedDict()
        self.slab = _Slab()
        self.hits = 0
        self.misses = 0

    @property
    def slab_bytes(self) -> int:
        """Bytes of scratch slab allocated for this model's programs."""
        return self.slab.nbytes

    def get(self, key):
        entry = self._programs.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._programs.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, program) -> None:
        self._programs[key] = program
        self._programs.move_to_end(key)
        while len(self._programs) > self.capacity:
            self._programs.popitem(last=False)

    def __len__(self) -> int:
        return len(self._programs)

    def keys(self):
        return list(self._programs.keys())


def programs_for(model) -> ProgramCache:
    """The per-model program cache (created on first use).

    Stored as a plain attribute, so swapping the model object — which is
    how ``set_model`` hot-swaps work — implicitly starts a fresh cache.
    """
    cache = getattr(model, "_compiled_programs", None)
    if cache is None:
        cache = ProgramCache()
        try:
            model._compiled_programs = cache
        except AttributeError:
            # __slots__-constrained object: fall back to an uncached
            # (eager) existence; callers still work, nothing is replayed.
            pass
    return cache


def invalidate(model) -> None:
    """Drop every compiled program for ``model``, and its slab.

    Required after any in-place parameter **rebinding** (e.g. a dtype
    cast that replaces ``param.data`` with a new array) — retained refire
    closures would otherwise keep computing against the dead arrays.
    In-place *copies* (``load_state_dict``) do not need this.
    """
    if getattr(model, "_compiled_programs", None) is not None:
        model._compiled_programs = ProgramCache()


# ----------------------------------------------------------------------
# One-call helper for forward-only consumers (engine / evaluator)
# ----------------------------------------------------------------------

def run_compiled(model, key, build_fn, feed_values=None):
    """Replay the cached program for ``key``; trace it on first miss.

    ``build_fn()`` performs one complete eager execution and returns the
    object to retain (its tensors are refreshed by every replay).  On a cache
    hit the program replays with ``feed_values``; on a bail the key is
    pinned :data:`DYNAMIC` and ``build_fn``'s own (eager) result is used.

    Returns ``(result, replayed)``; ``result`` is valid until the next
    trace or replay of any key on ``model``.
    """
    cache = programs_for(model)
    program = cache.get(key)
    if program is DYNAMIC:
        return build_fn(), False
    if program is not None:
        return program.replay(feed_values), True
    with trace(cache) as tracer:
        result = build_fn()
    program = build_program(tracer, result)
    cache.put(key, program if program is not None else DYNAMIC)
    return result, False
