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

- **Backward reuse.**  Within one program, a buffer placed during the
  backward takes the bytes of forward buffers that no later backward
  closure can reach (:class:`_Liveness`), and every buffer that lives
  only inside one step (:func:`step_scratch`) shares one span.  Hence
  the **read-before-backward rule:** after :meth:`Program.replay_backward`
  only the parameter gradients are valid; read forward results (the
  loss, the ELBO terms) before it.

- **Replay.**  :meth:`Program.replay` copies the feeds and runs the flat
  step list — pure numpy, zero :class:`Tensor` construction, zero tape
  nodes, zero buffer growth.  :meth:`Program.replay_backward` reruns the
  recorded backward closures in the original reverse-topological order;
  gradients land in each node's reusable ``_grad_buf``, so the steady state
  allocates nothing.  :meth:`Program.profile` runs the same replays with
  a timer around every step and closure, per op kind.

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

import bisect
import time
from collections import OrderedDict
from types import FunctionType

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
    "step_scratch",
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
    """Grow-only chunked allocator shared by a model's programs.

    Rewound at the start of every trace.  Each retained buffer takes the
    lowest first-fit *hole* — a chunk's free tail, or forward spans that
    :meth:`release` has handed back once no later backward closure can
    touch them (see :class:`_Liveness`) — opening the next chunk
    (allocated on first use) when none has room.  A buffer that skips
    the tail of a chunk therefore leaves it to later, smaller buffers
    instead of wasting it.  All chunks have the same size, so a
    program's layout depends only on its own trace, and the slab ends up
    as large as the largest program's layout whatever order the keys
    are traced in.  Spans placed after :meth:`begin_backward` are never
    released within the trace.
    """

    __slots__ = ("chunks", "_used", "_spans", "_holes", "resident",
                 "placed")

    def __init__(self):
        self.chunks: list[np.ndarray] = []
        self._used: list[int] = []  # per chunk: end of its highest span
        self._spans: list[tuple[int, int, int]] = []  # see begin_backward
        self._holes: list[list[int]] = []  # [chunk, start, end], sorted
        self.resident = 0  # bytes of every buffer placed in this trace
        #: Largest per-trace layout so far: the sum over chunks of the
        #: highest byte any of one program's spans reached.
        self.placed = 0

    @property
    def nbytes(self) -> int:
        return len(self.chunks) * SLAB_CHUNK_BYTES

    def rewind(self) -> None:
        self._used = []
        self._spans = []
        self._holes = []
        self.resident = 0

    def take(self, array: np.ndarray) -> np.ndarray:
        """A slab view holding a copy of ``array`` with its exact shape,
        dtype and strides — or ``array`` itself when it is empty, larger
        than a chunk, or not densely laid out."""
        size = array.nbytes
        if not 0 < size <= SLAB_CHUNK_BYTES or not _dense(array):
            return array
        index, offset = self._place(size)
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=self.chunks[index],
            offset=offset, strides=array.strides,
        )
        np.copyto(view, array)
        return view

    def reserve(self, nbytes: int) -> np.ndarray:
        """An uninitialised span of ``nbytes`` (at most a chunk), as a
        uint8 view."""
        index, offset = self._place(nbytes)
        return self.chunks[index][offset:offset + nbytes]

    def _place(self, size: int) -> tuple[int, int]:
        index, offset = self._first_fit(size)
        self._spans.append((index, offset, offset + _aligned(size)))
        if index == len(self.chunks):
            raw = np.empty(SLAB_CHUNK_BYTES + _ALIGN, dtype=np.uint8)
            start = -raw.ctypes.data % _ALIGN
            self.chunks.append(raw[start:start + SLAB_CHUNK_BYTES])
        self._used[index] = max(self._used[index], offset + size)
        self.resident += size
        self.placed = max(self.placed, self.trace_placed)
        return index, offset

    @property
    def trace_placed(self) -> int:
        """This trace's layout: the highest byte reached, per chunk."""
        return sum(self._used)

    def _first_fit(self, size: int) -> tuple[int, int]:
        holes = self._holes
        for i, hole in enumerate(holes):
            index, offset, end = hole
            if offset + size <= end:
                hole[1] = offset + _aligned(size)
                if hole[1] == end:
                    del holes[i]
                return index, offset
        self._used.append(0)
        index = len(self._used) - 1
        if _aligned(size) < SLAB_CHUNK_BYTES:
            holes.append([index, _aligned(size), SLAB_CHUNK_BYTES])
        return index, 0

    def begin_backward(self) -> list[tuple[int, int, int]]:
        """Return the forward spans ``(chunk, start, end)`` (``end``
        rounded up to the alignment, so neighbours tile)."""
        spans, self._spans = self._spans, []
        return spans

    def release(self, span: tuple[int, int, int]) -> None:
        """Hand a dead forward span back as a hole, merged with its
        neighbours."""
        index, start, end = span
        holes = self._holes
        at = bisect.bisect_left(holes, [index, start])
        if at < len(holes) and holes[at][0] == index and \
                holes[at][1] == end:
            end = holes.pop(at)[2]
        if at and holes[at - 1][0] == index and holes[at - 1][2] == start:
            holes[at - 1][2] = end
        else:
            holes.insert(at, [index, start, end])


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


class _StepScratch:
    """The one span that a program's step-local buffers share.

    A step-local buffer (see :func:`step_scratch`) is written and read
    inside one replay step — a host-side draw, one kernel's refire — and
    is dead outside it, so every such buffer of a program takes the same
    bytes.  The span is sized to the largest request and placed when the
    forward ends; until then (the trace's own eager run) each call gets a
    fresh array.  The backward's buffers reuse the span, so a getter
    called while the program's backward runs raises.
    """

    __slots__ = ("nbytes", "buffer", "in_backward")

    def __init__(self):
        self.nbytes = 0
        self.buffer: np.ndarray | None = None
        self.in_backward = False

    def request(self, shape, dtype):
        dtype = np.dtype(dtype)
        self.nbytes = max(
            self.nbytes, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        )
        views: list[np.ndarray] = []

        def get() -> np.ndarray:
            if self.in_backward:
                raise RuntimeError(
                    "step-local scratch requested inside a backward: the "
                    "backward's own buffers reuse its span"
                )
            if views:
                return views[0]
            if self.buffer is None:
                return np.empty(shape, dtype=dtype)
            views.append(np.ndarray(shape, dtype=dtype, buffer=self.buffer))
            return views[0]

        return get

    def place(self, slab: _Slab | None) -> None:
        if self.buffer is None and self.nbytes:
            self.buffer = (
                slab.reserve(self.nbytes)
                if slab is not None and self.nbytes <= SLAB_CHUNK_BYTES
                else np.empty(self.nbytes, dtype=np.uint8)
            )


# What a backward closure may capture that holds no array memory.
_INERT = (bool, int, float, complex, str, bytes, slice, range, type,
          type(Ellipsis), np.dtype, np.generic, np.ufunc,
          np.random.Generator)


def _reached_arrays(roots) -> list[np.ndarray] | None:
    """Every ndarray a backward closure can reach: through closure
    cells and default arguments, nested closures, lists / tuples / sets
    / dicts, and Tensors' ``data``, ``_grad_buf`` and ``grad`` (never a
    Tensor's parents or closure: those are other steps).  ``None`` when
    the walk meets anything else (a bound method, a ``partial``, an
    object): it might hold any array, so the walk cannot bound it."""
    found = []
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, Tensor):
            stack += (obj.data, obj._grad_buf, obj.grad)
        elif isinstance(obj, FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not yet bound
                    pass
            stack += obj.__defaults__ or ()
            stack += (obj.__kwdefaults__ or {}).values()
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += obj
        elif isinstance(obj, dict):
            stack += obj.values()
        elif not isinstance(obj, _INERT):
            return None
    return found


class _Liveness:
    """Online placement plan of one traced backward.

    Built at ``capture_backward``, when the forward is complete and the
    topological order and every backward closure exist.  Step ``i`` is
    the ``i``-th node of the reversed order.  A forward span *dies* after
    the last step whose closure reaches it; spans no closure reaches are
    dead once the forward ends.  ``advance`` hands each span back to the
    slab as soon as the backward has passed its death, so the backward's
    own buffers take those bytes.

    The plan fails closed: when a closure captures something the walk
    cannot see into (:func:`_reached_arrays`), every forward span lives
    to the end of the backward.

    A gradient is only ever handed from a node's closure to that node's
    parents, so after step ``i`` the tracer looks at the ``.grad`` of
    node ``i``'s parents: a forward span that has become a gradient
    lives until its new owner's step (for ever, for a leaf).  It cannot
    have been released yet, because the closure that handed it over
    reached it at step ``i``.
    """

    __slots__ = ("slab", "steps", "step_of", "spans", "death", "pending",
                 "released", "_chunk_of", "_starts")

    #: Death of a span that lives to the end of the backward.
    FOREVER = 1 << 62

    def __init__(self, slab: _Slab, order):
        self.slab = slab
        self.steps = order[::-1]
        self.step_of = {id(node): i for i, node in enumerate(self.steps)}
        self.spans = slab.begin_backward()
        # Per chunk: span start offsets (sorted) and span indices.
        self._chunk_of = {
            id(chunk.base): (chunk.ctypes.data, index)
            for index, chunk in enumerate(slab.chunks)
        }
        by_chunk: dict[int, list[tuple[int, int]]] = {}
        for i, (index, start, _end) in enumerate(self.spans):
            by_chunk.setdefault(index, []).append((start, i))
        self._starts = {
            index: ([start for start, _ in sorted(entries)],
                    [i for _, i in sorted(entries)])
            for index, entries in by_chunk.items()
        }
        self.death = [-1] * len(self.spans)
        self.released = [False] * len(self.spans)
        if not self._plan():
            self.death = [self.FOREVER] * len(self.spans)
        # Spans by death step; a span extended later is re-filed, and a
        # stale entry is skipped when its step comes.
        self.pending: dict[int, list[int]] = {}
        for i, death in enumerate(self.death):
            self.pending.setdefault(death, []).append(i)
        self._release(-1)

    def _plan(self) -> bool:
        """Set each span's death from the closures; False when the
        closures cannot bound it."""
        for step, node in enumerate(self.steps):
            if node._backward is None:
                continue
            reached = _reached_arrays((node._backward,))
            if reached is None:
                return False
            for array in reached:
                for i in self._overlapping(array):
                    self.death[i] = step
        return True

    def _overlapping(self, array: np.ndarray) -> list[int]:
        """Indices of the forward spans ``array``'s bytes fall in."""
        located = self._chunk_of.get(id(array.base))
        if located is None or not array.size:
            return []
        base, index = located
        entries = self._starts.get(index)
        if entries is None:
            return []
        starts, ids = entries
        low = high = array.ctypes.data - base
        for stride, dim in zip(array.strides, array.shape):
            if stride < 0:
                low += stride * (dim - 1)
            else:
                high += stride * (dim - 1)
        high += array.itemsize
        at = max(bisect.bisect_right(starts, low) - 1, 0)
        hits = []
        while at < len(starts) and starts[at] < high:
            if self.spans[ids[at]][2] > low:
                hits.append(ids[at])
            at += 1
        return hits

    def _release(self, step: int) -> None:
        for i in self.pending.pop(step, ()):
            if self.death[i] == step:
                self.released[i] = True
                self.slab.release(self.spans[i])

    def advance(self, step: int) -> None:
        """The backward is about to run step ``step``."""
        if step:
            for parent in self.steps[step - 1]._parents:
                grad = parent.grad
                if not isinstance(grad, np.ndarray):
                    continue
                owner = (
                    self.step_of[id(parent)]
                    if parent._backward is not None else self.FOREVER
                )
                for i in self._overlapping(grad):
                    # A released span under ``grad`` means ``grad`` is a
                    # backward buffer placed there, which never dies.
                    if not self.released[i] and owner > self.death[i]:
                        self.death[i] = owner
                        self.pending.setdefault(owner, []).append(i)
        self._release(step - 1)

    def dead_views(self) -> list[list[np.ndarray]]:
        """uint8 views of the forward spans by death: entry 0 is dead
        once the forward ends, entry ``i + 1`` after backward step
        ``i``.  Spans that outlive the backward are not listed."""
        frees = [[] for _ in range(len(self.steps) + 1)]
        chunks = self.slab.chunks
        for (index, start, end), death in zip(self.spans, self.death):
            if death < len(self.steps):
                frees[death + 1].append(chunks[index][start:end])
        return frees


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------

class _Tracer:
    """Recorder installed as ``tensor._TRACER`` for one eager execution."""

    __slots__ = ("steps", "feeds", "dynamic", "reason",
                 "root", "order", "seed", "slab", "scratch", "liveness")

    def __init__(self, slab: _Slab | None = None):
        self.slab = slab
        self.scratch = _StepScratch()
        self.liveness: _Liveness | None = None
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
        # The traced backward starts from cleared ``.grad``s, as every
        # replay does, so both hand gradients over alike.
        for node in self.order:
            node.grad = None
        # The forward is over: its step-local scratch takes its span,
        # and the backward's buffers may reuse what it no longer reads.
        self.scratch.place(self.slab)
        self.scratch.in_backward = True
        if self.slab is not None:
            self.liveness = _Liveness(self.slab, self.order)
        return True

    def backward_step(self, step: int) -> None:
        """Called by ``Tensor.backward`` before the ``step``-th node of
        the reversed order runs, while a captured backward executes."""
        if self.liveness is not None:
            self.liveness.advance(step)


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
        self.tracer.scratch.in_backward = False
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


def step_scratch(shape, dtype):
    """A zero-argument getter of a ``dtype`` buffer of ``shape`` that
    lives only inside one step: written and read within one call of a
    host step or refire, dead outside it.

    Under a trace every such buffer of the program shares one span
    (:class:`_StepScratch`); otherwise each call gets a fresh array.
    The getter is what a step captures, never the array it returns.
    """
    t = _tensor_mod._TRACER
    if t is None or t.dynamic:
        return lambda: np.empty(shape, dtype=dtype)
    return t.scratch.request(shape, dtype)


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
                 "replays", "frees", "resident_bytes", "placed_bytes",
                 "scratch")

    def __init__(self, steps, feeds, result, root=None, order=None,
                 seed=None, frees=None, resident_bytes=0, placed_bytes=0,
                 scratch=None):
        self.steps = steps
        self.feeds = feeds
        self.result = result
        self.root = root
        self.order = order
        self.seed = seed
        self.replays = 0
        #: The backward's placement plan, as uint8 views of the forward
        #: spans it reuses: ``frees[0]`` is dead once the forward ends,
        #: ``frees[i + 1]`` after backward step ``i`` (None without a
        #: slab or a backward).
        self.frees = frees
        #: Bytes of the buffers this program keeps in the slab, and the
        #: bytes its layout spans (per chunk, the highest byte reached).
        self.resident_bytes = resident_bytes
        self.placed_bytes = placed_bytes
        self.scratch = scratch if scratch is not None else _StepScratch()

    def replay(self, feed_values=None):
        """Refresh feeds, run the step list, return the retained result.

        The result object is the same one the trace returned; its tensors'
        arrays have been refreshed in place.  No tensors are constructed.
        """
        self._refresh_feeds(feed_values)
        for step in self.steps:
            step()
        self.replays += 1
        return self.result

    def _refresh_feeds(self, feed_values) -> None:
        if feed_values:
            feeds = self.feeds
            for name, value in feed_values.items():
                target = feeds.get(name)
                if target is not None:
                    np.copyto(target, value)

    def _seed_backward(self) -> None:
        """Clear every ``.grad`` and seed the root, as the traced
        backward started."""
        for node in self.order:
            node.grad = None
        self.root._accumulate(self.seed)

    def replay_backward(self) -> None:
        """Rerun the recorded backward plan against the refreshed buffers.

        Mirrors ``Tensor.backward`` exactly: seed the root, then run the
        retained closures in the recorded reverse-topological order.
        Gradients accumulate into each node's reusable ``_grad_buf``.
        """
        self._seed_backward()
        self.scratch.in_backward = True
        try:
            for node in reversed(self.order):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
        finally:
            self.scratch.in_backward = False

    def profile(self, replays: int = 10, feed_values=None) -> dict:
        """Time ``replays`` replays of this program, op kind by op kind.

        Each replay runs exactly as :meth:`replay` and
        :meth:`replay_backward` do, with a timer around every forward
        step and every backward closure.  Returns a dict keyed by the
        closure's ``__qualname__`` up to ``.<locals>`` — the op or
        kernel that built it (``linear_cross_entropy``,
        ``Tensor.__matmul__``, ``dropout_mask``, ...) — of dicts with
        ``forward_ms`` and ``backward_ms`` (means per replay) and
        ``forward_steps`` and ``backward_steps`` (how many of the
        program's steps and closures are of that kind).  The timers add
        their own overhead, so the totals run above a bare replay.

        Like any replay, each one advances the model's RNG streams
        (dropout masks, the reparameterization noise) and overwrites the
        parameters' gradients.
        """
        table: dict[str, dict] = {}

        def row(fn, column):
            name = getattr(fn, "__qualname__", type(fn).__name__)
            entry = table.setdefault(name.split(".<locals>.")[0], {
                "forward_ms": 0.0, "backward_ms": 0.0,
                "forward_steps": 0, "backward_steps": 0,
            })
            entry[column] += 1
            return entry

        forward = [(step, row(step, "forward_steps")) for step in self.steps]
        backward = [
            (node, row(node._backward, "backward_steps"))
            for node in reversed(self.order or ())
            if node._backward is not None
        ]
        clock = time.perf_counter
        for _ in range(replays):
            self._refresh_feeds(feed_values)
            for step, entry in forward:
                start = clock()
                step()
                entry["forward_ms"] += clock() - start
            self.replays += 1
            if not backward:
                continue
            self._seed_backward()
            self.scratch.in_backward = True
            try:
                for node, entry in backward:
                    if node.grad is not None:
                        start = clock()
                        node._backward(node.grad)
                        entry["backward_ms"] += clock() - start
            finally:
                self.scratch.in_backward = False
        for entry in table.values():
            entry["forward_ms"] *= 1e3 / replays
            entry["backward_ms"] *= 1e3 / replays
        return table


def build_program(tracer: _Tracer, result, require_backward: bool = False):
    """Turn a finished trace into a :class:`Program`, or ``None`` if the
    trace bailed (caller should cache :data:`DYNAMIC` for the key)."""
    if tracer.dynamic:
        return None
    if require_backward and tracer.root is None:
        return None
    tracer.scratch.place(tracer.slab)
    slab, liveness = tracer.slab, tracer.liveness
    return Program(
        steps=tracer.steps,
        feeds=tracer.feeds,
        result=result,
        root=tracer.root,
        order=tracer.order,
        seed=tracer.seed,
        frees=None if liveness is None else liveness.dead_views(),
        resident_bytes=0 if slab is None else slab.resident,
        placed_bytes=0 if slab is None else slab.trace_placed,
        scratch=tracer.scratch,
    )


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------

class ProgramCache:
    """Bounded LRU of compiled programs, keyed on (mode, shape, dtype...),
    plus the scratch slab all of them share (see :class:`trace`)."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._programs: OrderedDict = OrderedDict()
        self.slab = _Slab()
        self.hits = 0
        self.misses = 0

    @property
    def slab_bytes(self) -> int:
        """Bytes of scratch slab allocated for this model's programs."""
        return self.slab.nbytes

    @property
    def slab_placed_bytes(self) -> int:
        """The largest layout any trace placed in the slab (at most
        :attr:`slab_bytes`)."""
        return self.slab.placed

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
