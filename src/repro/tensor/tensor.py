"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole repository: every
neural model (VSAN and all baselines) is built from :class:`Tensor`
operations defined here.  The design is a vectorized take on the classic
tape-based autodiff pattern:

- every :class:`Tensor` wraps a ``numpy.ndarray`` and remembers the tensors
  it was computed from (``_parents``) plus a closure (``_backward``) that
  propagates the output gradient to those parents;
- :meth:`Tensor.backward` topologically sorts the graph and runs the
  closures in reverse order, accumulating gradients into ``Tensor.grad``.

Gradients for every op are exercised against finite differences in
``tests/tensor/`` via :func:`repro.tensor.gradcheck.gradcheck`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "tape_node_count",
    "tensor",
    "zeros",
    "ones",
    "full",
    "arange",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
    "set_default_dtype",
    "get_default_dtype",
    "default_dtype",
]

_GRAD_ENABLED = True

# Default floating dtype for all tensors.  float64 keeps finite-difference
# gradient checks tight and remains the default; training and inference can
# switch to float32 via :func:`set_default_dtype` (halving memory traffic on
# every BLAS call), which is what ``TrainerConfig.compute_dtype`` does.
DEFAULT_DTYPE = np.float64

_ALLOWED_DTYPES = (np.float32, np.float64)


def set_default_dtype(dtype) -> np.dtype:
    """Set the floating dtype used for all subsequently created tensors.

    Accepts ``np.float32``/``np.float64`` (or their string names) and
    returns the *previous* default so callers can restore it.  Tensors and
    parameters created before the switch keep their dtype; build the model
    under the dtype you want it to compute in.
    """
    global DEFAULT_DTYPE
    resolved = np.dtype(dtype).type
    if resolved not in _ALLOWED_DTYPES:
        raise ValueError(
            f"default dtype must be float32 or float64, got {dtype!r}"
        )
    previous = DEFAULT_DTYPE
    DEFAULT_DTYPE = resolved
    return previous


def get_default_dtype():
    """Return the dtype new tensors are created with."""
    return DEFAULT_DTYPE


class default_dtype:
    """Context manager scoping :func:`set_default_dtype`::

        with default_dtype(np.float32):
            model = VSAN(...)   # float32 parameters and activations
    """

    def __init__(self, dtype):
        self._dtype = dtype

    def __enter__(self) -> "default_dtype":
        self._previous = set_default_dtype(self._dtype)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        set_default_dtype(self._previous)


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently enabled."""
    return _GRAD_ENABLED


_TAPE_NODES = 0

# Active trace recorder (see repro.tensor.compile).  When set, every op
# constructed through :meth:`Tensor._make` reports its output, parents,
# and a *refire* closure — a zero-argument callable that recomputes the
# output array in place from the parents' current data.  The recorder
# turns one eager execution into a flat replayable program; when it is
# None (the default) the hook is a single attribute check per op.
_TRACER = None


def _retain(array: np.ndarray) -> np.ndarray:
    """Route a buffer that every replay rewrites before reading it into
    the active trace's scratch slab (see :mod:`repro.tensor.compile`).

    Returns a slab view with ``array``'s exact shape, dtype and strides
    holding a copy of it, or ``array`` itself outside a trace.  Callers
    pass only freshly allocated arrays, never views of live data, and
    never anything a replay reads before writing: trace-time constants,
    parameters, or buffers that outlive one trace.
    """
    if _TRACER is None:
        return array
    return _TRACER.retain(array)


def tape_node_count() -> int:
    """Total graph nodes (tensors carrying a backward closure) allocated
    since interpreter start.

    A monotone counter for regression tests: diff it around a code path
    that must not build tape — e.g. evaluation or serving — and assert
    the difference is zero.
    """
    return _TAPE_NODES


class no_grad:
    """Context manager that disables graph construction.

    Used by evaluation code paths so that forward passes over held-out
    users allocate no tape.  Mirrors the familiar ``torch.no_grad`` idiom::

        with no_grad():
            scores = model.predict(batch)
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions.

    Numpy broadcasting can prepend dimensions and stretch size-1 axes; the
    corresponding gradient op is a sum over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    squeeze_axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if squeeze_axes:
        grad = grad.sum(axis=squeeze_axes, keepdims=True)
    return grad.reshape(shape)


def _cached_product(bufs, a, b):
    """``a * b`` into a closure-cached buffer when the shape still fits.

    Backward closures retained by a compiled program (see
    :mod:`repro.tensor.compile`) run every replayed step; routing their
    gradient products through a per-closure buffer removes the per-step
    allocation.  Eager nodes run their backward once and simply take the
    allocating path.  ``np.multiply`` with ``out=`` is the same ufunc as
    ``*``, so results stay bitwise identical.
    """
    buf = bufs[0]
    if buf is not None and buf.shape == a.shape:
        return np.multiply(a, b, out=buf)
    out = a * b
    if isinstance(out, np.ndarray):  # 0-d products are numpy scalars
        bufs[0] = out = _retain(out)
    return out


def _zeroed(bufs, like: np.ndarray) -> np.ndarray:
    """A zero-filled array shaped like ``like``, cached on the closure.

    The scatter-add backwards (``__getitem__``, ``take_rows``) need a
    fresh zero canvas per call.  Replayed programs rerun them every step,
    so the canvas is kept and re-zeroed instead of reallocated; it is
    only ever passed to the copying :meth:`Tensor._accumulate`, so
    reusing it cannot corrupt a gradient.
    """
    buf = bufs[0]
    if buf is None:
        bufs[0] = buf = _retain(np.zeros_like(like))
    else:
        buf.fill(0)
    return buf


def _as_array(value, dtype=None) -> np.ndarray:
    dtype = dtype or DEFAULT_DTYPE
    array = np.asarray(value)
    if np.issubdtype(array.dtype, np.floating) or np.issubdtype(
        array.dtype, np.integer
    ) or array.dtype == np.bool_:
        return array.astype(dtype, copy=False)
    raise TypeError(f"cannot build a Tensor from dtype {array.dtype!r}")


class Tensor:
    """A numpy-backed array node in a reverse-mode autodiff graph."""

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents",
        "_grad_buf",
    )

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        # Reusable gradient buffer: the first _accumulate of a backward
        # pass fills this in place instead of allocating, so parameters
        # and replayed-program nodes reach a zero-allocation steady state.
        self._grad_buf: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward,
        forward=None,
    ) -> "Tensor":
        """Construct a graph node from an op result.

        ``backward`` receives the output gradient and must call
        ``parent._accumulate(...)`` for each parent needing a gradient.
        When gradients are globally disabled, or no parent requires a
        gradient, a detached leaf is returned instead.

        ``forward`` is the op's *refire*: a zero-argument callable that
        recomputes ``data`` in place from the parents' current arrays.
        It is only consulted by an active trace recorder
        (:mod:`repro.tensor.compile`); eager execution never calls it.
        An op that cannot be refired passes ``None``, which makes any
        program being traced through it bail to eager permanently.
        """
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data)
        if requires:
            global _TAPE_NODES
            _TAPE_NODES += 1
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        if _TRACER is not None:
            if forward is not None and out.data is not data:
                # _as_array copied (dtype cast or numpy-scalar result): the
                # refire closure captured an array the node does not own,
                # so replaying it would refresh a dead buffer.  Drop the
                # refire; the tracer bails this program to eager.
                forward = None
            _TRACER.record_op(out, parents, forward)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # First contribution: one copy instead of a zero-fill + add.
            # A copy (not an alias) because op backwards may hand the same
            # buffer to several parents.  Shape-mismatched contributions
            # (broadcast scalars) fall back to the add path.  The copy
            # lands in a per-tensor reusable buffer so repeated backward
            # passes (parameters, replayed programs) allocate nothing.
            buf = self._grad_buf
            if grad.shape == self.shape:
                if (
                    buf is not None
                    and buf.shape == grad.shape
                    and buf.dtype == self.data.dtype
                ):
                    np.copyto(buf, grad)
                    self.grad = buf
                else:
                    self.grad = self._grad_buf = self._new_grad_buf(
                        np.array(grad, dtype=self.data.dtype, copy=True)
                    )
                return
            if (
                buf is not None
                and buf.shape == self.shape
                and buf.dtype == self.data.dtype
            ):
                buf[...] = 0.0
                self.grad = buf
            else:
                self.grad = self._grad_buf = self._new_grad_buf(
                    np.zeros_like(self.data)
                )
        self.grad += grad

    def _new_grad_buf(self, buf: np.ndarray) -> np.ndarray:
        # Interior nodes rewrite their buffer on every backward pass, so
        # it may live in the slab; leaves (parameters) keep their
        # gradients across steps and stay private.
        return _retain(buf) if self._parents else buf

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """:meth:`_accumulate` for a contribution whose buffer this tensor
        may take over by reference instead of copying.  Two call sites
        qualify:

        * a buffer the caller exclusively owns (a fresh temporary or a
          closure-cached product buffer that is fully rewritten before
          any reuse), or
        * the raw child gradient handed to *exactly one* parent per
          closure (``add``'s left operand, single-parent view ops,
          disjoint ``concatenate`` slices).  Backward runs in reverse
          topological order, so by the time later contributions mutate
          the alias in place the child that produced it is already
          processed — at most one *live* reference exists at any time,
          and the next replay's first contribution overwrites the buffer
          wholesale via ``np.copyto``.

        Aliasing the same array from two parents of one closure, or a
        user-supplied ``backward`` seed, would break these invariants —
        those sites must keep the copying :meth:`_accumulate`.
        """
        if (
            self.grad is None
            and self.requires_grad
            and grad.shape == self.shape
            and grad.dtype == self.data.dtype
        ):
            self.grad = grad
            return
        self._accumulate(grad)

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1.0 and must be supplied (with matching shape)
        when this tensor is not a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        default_seed = grad is None
        if grad is None:
            if self.size != 1:
                raise RuntimeError(
                    "grad must be provided for non-scalar backward()"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise ValueError(
                    f"grad shape {grad.shape} does not match tensor "
                    f"shape {self.shape}"
                )

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        # Under an active trace the closures and topology are retained —
        # they become the program's backward plan, replayed in this exact
        # order against the refreshed buffers (see repro.tensor.compile).
        # The tracer is told which node runs next, so the buffers the
        # backward allocates can reuse forward buffers no later closure
        # reads.
        capture = _TRACER is not None and _TRACER.capture_backward(
            self, order, default_seed
        )
        self._accumulate(grad)
        for step, node in enumerate(reversed(order)):
            if capture:
                _TRACER.backward_step(step)
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if not capture:
                    # Free the tape as we go; leaves keep their grads.
                    node._backward = None
                    node._parents = ()
                # Interior nodes do not need to keep their gradient.

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        sa, oa = self.data, other.data
        # np.asarray: 0-d results come back as numpy scalars; the refire
        # closure must capture the very ndarray the node will own.
        data = _retain(np.asarray(sa + oa))

        def backward(grad):
            # Only one operand may take ``grad`` by reference (see
            # _accumulate_owned); the other must copy.
            self._accumulate_owned(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        def forward():
            np.add(sa, oa, out=data)

        return Tensor._make(data, (self, other), backward, forward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        sa = self.data
        data = _retain(np.asarray(-sa))

        def backward(grad):
            self._accumulate_owned(-grad)

        def forward():
            np.negative(sa, out=data)

        return Tensor._make(data, (self,), backward, forward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        sa, oa = self.data, other.data
        data = _retain(np.asarray(sa * oa))

        # As with matmul, cache the grad-product buffers so replayed
        # backward passes rewrite them in place instead of allocating.
        prod_bufs = [None, None]

        def grad_product(slot, grad, operand):
            buf = prod_bufs[slot]
            if buf is not None and buf.shape == grad.shape:
                return np.multiply(grad, operand, out=buf)
            out = grad * operand
            if isinstance(out, np.ndarray):  # 0-d products come back as
                prod_bufs[slot] = out = _retain(out)  # numpy scalars
            return out

        def backward(grad):
            if self.requires_grad:
                self._accumulate_owned(
                    _unbroadcast(grad_product(0, grad, other.data),
                                 self.shape)
                )
            if other.requires_grad:
                other._accumulate_owned(
                    _unbroadcast(grad_product(1, grad, self.data),
                                 other.shape)
                )

        def forward():
            np.multiply(sa, oa, out=data)

        return Tensor._make(data, (self, other), backward, forward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        sa, oa = self.data, other.data
        data = _retain(np.asarray(sa / oa))

        def backward(grad):
            self._accumulate_owned(_unbroadcast(grad / other.data, self.shape))
            other._accumulate_owned(
                _unbroadcast(-grad * self.data / (other.data**2), other.shape)
            )

        def forward():
            np.divide(sa, oa, out=data)

        return Tensor._make(data, (self, other), backward, forward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        sa = self.data
        data = _retain(np.asarray(sa**exponent))

        def backward(grad):
            self._accumulate_owned(grad * exponent * self.data ** (exponent - 1))

        def forward():
            np.power(sa, exponent, out=data)

        return Tensor._make(data, (self,), backward, forward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = _retain(self.data @ other.data)
        # Numpy promotes 1-D operands: a vector on the left acts as a row,
        # on the right as a column.  The backward pass mirrors that
        # promotion so one general rule covers every arity.
        left_vector = self.data.ndim == 1
        right_vector = other.data.ndim == 1

        # The two grad GEMM products are the largest backward temporaries.
        # An eager node runs its backward once, but a node retained in a
        # compiled program replays backward every step — caching the
        # product buffers on the closure turns those steady-state replays
        # allocation-free (np.matmul into the retained buffer is the same
        # kernel as `@`, so results stay bitwise identical).
        prod_bufs = [None, None]

        def grad_product(slot, a, b):
            buf = prod_bufs[slot]
            if buf is not None and buf.shape == a.shape[:-1] + b.shape[-1:]:
                return np.matmul(a, b, out=buf)
            prod_bufs[slot] = out = _retain(a @ b)
            return out

        if other.data.ndim == 2 and self.data.ndim >= 2:
            # A 2-D weight applied to a (..., k) batch (every Linear, the
            # output head): fold the leading axes so each gradient is one
            # GEMM.  The weight gradient lands in a (k, n) buffer directly
            # rather than in a (batch, k, n) stack of per-batch products
            # summed afterwards.  The forward stays batched: folding it
            # measured slower at d x d shapes.
            k, n = other.data.shape

            def backward(grad):
                flat_grad = grad.reshape(-1, n)
                if self.requires_grad:
                    grad_left = grad_product(0, flat_grad, other.data.T)
                    self._accumulate_owned(grad_left.reshape(self.shape))
                if other.requires_grad:
                    other._accumulate_owned(grad_product(
                        1, self.data.reshape(-1, k).T, flat_grad
                    ))
        else:
            def backward(grad):
                left = self.data[None, :] if left_vector else self.data
                right = other.data[:, None] if right_vector else other.data
                full_grad = grad
                if left_vector:
                    full_grad = np.expand_dims(full_grad, -2)
                if right_vector:
                    full_grad = np.expand_dims(full_grad, -1)
                if self.requires_grad:
                    grad_left = _unbroadcast(
                        grad_product(
                            0, full_grad, np.swapaxes(right, -1, -2)
                        ),
                        left.shape,
                    )
                    self._accumulate_owned(grad_left.reshape(self.shape))
                if other.requires_grad:
                    grad_right = _unbroadcast(
                        grad_product(
                            1, np.swapaxes(left, -1, -2), full_grad
                        ),
                        right.shape,
                    )
                    other._accumulate_owned(grad_right.reshape(other.shape))

        sa, oa = self.data, other.data
        if left_vector or right_vector:
            # 1-D promotion: recompute out of place, then copy in.
            def forward():
                data[...] = sa @ oa
        else:
            def forward():
                np.matmul(sa, oa, out=data)

        return Tensor._make(data, (self, other), backward, forward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        sa = self.data
        data = _retain(np.exp(sa))

        bufs = [None]

        def backward(grad):
            self._accumulate_owned(_cached_product(bufs, grad, data))

        def forward():
            np.exp(sa, out=data)

        return Tensor._make(data, (self,), backward, forward)

    def log(self) -> "Tensor":
        sa = self.data
        data = _retain(np.log(sa))

        def backward(grad):
            self._accumulate_owned(grad / self.data)

        def forward():
            np.log(sa, out=data)

        return Tensor._make(data, (self,), backward, forward)

    def sqrt(self) -> "Tensor":
        sa = self.data
        data = _retain(np.sqrt(sa))

        def backward(grad):
            self._accumulate_owned(grad * 0.5 / data)

        def forward():
            np.sqrt(sa, out=data)

        return Tensor._make(data, (self,), backward, forward)

    def tanh(self) -> "Tensor":
        sa = self.data
        data = _retain(np.tanh(sa))

        bufs = [None]

        def backward(grad):
            self._accumulate_owned(_cached_product(bufs, grad, 1.0 - data**2))

        def forward():
            np.tanh(sa, out=data)

        return Tensor._make(data, (self,), backward, forward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic via tanh.
        sa = self.data
        data = _retain(0.5 * (np.tanh(0.5 * sa) + 1.0))

        bufs = [None]

        def backward(grad):
            prod = _cached_product(bufs, grad, data)
            self._accumulate_owned(np.multiply(prod, 1.0 - data, out=prod))

        def forward():
            # Same op sequence as the eager expression, in place.
            np.multiply(sa, 0.5, out=data)
            np.tanh(data, out=data)
            np.add(data, 1.0, out=data)
            np.multiply(data, 0.5, out=data)

        return Tensor._make(data, (self,), backward, forward)

    def relu(self) -> "Tensor":
        sa = self.data
        mask = _retain(sa > 0)
        data = _retain(np.where(mask, sa, 0.0))

        bufs = [None]

        def backward(grad):
            self._accumulate_owned(_cached_product(bufs, grad, mask))

        def forward():
            np.greater(sa, 0, out=mask)
            # np.where semantics in place (a multiply would produce -0.0
            # for negative inputs, breaking bitwise parity).
            data[...] = 0.0
            np.copyto(data, sa, where=mask)

        return Tensor._make(data, (self,), backward, forward)

    def softplus(self, floor: float = 0.0) -> "Tensor":
        """``log(1 + exp(x)) + floor``.

        The stable form ``max(x, 0) + log1p(exp(-|x|))``, an order of
        magnitude faster than ``np.logaddexp`` in float32; ``exp(-|x|)``
        may underflow to 0, which is the exact limit.  A nonzero
        ``floor`` is added last, in the same node, so the result equals
        ``softplus() + floor`` bitwise.
        """
        sa = self.data
        data = _retain(np.empty(sa.shape, dtype=sa.dtype))
        tail = _retain(np.empty(sa.shape, dtype=sa.dtype))

        def forward():
            np.abs(sa, out=tail)
            np.negative(tail, out=tail)
            with np.errstate(under="ignore"):
                np.exp(tail, out=tail)
            np.log1p(tail, out=tail)
            np.maximum(sa, 0, out=data)
            np.add(data, tail, out=data)
            if floor:
                np.add(data, floor, out=data)

        forward()
        grad_buf = None

        def backward(grad):
            # d softplus / dx = sigmoid(x), via tanh as in sigmoid().
            nonlocal grad_buf
            if grad_buf is None:
                grad_buf = _retain(np.empty(sa.shape, dtype=sa.dtype))
            np.multiply(sa, 0.5, out=grad_buf)
            np.tanh(grad_buf, out=grad_buf)
            np.add(grad_buf, 1.0, out=grad_buf)
            np.multiply(grad_buf, 0.5, out=grad_buf)
            self._accumulate_owned(np.multiply(grad, grad_buf, out=grad_buf))

        return Tensor._make(data, (self,), backward, forward)

    def abs(self) -> "Tensor":
        sa = self.data
        data = _retain(np.abs(sa))

        def backward(grad):
            self._accumulate_owned(grad * np.sign(self.data))

        def forward():
            np.abs(sa, out=data)

        return Tensor._make(data, (self,), backward, forward)

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        """Clamp values; gradient flows only through unclamped entries."""
        sa = self.data
        data = _retain(np.clip(sa, low, high))
        mask = np.ones_like(sa, dtype=bool)
        if low is not None:
            mask &= sa >= low
        if high is not None:
            mask &= sa <= high
        mask = _retain(mask)

        bufs = [None]

        def backward(grad):
            self._accumulate_owned(_cached_product(bufs, grad, mask))

        def forward():
            np.clip(sa, low, high, out=data)
            mask[...] = True
            if low is not None:
                np.logical_and(mask, sa >= low, out=mask)
            if high is not None:
                np.logical_and(mask, sa <= high, out=mask)

        return Tensor._make(data, (self,), backward, forward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        sa = self.data
        data = _retain(np.asarray(sa.sum(axis=axis, keepdims=keepdims)))
        bufs = [None]

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            buf = bufs[0]
            if buf is not None and buf.shape == self.shape:
                np.copyto(buf, g)
                self._accumulate_owned(buf)
            else:
                bufs[0] = out = _retain(np.broadcast_to(g, self.shape).copy())
                self._accumulate_owned(out)

        def forward():
            if data.ndim:
                np.sum(sa, axis=axis, keepdims=keepdims, out=data)
            else:
                data[...] = sa.sum(axis=axis, keepdims=keepdims)

        return Tensor._make(data, (self,), backward, forward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= self.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        sa = self.data
        data = _retain(np.asarray(sa.max(axis=axis, keepdims=keepdims)))

        def forward():
            data[...] = sa.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            expanded = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                expanded = np.expand_dims(data, axis)
            mask = self.data == expanded
            # Split gradient equally among ties, matching subgradient choice
            # that keeps gradcheck stable away from exact ties.
            counts = mask.sum(axis=axis if axis is not None else None,
                              keepdims=True)
            self._accumulate_owned(np.where(mask, g / counts, 0.0))

        return Tensor._make(data, (self,), backward, forward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased variance (divide by N), as used by layer normalization."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        sa = self.data
        data = sa.reshape(shape)
        if not np.may_share_memory(data, sa):  # the reshape copied
            data = _retain(data)

        def forward():
            data[...] = sa.reshape(shape)

        def backward(grad):
            self._accumulate_owned(grad.reshape(self.shape))

        return Tensor._make(data, (self,), backward, forward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        sa = self.data
        data = sa.transpose(axes)
        inverse = np.argsort(axes)

        def forward():
            data[...] = sa.transpose(axes)

        def backward(grad):
            self._accumulate_owned(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward, forward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        sa = self.data
        data = np.swapaxes(sa, axis1, axis2)

        def forward():
            data[...] = np.swapaxes(sa, axis1, axis2)

        def backward(grad):
            self._accumulate_owned(np.swapaxes(grad, axis1, axis2))

        return Tensor._make(data, (self,), backward, forward)

    def expand_dims(self, axis: int) -> "Tensor":
        sa = self.data
        data = np.expand_dims(sa, axis)

        def forward():
            data[...] = np.expand_dims(sa, axis)

        def backward(grad):
            self._accumulate_owned(np.squeeze(grad, axis=axis))

        return Tensor._make(data, (self,), backward, forward)

    def squeeze(self, axis: int) -> "Tensor":
        sa = self.data
        data = np.squeeze(sa, axis=axis)

        def forward():
            data[...] = np.squeeze(sa, axis=axis)

        def backward(grad):
            self._accumulate_owned(np.expand_dims(grad, axis))

        return Tensor._make(data, (self,), backward, forward)

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        sa = self.data
        data = _retain(np.broadcast_to(sa, shape).copy())

        def forward():
            np.copyto(data, sa)

        def backward(grad):
            self._accumulate(_unbroadcast(grad, self.shape))

        return Tensor._make(data, (self,), backward, forward)

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data.astype(np.int64)
        sa = self.data
        data = np.asarray(sa[index])
        if not np.may_share_memory(data, sa):  # advanced indexing copied
            data = _retain(data)

        def forward():
            data[...] = sa[index]

        zero_bufs = [None]

        def backward(grad):
            full = _zeroed(zero_bufs, self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward, forward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (embedding lookup): result[..., :] = self[indices].

        ``indices`` is an integer array of any shape; the result has shape
        ``indices.shape + self.shape[1:]``.  The gradient scatter-adds.
        """
        indices = np.asarray(indices, dtype=np.int64)
        sa = self.data
        data = _retain(sa[indices])

        def forward():
            data[...] = sa[indices]

        # The canvas, the flat indices and the float64 weights, made by
        # the first backward and kept for replays (see ``_zeroed``).  A
        # forward allocates nothing for them: small arrays that every
        # scoring forward keeps alive fragment a server's heap.
        bufs = [None, None, None]

        def backward(grad):
            # One float64 bincount over ``slot · width + column``, slot
            # the rank of a row among the distinct rows gathered: it sums
            # each cell's contributions in index order, as ``np.add.at``
            # would, in one vectorized pass.  The flat indices are formed
            # here, so a replay sees the refreshed ``indices``.
            width = self.size // max(len(self.data), 1)
            rows, slots = np.unique(indices.reshape(-1), return_inverse=True)
            if bufs[1] is None:
                bufs[1] = _retain(np.empty((slots.size, width), np.int64))
                bufs[2] = _retain(np.empty(grad.size, np.float64))
            full, flat, weights = _zeroed(bufs, self.data), bufs[1], bufs[2]
            np.add(np.multiply(slots, width)[:, None], np.arange(width),
                   out=flat)
            np.copyto(weights, grad.reshape(-1))
            sums = np.bincount(flat.reshape(-1), weights=weights,
                               minlength=rows.size * width)
            full.reshape(-1, width)[rows] = sums.reshape(-1, width)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward, forward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace entries where ``mask`` is True with ``value`` (no grad
        flows through filled positions)."""
        mask = np.asarray(mask, dtype=bool)
        sa = self.data
        data = _retain(np.where(mask, value, sa))

        def forward():
            np.copyto(data, sa)
            np.copyto(data, value, where=mask)

        def backward(grad):
            self._accumulate_owned(np.where(mask, 0.0, grad))

        return Tensor._make(data, (self,), backward, forward)

    # Convenience aliases -------------------------------------------------
    def dot(self, other) -> "Tensor":
        return self @ other

    @property
    def T(self) -> "Tensor":
        return self.transpose()


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------

def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Build a :class:`Tensor` (the canonical public constructor)."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE),
                  requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE),
                  requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, value, dtype=DEFAULT_DTYPE),
                  requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    return Tensor(np.arange(*args, dtype=DEFAULT_DTYPE),
                  requires_grad=requires_grad)


def concatenate(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    tensors = [Tensor._coerce(t) for t in tensors]
    arrays = [t.data for t in tensors]
    data = _retain(np.concatenate(arrays, axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def forward():
        np.concatenate(arrays, axis=axis, out=data)

    def backward(grad):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            t._accumulate_owned(grad[tuple(slicer)])

    return Tensor._make(data, tuple(tensors), backward, forward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient unstacking."""
    tensors = [Tensor._coerce(t) for t in tensors]
    arrays = [t.data for t in tensors]
    data = _retain(np.stack(arrays, axis=axis))

    def forward():
        data[...] = np.stack(arrays, axis=axis)

    def backward(grad):
        for i, t in enumerate(tensors):
            t._accumulate_owned(np.take(grad, i, axis=axis))

    return Tensor._make(data, tuple(tensors), backward, forward)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Elementwise select; gradient routes to the chosen branch."""
    condition = np.asarray(
        condition.data if isinstance(condition, Tensor) else condition,
        dtype=bool,
    )
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    data = _retain(np.where(condition, a.data, b.data))

    def forward():
        np.copyto(data, b.data)
        np.copyto(data, np.broadcast_to(a.data, data.shape),
                  where=condition)

    def backward(grad):
        a._accumulate_owned(_unbroadcast(np.where(condition, grad, 0.0), a.shape))
        b._accumulate_owned(_unbroadcast(np.where(condition, 0.0, grad), b.shape))

    return Tensor._make(data, (a, b), backward, forward)


def _extremum(a, b, compare) -> Tensor:
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    take_a = _retain(compare(a.data, b.data))
    data = _retain(np.where(take_a, a.data, b.data))

    def forward():
        compare(a.data, b.data, out=take_a)
        np.copyto(data, b.data)
        np.copyto(data, np.broadcast_to(a.data, data.shape), where=take_a)

    def backward(grad):
        a._accumulate_owned(_unbroadcast(np.where(take_a, grad, 0.0), a.shape))
        b._accumulate_owned(_unbroadcast(np.where(take_a, 0.0, grad), b.shape))

    return Tensor._make(data, (a, b), backward, forward)


def maximum(a, b) -> Tensor:
    """Elementwise maximum; ties send gradient to the first argument."""
    return _extremum(a, b, np.greater_equal)


def minimum(a, b) -> Tensor:
    """Elementwise minimum; ties send gradient to the first argument."""
    return _extremum(a, b, np.less_equal)
