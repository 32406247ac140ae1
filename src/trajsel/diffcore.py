"""Minimal reverse-mode autodiff over float64 numpy arrays.

Values are 2-D row-major arrays (scalars are (1, 1)); a recording Tape
keeps every operation and replays exact gradients in reverse, while one
made with record=False only computes values, so each intermediate is freed
as soon as nothing uses it. An op writes only into arrays it has just made
and holds alone: `linear` adds its bias and rectifier into the product its
own matmul returned, `layer_norm` works in two buffers each way,
`attention` is one node that loops over the heads, and `cross_attention`
is one node for attention(xn @ wq, k, v) @ wo, reassociated around the
few keys so that no query or head output of the many rows is formed.

Gradients follow one ownership rule: the first gradient to reach a node
becomes its .grad without a copy, so an op hands over only arrays it has
just made: `attention` and `cross_attention` write each head's block of
every gradient they pass into arrays they own, and `cross_attention`
makes the gradient of its normalized input fresh too. The ops that pass
on an array someone else holds say so and that first arrival is copied:
`add` (and `linear` for a one-row bias) gives one array to two parents,
`add_const` passes on its own gradient, and `concat` and `transpose` pass
views of it. Leaves made as inputs (requires_grad=False) take no gradient
at all.

Deliberately small: just the operators the selection model needs, double
precision, single writer, bit-deterministic for a fixed thread count.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

__all__ = [
    "ShapeMismatch",
    "NonFiniteDetected",
    "StoreMismatch",
    "Tape",
    "Var",
    "ParamStore",
    "AdamState",
    "adam_step",
    "ema_update",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"TSCK"
CHECKPOINT_VERSION = 1


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes."""


class NonFiniteDetected(FloatingPointError):
    """A loss or update produced NaN/inf; the step must be aborted."""


class StoreMismatch(KeyError):
    """Two parameter stores disagree on names or shapes."""


def _as2d(value) -> np.ndarray:
    a = np.asarray(value, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected at most 2 dims, got shape {a.shape}")
    return a


class Var:
    """A node on the tape: a value and, after backward, its gradient.

    A value is never written in place once another op can read it, so a
    leaf may share its array with the caller (a bound parameter is the
    store's own array). The one write after creation is `linear`'s, into
    the product of its own matmul, which no op but `linear` holds. Nodes
    reference only their parents (through the backward closure), so
    a finished graph has no reference cycles and dies with its tape by
    refcounting alone. Keep it that way: a Var->Tape backreference would
    strand every intermediate array until a full gc pass.

    Later gradients are added into .grad in place, so a leaf's .grad
    shares memory with no other node's (see `_accum`).
    A leaf made with requires_grad=False is an input: its .grad stays
    None, and `matmul` does not compute one for it.
    """

    __slots__ = ("value", "grad", "requires_grad", "_backward")

    def __init__(self, value: np.ndarray, requires_grad: bool = True):
        self.value = value
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None


def _accum(v: Var, g: np.ndarray, shared: bool = False) -> None:
    """Add the gradient g into v.grad; an input leaf takes none.

    The first gradient to arrive becomes v.grad itself, so an op passes
    an array it has just made and nothing else holds, or says shared=True
    (the module docstring lists the ops that do). Only a shared first
    arrival is copied, so a later `+=` into v.grad cannot change an array
    that another node reads or holds as its gradient.
    """
    if not v.requires_grad:
        return
    if v.grad is None:
        v.grad = np.array(g) if shared else g
    else:
        v.grad += g


class Tape:
    """Operation recorder; ops append nodes, backward() walks them reversed.

    Leaves are not recorded: they have no backward step, and their
    gradients arrive from the ops that use them. With record=False the ops
    compute the same values but keep neither nodes nor backward closures,
    for passes that will never be differentiated; backward() then raises.
    """

    def __init__(self, record: bool = True):
        self._nodes: list[Var] | None = [] if record else None

    @property
    def records(self) -> bool:
        """Whether the ops are kept for backward (the `record` argument)."""
        return self._nodes is not None

    def var(self, value, *, requires_grad: bool = True) -> Var:
        """Create a leaf variable: a parameter, or with requires_grad=False an input.

        The leaf shares `value`'s memory when it is already a float64
        array of at most two dimensions; the caller must not change it
        until the tape is done with it.
        """
        return Var(_as2d(value), requires_grad)

    def _node(self, value: np.ndarray, backward) -> Var:
        v = Var(value)
        if self._nodes is not None:
            v._backward = backward
            self._nodes.append(v)
        return v

    # ---- operators ----

    def matmul(self, a: Var, b: Var) -> Var:
        if a.value.shape[1] != b.value.shape[0]:
            raise ShapeMismatch(f"matmul {a.value.shape} @ {b.value.shape}")
        out = a.value @ b.value

        def backward(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, g @ b.value.T)
            if b.requires_grad:
                _accum(b, a.value.T @ g)

        return self._node(out, backward)

    def add(self, a: Var, b: Var) -> Var:
        if a.value.shape != b.value.shape:
            raise ShapeMismatch(f"add {a.value.shape} + {b.value.shape}")
        out = a.value + b.value

        def backward(g, a=a, b=b):
            _accum(a, g, shared=True)
            _accum(b, g, shared=True)

        return self._node(out, backward)

    def linear(self, x: Var, w: Var, b: Var, relu: bool = False) -> Var:
        """x @ w plus the (1, n) bias row b, rectified when relu is set.

        Values and gradients equal add(matmul(x, w), b), then relu, bit
        for bit: the bias and the rectifier are written into the product,
        which only this op holds, and backward accumulates in the order of
        those three nodes (the relu mask, then the product, then b).
        """
        if b.value.shape != (1, w.value.shape[1]):
            raise ShapeMismatch(f"linear bias {b.value.shape} for {w.value.shape[1]} outputs")
        prod = self.matmul(x, w)
        out = prod.value
        out += b.value
        if relu:
            np.maximum(out, 0.0, out=out)

        def backward(g, prod=prod, b=b, out=out, relu=relu):
            if relu:
                g = g * (out > 0.0)
            # The product has no other consumer, so g is its whole gradient.
            prod.grad = g
            # A one-element sum would turn -0.0 into 0.0: one row passes as
            # is, and is then prod's gradient too.
            if g.shape[0] == 1:
                _accum(b, g, shared=True)
            else:
                _accum(b, g.sum(axis=0, keepdims=True))

        return self._node(out, backward)

    def mul(self, a: Var, b: Var) -> Var:
        if a.value.shape != b.value.shape:
            raise ShapeMismatch(f"mul {a.value.shape} * {b.value.shape}")
        out = a.value * b.value

        def backward(g, a=a, b=b):
            _accum(a, g * b.value)
            _accum(b, g * a.value)

        return self._node(out, backward)

    def scale(self, a: Var, c: float) -> Var:
        out = a.value * c

        def backward(g, a=a, c=c):
            _accum(a, g * c)

        return self._node(out, backward)

    def add_const(self, a: Var, c) -> Var:
        """Add a constant array (no gradient to the constant)."""
        out = a.value + np.asarray(c, dtype=np.float64)

        def backward(g, a=a):
            _accum(a, g, shared=True)

        return self._node(out, backward)

    def relu(self, a: Var) -> Var:
        out = np.maximum(a.value, 0.0)

        def backward(g, a=a, out=out):
            _accum(a, g * (out > 0.0))

        return self._node(out, backward)

    def sigmoid(self, a: Var) -> Var:
        out = 1.0 / (1.0 + np.exp(-a.value))

        def backward(g, a=a, out=out):
            _accum(a, g * out * (1.0 - out))

        return self._node(out, backward)

    def softmax(self, a: Var) -> Var:
        """Row-wise softmax."""
        z = a.value - a.value.max(axis=1, keepdims=True)
        e = np.exp(z)
        out = e / e.sum(axis=1, keepdims=True)

        def backward(g, a=a, out=out):
            dot = (g * out).sum(axis=1, keepdims=True)
            _accum(a, out * (g - dot))

        return self._node(out, backward)

    def layer_norm(self, a: Var, gamma: Var, beta: Var) -> Var:
        """Row-wise normalization with learned scale and shift (eps 1e-5)."""
        n = a.value.shape[1]
        if gamma.value.shape != (1, n) or beta.value.shape != (1, n):
            raise ShapeMismatch("layer_norm parameter shapes")
        # A row mean is written sum / n, which is the bytes of mean().
        mu = a.value.sum(axis=1, keepdims=True) / n
        # Two buffers: xhat holds the centred rows, then the normalized
        # ones; out holds their squares, then the result.
        xhat = a.value - mu
        out = xhat * xhat
        var = out.sum(axis=1, keepdims=True) / n
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat *= inv
        np.multiply(xhat, gamma.value, out=out)
        out += beta.value

        def backward(g, a=a, gamma=gamma, beta=beta, xhat=xhat, inv=inv, n=n):
            # Two buffers again: t holds g * xhat, then gx * xhat, then
            # xhat times that row mean; gx becomes the input's gradient
            # term (gx - mean(gx) - xhat * mean(gx * xhat)) * inv.
            t = g * xhat
            _accum(gamma, t.sum(axis=0, keepdims=True))
            _accum(beta, g.sum(axis=0, keepdims=True))
            gx = g * gamma.value
            m1 = gx.sum(axis=1, keepdims=True) / n
            np.multiply(gx, xhat, out=t)
            m2 = t.sum(axis=1, keepdims=True) / n
            gx -= m1
            np.multiply(xhat, m2, out=t)
            gx -= t
            gx *= inv
            _accum(a, gx)

        return self._node(out, backward)

    def transpose(self, a: Var) -> Var:
        out = a.value.T.copy()

        def backward(g, a=a):
            _accum(a, g.T, shared=True)

        return self._node(out, backward)

    def concat(self, parts: list[Var], axis: int = 1) -> Var:
        if axis not in (0, 1):
            raise ShapeMismatch(f"concat axis {axis}")
        out = np.concatenate([p.value for p in parts], axis=axis)
        sizes = [p.value.shape[axis] for p in parts]

        def backward(g, parts=parts, sizes=sizes, axis=axis):
            at = 0
            for p, sz in zip(parts, sizes):
                sl = (slice(at, at + sz), slice(None)) if axis == 0 else (
                    slice(None),
                    slice(at, at + sz),
                )
                _accum(p, g[sl], shared=True)
                at += sz

        return self._node(out, backward)

    def slice_cols(self, a: Var, j0: int, j1: int) -> Var:
        out = a.value[:, j0:j1].copy()

        def backward(g, a=a, j0=j0, j1=j1):
            full = np.zeros_like(a.value)
            full[:, j0:j1] = g
            _accum(a, full)

        return self._node(out, backward)

    def gather_rows(self, a: Var, idx) -> Var:
        """Rows idx of a: a copy for an index array, a view for a slice."""
        if not isinstance(idx, slice):
            idx = np.asarray(idx, dtype=np.intp)
        out = a.value[idx]

        def backward(g, a=a, idx=idx):
            full = np.zeros_like(a.value)
            np.add.at(full, idx, g)
            _accum(a, full)

        return self._node(out, backward)

    def mean(self, a: Var) -> Var:
        out = np.array([[a.value.mean()]])
        inv = 1.0 / a.value.size

        def backward(g, a=a, inv=inv):
            _accum(a, np.full_like(a.value, g[0, 0] * inv))

        return self._node(out, backward)

    def sum(self, a: Var) -> Var:
        out = np.array([[a.value.sum()]])

        def backward(g, a=a):
            _accum(a, np.full_like(a.value, g[0, 0]))

        return self._node(out, backward)

    def attention(self, q: Var, k: Var, v: Var, n_heads: int) -> Var:
        """Scaled dot-product attention, heads split along the feature axis.

        One node whose values and gradients are the bytes of the chain
        slice_cols, transpose, matmul, scale, softmax, matmul per head,
        then concat: each head runs the same 2-D operations on operands
        of the same layouts. Backward writes each head's block of dq, dk
        and dv where the chain added zero-padded blocks; the two agree
        because a matrix product never yields -0.0. A recording tape keeps
        each head's operands and probabilities for backward; record=False
        keeps nothing.
        """
        d = q.value.shape[1]
        if k.value.shape[1] != d or v.value.shape[1] != d:
            raise ShapeMismatch("attention feature sizes differ")
        if k.value.shape[0] != v.value.shape[0]:
            raise ShapeMismatch("attention key/value counts differ")
        if d % n_heads != 0:
            raise ShapeMismatch(f"{n_heads} heads do not divide width {d}")
        dh = d // n_heads
        c = 1.0 / np.sqrt(dh)
        heads = [] if self._nodes is not None else None
        out = None if n_heads == 1 else np.empty((q.value.shape[0], d))
        for h in range(n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            qh = q.value[:, cols].copy()
            kt = k.value[:, cols].T.copy()
            vh = v.value[:, cols].copy()
            p = qh @ kt
            p *= c
            p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=1, keepdims=True)
            if out is None:
                out = p @ vh
            else:
                out[:, cols] = p @ vh
            if heads is not None:
                heads.append((qh, kt, vh, p))

        def backward(g, q=q, k=k, v=v, heads=heads, dh=dh, c=c):
            dq, dk, dv = (np.empty_like(x.value) for x in (q, k, v))
            for h in reversed(range(len(heads))):
                qh, kt, vh, p = heads[h]
                cols = slice(h * dh, (h + 1) * dh)
                gh = g if len(heads) == 1 else g[:, cols].copy()
                dp = gh @ vh.T
                dv[:, cols] = p.T @ gh
                dot = (dp * p).sum(axis=1, keepdims=True)
                dp -= dot
                dp *= p
                dp *= c
                dq[:, cols] = dp @ kt.T
                dk[:, cols] = (qh.T @ dp).T
            # The chain's order, which matters when two of them are one Var.
            _accum(v, dv)
            _accum(k, dk)
            _accum(q, dq)

        return self._node(out, backward)

    def cross_attention(self, xn: Var, wq: Var, k: Var, v: Var, wo: Var,
                        n_heads: int) -> Var:
        """attention(xn @ wq, k, v, n_heads) @ wo, reassociated around the T keys.

        wq maps width d to width e, split into H heads of dh = e / H
        columns, and c = 1 / sqrt(dh). The logits are xn @ A, A = c *
        [wq_h @ k_h.T]_h (d x H*T), softmaxed per head's T columns into P,
        and the output is P @ B, B = [v_h @ wo_h]_h (H*T x d_out). Over M
        rows that is 2*M*H*T*(d + d_out) flops, where the chain's wq and wo
        products alone take 2*M*e*(d + d_out): less work whenever the heads
        hold fewer key columns than the attention width, H*T < e.
        Values and gradients equal the chain's up to float reassociation,
        not bit for bit. Backward makes every gradient it passes (dxn, dwq,
        dk, dv, dwo) as a fresh array. A recording tape keeps A, B and P
        for backward; record=False keeps nothing.
        """
        d, e = wq.value.shape
        n_keys = k.value.shape[0]
        if xn.value.shape[1] != d:
            raise ShapeMismatch(f"cross_attention input {xn.value.shape} @ wq {wq.value.shape}")
        if k.value.shape[1] != e or v.value.shape[1] != e or wo.value.shape[0] != e:
            raise ShapeMismatch("cross_attention: wq, k, v and wo widths differ")
        if v.value.shape[0] != n_keys:
            raise ShapeMismatch("cross_attention key/value counts differ")
        if e % n_heads != 0:
            raise ShapeMismatch(f"{n_heads} heads do not divide width {e}")
        dh = e // n_heads
        c = 1.0 / np.sqrt(dh)
        A = np.empty((d, n_heads * n_keys))
        B = np.empty((n_heads * n_keys, wo.value.shape[1]))
        for h in range(n_heads):
            cols, keys = slice(h * dh, (h + 1) * dh), slice(h * n_keys, (h + 1) * n_keys)
            A[:, keys] = wq.value[:, cols] @ k.value[:, cols].T
            B[keys] = v.value[:, cols] @ wo.value[cols]
        A *= c
        p = xn.value @ A
        p3 = p.reshape(-1, n_heads, n_keys)
        p3 -= p3.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        p3 /= p3.sum(axis=2, keepdims=True)
        out = p @ B

        def backward(g, xn=xn, wq=wq, k=k, v=v, wo=wo, A=A, B=B, p=p, p3=p3, c=c):
            dp = g @ B.T
            dB = p.T @ g
            dp3 = dp.reshape(p3.shape)
            dp3 -= (dp3 * p3).sum(axis=2, keepdims=True)
            dp *= p
            dxn = dp @ A.T
            dA = xn.value.T @ dp
            dA *= c
            dwq, dk, dv, dwo = (np.empty_like(x.value) for x in (wq, k, v, wo))
            for h in range(n_heads):
                cols, keys = slice(h * dh, (h + 1) * dh), slice(h * n_keys, (h + 1) * n_keys)
                dwq[:, cols] = dA[:, keys] @ k.value[:, cols]
                dk[:, cols] = dA[:, keys].T @ wq.value[:, cols]
                dv[:, cols] = dB[keys] @ wo.value[cols].T
                dwo[cols] = v.value[:, cols].T @ dB[keys]
            # The chain's order (wo's product, attention, then wq's product).
            _accum(wo, dwo)
            _accum(v, dv)
            _accum(k, dk)
            _accum(xn, dxn)
            _accum(wq, dwq)

        return self._node(out, backward)

    def bce(self, pred: Var, target) -> Var:
        """Summed binary cross-entropy against (possibly fractional) targets.

        pred is clamped into [1e-7, 1-1e-7] so exact 0/1 sigmoid saturation
        cannot produce log(0); the clamp also zeroes the gradient there.
        """
        t = np.asarray(target, dtype=np.float64).reshape(pred.value.shape)
        lo, hi = 1e-7, 1.0 - 1e-7
        p = np.clip(pred.value, lo, hi)
        losses = -(t * np.log(p) + (1.0 - t) * np.log1p(-p))
        out = np.array([[losses.sum()]])

        def backward(g, pred=pred, t=t, p=p, lo=lo, hi=hi):
            inner = np.where(
                (pred.value > lo) & (pred.value < hi),
                (p - t) / (p * (1.0 - p)),
                0.0,
            )
            _accum(pred, g[0, 0] * inner)

        return self._node(out, backward)

    def cross_entropy(self, logits: Var, target) -> Var:
        """Row-wise -sum(target * log_softmax(logits)), averaged over rows."""
        t = np.asarray(target, dtype=np.float64).reshape(logits.value.shape)
        sums = t.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= 1e-9):
            raise ValueError("target distribution rows must sum to 1")
        z = logits.value - logits.value.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
        logp = z - lse
        rows = logits.value.shape[0]
        out = np.array([[-(t * logp).sum() / rows]])

        def backward(g, logits=logits, t=t, logp=logp, rows=rows):
            _accum(logits, g[0, 0] * (np.exp(logp) - t) / rows)

        return self._node(out, backward)

    def backward(self, loss: Var) -> None:
        """Accumulate d loss / d node into .grad for every reachable node."""
        if self._nodes is None:
            raise RuntimeError("backward on a Tape(record=False): it recorded no "
                               "operations to differentiate")
        if loss.value.shape != (1, 1):
            raise ShapeMismatch(f"loss must be scalar (1,1), got {loss.value.shape}")
        if not np.isfinite(loss.value[0, 0]):
            raise NonFiniteDetected(f"loss = {loss.value[0, 0]}")
        loss.grad = np.ones((1, 1))
        for node in reversed(self._nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


class ParamStore:
    """Named parameters plus gradient buffers, insertion-ordered.

    A gradient buffer is made, zeroed, when first asked for, so a store
    that is never trained (a loaded model, the EMA teacher) holds none.
    A frozen store's parameters are read-only for good.
    """

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self.frozen = False

    def add(self, name: str, value) -> None:
        self._adopt(name, _as2d(value).copy())

    def _adopt(self, name: str, a: np.ndarray) -> None:
        """Hold `a` itself, a 2-D float64 array no one else writes, as `name`."""
        if name in self._params:
            raise StoreMismatch(f"duplicate parameter {name!r}")
        self._params[name] = a

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def freeze(self) -> None:
        """Mark every parameter read-only: a write into one raises from now on."""
        for a in self._params.values():
            a.setflags(write=False)
        self.frozen = True

    def grad(self, name: str) -> np.ndarray:
        g = self._grads.get(name)
        if g is None:
            g = self._grads[name] = np.zeros(self._params[name].shape)
        return g

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g[:] = 0.0

    def bind(self, tape: Tape) -> dict[str, Var]:
        """Leaf Vars for every parameter, for one forward/backward pass.

        The leaves share the store's arrays, so an update must wait until
        the pass is done.
        """
        return {name: tape.var(value) for name, value in self._params.items()}

    def collect(self, bound: dict[str, Var]) -> None:
        """Accumulate gradients from bound Vars into the store buffers."""
        for name, var in bound.items():
            if var.grad is not None:
                g = self.grad(name)
                g += var.grad

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, value in self._params.items():
            out.add(name, value)
        return out


# Adam's moment decays and denominator floor.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Per-parameter Adam moments plus the shared step counter. The
    learning rate is the one setting; _BETA1, _BETA2 and _EPS are fixed."""

    def __init__(self, store: ParamStore, lr: float):
        self.lr = lr
        self.step = 0
        self.m = {n: np.zeros_like(store[n]) for n in store.names()}
        self.v = {n: np.zeros_like(store[n]) for n in store.names()}


def adam_step(store: ParamStore, state: AdamState) -> None:
    """One bias-corrected Adam update from the store's gradient buffers."""
    state.step += 1
    b1, b2 = _BETA1, _BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for name in store.names():
        g = store.grad(name)
        if not np.all(np.isfinite(g)):
            raise NonFiniteDetected(f"gradient of {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        store[name][:] -= state.lr * (m / c1) / (np.sqrt(v / c2) + _EPS)


def ema_update(teacher: ParamStore, student: ParamStore, m: float) -> None:
    """teacher <- m * teacher + (1 - m) * student, elementwise."""
    if teacher.names() != student.names():
        raise StoreMismatch("parameter names differ")
    for name in teacher.names():
        t = teacher[name]
        s = student[name]
        if t.shape != s.shape:
            raise StoreMismatch(f"shape of {name!r} differs")
        t *= m
        t += (1.0 - m) * s


# ---- checkpoint io ----


def _store_blobs(store: ParamStore):
    """Names, shapes and little-endian float64 arrays (views, not copies)."""
    names = store.names()
    shapes = {n: list(store[n].shape) for n in names}
    blobs = [np.ascontiguousarray(store[n], dtype="<f8") for n in names]
    return names, shapes, blobs


def save_checkpoint(path, store: ParamStore, teacher: ParamStore, *, step: int,
                    config_hash: str, extra: dict) -> str:
    """Write a versioned binary checkpoint; returns its sha256 digest.

    Layout: magic, version, header length, JSON header, then raw
    little-endian float64 blobs in header order. The sections written are
    the parameters and then the EMA teacher. Optimizer state is not
    written, since nothing resumes from it; the header's "adam" stays
    null. Each part goes to the file and the digest as it is produced, so
    the file is never assembled in memory.
    """
    sections, blobs = [], []
    for kind, st in (("params", store), ("teacher", teacher)):
        names, shapes, arrays = _store_blobs(st)
        sections.append({"kind": kind, "names": names, "shapes": shapes})
        blobs += arrays
    header = {
        "sections": sections,
        "adam": None,
        "step": step,
        "config_hash": config_hash,
        "extra": extra,
    }
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in (CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(hb)),
                     hb, *blobs):
            fh.write(part)
            digest.update(part)
    return digest.hexdigest()


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def load_checkpoint(path):
    """Read a checkpoint; returns (store, teacher, meta).

    A file holds a "params" section and then a "teacher" section, and its
    header records "step", "config_hash" and "extra". A dimension that is
    not a positive integer, a file whose size differs from what its header
    declares, other sections, a parameter named twice and a teacher whose
    names or shapes differ from the parameters' are refused before any
    blob is read.
    Each blob is read once, into the array the store then holds.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(12)
        if preamble[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        if size < 12:
            raise CheckpointError(f"{path}: file has {size} bytes, "
                                  "the preamble alone needs 12")
        version, hlen = struct.unpack_from("<II", preamble, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: checkpoint version {version}")
        at = 12 + hlen
        if size < at:
            raise CheckpointError(f"{path}: file has {size} bytes, "
                                  f"its header alone needs {at}")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
            sections = [(sec["kind"], [(n, tuple(sec["shapes"][n])) for n in sec["names"]])
                        for sec in header["sections"]]
            meta = {k: header[k] for k in ("step", "config_hash", "extra")}
            dims = [d for _, arrays in sections for _, (r, c) in arrays for d in (r, c)]
        except (ValueError, KeyError, TypeError) as e:
            raise CheckpointError(f"{path}: unreadable header ({e})") from None
        for d in dims:
            if type(d) is not int or d < 1:
                raise CheckpointError(f"{path}: header dimension {d!r} is not a positive integer")
        declared = at + 8 * sum(r * c for _, arrays in sections for _, (r, c) in arrays)
        if size != declared:
            what = "missing" if size < declared else "extra"
            raise CheckpointError(f"{path}: file has {size} bytes, its header "
                                  f"declares {declared} ({abs(declared - size)} {what})")
        kinds = [kind for kind, _ in sections]
        if kinds != ["params", "teacher"]:
            raise CheckpointError(f"{path}: sections {kinds}, not ['params', 'teacher']")
        (_, params), (_, teacher) = sections
        seen = set()
        for n, _ in params:
            if n in seen:
                raise CheckpointError(f"{path}: params section names {n!r} twice")
            seen.add(n)
        if teacher != params:
            raise CheckpointError(f"{path}: teacher parameters differ from the "
                                  "student's in names or shapes")
        stores = []
        for _, arrays in sections:
            store = ParamStore()
            for n, (r, c) in arrays:
                a = np.empty((r, c), dtype="<f8")
                if fh.readinto(a.reshape(-1).view(np.uint8)) != a.nbytes:
                    raise CheckpointError(f"{path}: file ended inside {n!r}")
                store._adopt(n, a.astype(np.float64, copy=False))
            stores.append(store)
    return stores[0], stores[1], meta
