"""Reverse-mode automatic differentiation over dense numpy arrays.

A recorded operation graph of Tensor nodes; calling backward() on a scalar
loss topologically walks the graph and accumulates gradients into every
requires_grad leaf. Only the operations the transformer needs are provided.
Gradients of broadcast operands are summed back to the operand shape.

The training loss is one fused op, cross_entropy (softmax, target gather,
weighting and sum in one pass), which makes none of the logit-shaped
intermediates of the unfused chain. backward() frees each non-leaf node's gradient as soon as
that node's backward has run: after it returns, only leaves hold a .grad.
"""

from __future__ import annotations

import math

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None


def _needs_graph(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not (t.requires_grad or t._parents):
        return
    if t.grad is None:
        # A copy, never an alias: add() hands one g to both of its parents.
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward) if _needs_graph(a, b) else Tensor(out_data)


def scale(a: Tensor, s: float) -> Tensor:
    out_data = a.data * s

    def backward(g):
        _accum(a, g * s)

    return Tensor(out_data, parents=(a,), backward=backward) if _needs_graph(a) else Tensor(out_data)


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant array (e.g. an attention mask); no gradient to c."""
    out_data = a.data + c

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))

    return Tensor(out_data, parents=(a,), backward=backward) if _needs_graph(a) else Tensor(out_data)


def mul_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Multiply by a constant array (e.g. a dropout or loss mask)."""
    out_data = a.data * c

    def backward(g):
        _accum(a, _unbroadcast(g * c, a.data.shape))

    return Tensor(out_data, parents=(a,), backward=backward) if _needs_graph(a) else Tensor(out_data)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    # A weight shared over the batch is applied to all rows in one GEMM,
    # forward and backward, instead of one per batch entry.
    shared_weight = b.data.ndim == 2 and a.data.ndim > 2
    if shared_weight:
        rows_a = a.data.reshape(-1, a.data.shape[-1])
        out_data = (rows_a @ b.data).reshape(*a.data.shape[:-1], b.data.shape[-1])
    else:
        out_data = np.matmul(a.data, b.data)

    def backward(g):
        if shared_weight:
            rows_g = g.reshape(-1, g.shape[-1])
            ga = (rows_g @ b.data.T).reshape(a.data.shape)
            gb = rows_a.T @ rows_g
        else:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
        _accum(a, ga)
        _accum(b, gb)

    return Tensor(out_data, parents=(a, b), backward=backward) if _needs_graph(a, b) else Tensor(out_data)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(out_data, parents=(a,), backward=backward) if _needs_graph(a) else Tensor(out_data)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out_data = a.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(g):
        _accum(a, g.transpose(inverse))

    return Tensor(out_data, parents=(a,), backward=backward) if _needs_graph(a) else Tensor(out_data)


def embedding(weight: Tensor, idx: np.ndarray) -> Tensor:
    out_data = weight.data[idx]

    def backward(g):
        if weight.requires_grad or weight._parents:
            if weight.grad is None:
                weight.grad = np.zeros_like(weight.data)
            np.add.at(weight.grad, idx, g)

    return Tensor(out_data, parents=(weight,), backward=backward) if _needs_graph(weight) else Tensor(out_data)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    c = math.sqrt(2.0 / math.pi)
    x = a.data
    x2 = x * x  # float32 x**3 goes through powf, many times slower
    inner = c * (x + 0.044715 * (x2 * x))
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def backward(g):
        dinner = c * (1.0 + 3 * 0.044715 * x2)
        da = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
        _accum(a, g * da)

    return Tensor(out_data, parents=(a,), backward=backward) if _needs_graph(a) else Tensor(out_data)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(a, y * (g - dot))

    return Tensor(y, parents=(a,), backward=backward) if _needs_graph(a) else Tensor(y)


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse
    sm = np.exp(out_data)

    def backward(g):
        _accum(a, g - sm * g.sum(axis=-1, keepdims=True))

    return Tensor(out_data, parents=(a,), backward=backward) if _needs_graph(a) else Tensor(out_data)


def cross_entropy(a: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted negative log-likelihood of targets under softmax over the
    last axis: -sum(weights * log_softmax(a)[..., targets]), a scalar.

    One op in place of log_softmax -> gather_last -> mul_const -> tsum, so
    none of their arrays of a's shape, or gradients of them, are made; the
    backward, (softmax - onehot) * weights * g, is computed in the op's own
    exp buffer.
    """
    z = a.data
    top = z.max(axis=-1, keepdims=True)
    e = np.subtract(z, top)
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(z, targets[..., None], axis=-1)
    logp = (picked - top - np.log(total))[..., 0]
    out_data = np.asarray(-(weights * logp).sum())

    def backward(g):
        wg = (weights * g).astype(e.dtype)
        np.multiply(e, wg[..., None] / total, out=e)
        rows = e.reshape(-1, e.shape[-1])
        rows[np.arange(rows.shape[0]), targets.reshape(-1)] -= wg.reshape(-1)
        _accum(a, e)

    return Tensor(out_data, parents=(a,), backward=backward) if _needs_graph(a) else Tensor(out_data)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learned scale and offset."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out_data = gamma.data * xhat + beta.data

    def backward(g):
        if gamma.requires_grad or gamma._parents:
            _accum(gamma, _unbroadcast(g * xhat, gamma.data.shape))
        if beta.requires_grad or beta._parents:
            _accum(beta, _unbroadcast(g, beta.data.shape))
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv_std * (dxhat - m1 - xhat * m2))

    return (
        Tensor(out_data, parents=(x, gamma, beta), backward=backward)
        if _needs_graph(x, gamma, beta)
        else Tensor(out_data)
    )


def gather_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """out[..., i] = a[..., i, idx[..., i]] for logit/target selection."""
    out_data = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        if a.requires_grad or a._parents:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.put_along_axis(
                a.grad,
                idx[..., None],
                np.take_along_axis(a.grad, idx[..., None], axis=-1) + g[..., None],
                axis=-1,
            )

    return Tensor(out_data, parents=(a,), backward=backward) if _needs_graph(a) else Tensor(out_data)


def tsum(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum())

    def backward(g):
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return Tensor(out_data, parents=(a,), backward=backward) if _needs_graph(a) else Tensor(out_data)


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------


class Adam:
    """Adaptive moment estimation with linear warmup and global-norm
    gradient clipping. State arrays live alongside the parameter dict."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 6e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        warmup_steps: int = 100,
        clip_norm: float = 1.0,
    ):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.warmup_steps = warmup_steps
        self.clip_norm = clip_norm
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def current_lr(self) -> float:
        if self.warmup_steps > 0 and self.step_count <= self.warmup_steps:
            return self.lr * self.step_count / self.warmup_steps
        return self.lr

    def step(self) -> None:
        self.step_count += 1
        grads = {
            k: p.grad for k, p in self.params.items() if p.grad is not None
        }
        if self.clip_norm > 0:
            total = math.sqrt(
                sum(float((g**2).sum()) for g in grads.values())
            )
            if total > self.clip_norm:
                factor = self.clip_norm / total
                for g in grads.values():
                    g *= factor
        lr = self.current_lr()
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for key, g in grads.items():
            p = self.params[key]
            self.m[key] = b1 * self.m[key] + (1 - b1) * g
            self.v[key] = b2 * self.v[key] + (1 - b2) * g**2
            m_hat = self.m[key] / bc1
            v_hat = self.v[key] / bc2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
