"""Finite-difference checks for every op in the autograd engine."""

import numpy as np
import pytest

from complab import autograd as ag
from complab.autograd import Tensor


def _numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def _check(build, *arrays, atol=1e-7):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    # A fixed random head gives each output its own upstream gradient.
    head = np.random.default_rng(1).standard_normal(out.data.shape)
    ag.tsum(ag.mul_const(out, head)).backward()
    for t, a in zip(tensors, arrays):
        def scalar():
            fresh = [Tensor(x) for x in arrays]
            o = build(*fresh)
            return float((o.data * head).sum())

        numeric = _numeric_grad(scalar, a)
        np.testing.assert_allclose(t.grad, numeric, atol=atol)


rng = np.random.default_rng(0)


def test_add_broadcast():
    _check(ag.add, rng.standard_normal((3, 4)), rng.standard_normal((4,)))


def test_matmul_batched():
    _check(ag.matmul, rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)))
    _check(
        ag.matmul, rng.standard_normal((2, 2, 3, 4)), rng.standard_normal((2, 2, 4, 3))
    )


def test_reshape_transpose():
    _check(
        lambda a: ag.transpose(ag.reshape(a, (2, 3, 4, 2)), (0, 2, 1, 3)),
        rng.standard_normal((2, 12, 2)),
    )


def test_gelu():
    _check(ag.gelu, rng.standard_normal((5, 7)))


def test_softmax():
    _check(ag.softmax, rng.standard_normal((4, 6)))


def test_log_softmax():
    _check(ag.log_softmax, rng.standard_normal((4, 6)))


def test_layer_norm():
    _check(
        ag.layer_norm,
        rng.standard_normal((3, 5, 8)),
        rng.standard_normal((8,)),
        rng.standard_normal((8,)),
        atol=1e-6,
    )


def test_embedding_scatter():
    idx = np.array([[0, 2, 2], [1, 0, 3]])
    _check(lambda w: ag.embedding(w, idx), rng.standard_normal((4, 6)))


def test_gather_last():
    idx = np.array([[0, 2], [3, 1]])
    _check(lambda a: ag.gather_last(a, idx), rng.standard_normal((2, 2, 4)))


def test_cross_entropy():
    targets = np.array([[0, 2, 5], [3, 1, 1]])
    weights = np.array([[1.0, 0.0, 0.5], [1.0, 1.0, 0.0]])  # zeros as at pads
    _check(
        lambda a: ag.cross_entropy(a, targets, weights),
        rng.standard_normal((2, 3, 6)),
    )


def test_matmul_weight_grad_is_sum_of_batched_products():
    a_data = rng.standard_normal((3, 4, 5))
    b_data = rng.standard_normal((5, 2))
    upstream = rng.standard_normal((3, 4, 2))
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    ag.tsum(ag.mul_const(ag.matmul(a, b), upstream)).backward()
    batched_gb = np.matmul(np.swapaxes(a_data, -1, -2), upstream).sum(axis=0)
    np.testing.assert_allclose(b.grad, batched_gb, rtol=1e-12)
    np.testing.assert_allclose(a.grad, np.matmul(upstream, b_data.T), rtol=1e-12)


@pytest.mark.parametrize("width", [512, 2927])
def test_matmul_shared_weight_forward_is_bit_equal_to_batched(width):
    # Desk shapes: 32 windows of 99 positions, d_model 128, by the
    # feed-forward weight (512) and by an output head (V = 2927).
    data_rng = np.random.default_rng(11)
    a = data_rng.standard_normal((32, 99, 128)).astype(np.float32)
    b = (data_rng.standard_normal((128, width)) * 0.02).astype(np.float32)
    out = ag.matmul(Tensor(a), Tensor(b)).data
    assert out.shape == (32, 99, width)
    assert np.array_equal(out, np.matmul(a, b))


def test_add_const_and_scale():
    c = rng.standard_normal((3, 3))
    _check(lambda a: ag.scale(ag.add_const(a, c), 1.7), rng.standard_normal((3, 3)))


def test_mul_const_mask():
    mask = (rng.random((4, 4)) > 0.5).astype(np.float64)
    _check(lambda a: ag.mul_const(a, mask), rng.standard_normal((4, 4)))


def test_grad_accumulates_over_shared_use():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    out = ag.tsum(ag.add(ag.scale(x, 2.0), x))  # 2x + x -> 3
    out.backward()
    np.testing.assert_allclose(x.grad, [3.0, 3.0])


def test_first_gradient_is_copied_not_aliased():
    # add() hands one g to both parents; a later += into a's gradient must
    # not leak into b's.
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    ag.tsum(ag.add(ag.add(a, b), a)).backward()
    np.testing.assert_allclose(a.grad, [2.0, 2.0])
    np.testing.assert_allclose(b.grad, [1.0, 1.0])


def _graph_nodes(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _backward_keeping_grads(root):
    """Reference walk that leaves every intermediate gradient in place."""
    order, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            order.append(node)

    visit(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def test_backward_frees_intermediate_grads_only():
    def build():
        r = np.random.default_rng(5)
        x = Tensor(r.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(r.standard_normal((4, 4)), requires_grad=True)
        h = ag.gelu(ag.matmul(x, w))
        out = ag.tsum(ag.matmul(ag.softmax(ag.add(h, x)), ag.transpose(h, (0, 2, 1))))
        return out, (x, w)

    out, leaves = build()
    out.backward()
    assert all(n.grad is None for n in _graph_nodes(out) if n._parents)
    ref_out, ref_leaves = build()
    _backward_keeping_grads(ref_out)
    for leaf, ref in zip(leaves, ref_leaves):
        np.testing.assert_array_equal(leaf.grad, ref.grad)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ag.add(x, x).backward()


def test_no_graph_without_requires_grad():
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3))
    out = ag.add(a, b)
    assert out._parents == ()


def test_adam_converges_on_quadratic():
    target = np.array([1.0, -2.0, 0.5])
    x = Tensor(np.zeros(3), requires_grad=True)
    opt = ag.Adam({"x": x}, lr=0.05, warmup_steps=10, clip_norm=0.0)
    for _ in range(400):
        opt.zero_grad()
        diff = ag.add_const(x, -target)
        loss = ag.tsum(ag.mul_const(diff, diff.data))  # gradient diff
        loss.backward()
        opt.step()
    np.testing.assert_allclose(x.data, target, atol=1e-3)


def test_adam_warmup_ramps_lr():
    x = Tensor(np.zeros(1), requires_grad=True)
    opt = ag.Adam({"x": x}, lr=1.0, warmup_steps=100)
    opt.step_count = 1
    assert opt.current_lr() == pytest.approx(0.01)
    opt.step_count = 100
    assert opt.current_lr() == pytest.approx(1.0)
    opt.step_count = 500
    assert opt.current_lr() == pytest.approx(1.0)


def test_gradient_clipping_bounds_update_norm():
    x = Tensor(np.zeros(4), requires_grad=True)
    opt = ag.Adam({"x": x}, lr=1.0, warmup_steps=0, clip_norm=1.0)
    x.grad = np.full(4, 100.0)
    opt.step()
    # After clipping, the gradient norm fed to Adam was exactly 1.
    assert np.linalg.norm(x.grad) == pytest.approx(1.0)
