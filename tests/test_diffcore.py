import hashlib
import json
import math
import struct

import numpy as np
import pytest

from trajsel.diffcore import (
    _EPS,
    AdamState,
    CheckpointError,
    NonFiniteDetected,
    ParamStore,
    ShapeMismatch,
    StoreMismatch,
    Tape,
    _accum,
    adam_step,
    ema_update,
    load_checkpoint,
    save_checkpoint,
)

H = 1e-5
TOL = 1e-4


def fd_check(build, *arrays, tol=TOL):
    """Compare tape gradients against central finite differences.

    build(tape, *leaves) must return a scalar (1, 1) Var built only from
    the given leaves, so the loss can be re-evaluated under perturbation.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    def value(parts):
        tape = Tape()
        leaves = [tape.var(p) for p in parts]
        return build(tape, *leaves).value[0, 0]

    tape = Tape()
    leaves = [tape.var(a) for a in arrays]
    loss = build(tape, *leaves)
    tape.backward(loss)
    for ai, (arr, leaf) in enumerate(zip(arrays, leaves)):
        assert leaf.grad is not None, f"input {ai} got no gradient"
        num = np.zeros_like(arr)
        for idx in np.ndindex(*arr.shape):
            plus = [a.copy() for a in arrays]
            plus[ai][idx] += H
            minus = [a.copy() for a in arrays]
            minus[ai][idx] -= H
            num[idx] = (value(plus) - value(minus)) / (2.0 * H)
        scale = max(1.0, np.abs(num).max(), np.abs(leaf.grad).max())
        err = np.abs(num - leaf.grad).max() / scale
        assert err < tol, f"input {ai}: rel err {err:.3e}"


def mat(rng, r, c):
    return rng.normal(size=(r, c))


class TestGradients:
    def test_matmul(self, rng):
        fd_check(
            lambda t, a, b: t.sum(t.matmul(a, b)), mat(rng, 3, 4), mat(rng, 4, 2)
        )

    def test_add_same_shape(self, rng):
        a, b = mat(rng, 3, 4), mat(rng, 3, 4)
        fd_check(lambda t, a, b: t.sum(t.mul(t.add(a, b), t.add(a, b))), a, b)

    def test_linear_bias_row(self, rng):
        fd_check(
            lambda t, x, w, b: t.sum(t.sigmoid(t.linear(x, w, b))),
            mat(rng, 5, 4),
            mat(rng, 4, 3),
            mat(rng, 1, 3),
        )

    def test_mul(self, rng):
        fd_check(lambda t, a, b: t.sum(t.mul(a, b)), mat(rng, 3, 3), mat(rng, 3, 3))

    def test_scale_and_add_const(self, rng):
        c = mat(rng, 2, 4)
        fd_check(
            lambda t, a: t.sum(t.add_const(t.scale(a, -2.5), c)), mat(rng, 2, 4)
        )

    def test_relu(self, rng):
        # keep values away from the kink at zero
        a = mat(rng, 4, 4)
        a = np.where(np.abs(a) < 0.1, 0.3, a)
        fd_check(lambda t, a: t.sum(t.mul(t.relu(a), t.relu(a))), a)

    def test_sigmoid(self, rng):
        fd_check(lambda t, a: t.sum(t.sigmoid(a)), mat(rng, 3, 5))

    def test_softmax(self, rng):
        w = mat(rng, 3, 5)
        fd_check(
            lambda t, a: t.sum(t.mul(t.softmax(a), t.add_const(t.scale(a, 0.0), w))),
            mat(rng, 3, 5),
        )

    def test_layer_norm(self, rng):
        fd_check(
            lambda t, a, g, b: t.sum(t.sigmoid(t.layer_norm(a, g, b))),
            mat(rng, 4, 6),
            1.0 + 0.1 * mat(rng, 1, 6),
            0.1 * mat(rng, 1, 6),
        )

    def test_transpose(self, rng):
        fd_check(
            lambda t, a, b: t.sum(t.matmul(t.transpose(a), b)),
            mat(rng, 4, 2),
            mat(rng, 4, 3),
        )

    def test_concat_cols(self, rng):
        fd_check(
            lambda t, a, b: t.sum(t.sigmoid(t.concat([a, b], axis=1))),
            mat(rng, 3, 2),
            mat(rng, 3, 4),
        )

    def test_concat_rows(self, rng):
        fd_check(
            lambda t, a, b: t.sum(t.sigmoid(t.concat([a, b], axis=0))),
            mat(rng, 2, 3),
            mat(rng, 4, 3),
        )

    def test_slice_cols(self, rng):
        fd_check(lambda t, a: t.sum(t.sigmoid(t.slice_cols(a, 1, 4))), mat(rng, 3, 6))

    def test_gather_rows_with_repeats(self, rng):
        # a row gathered twice must receive both gradient contributions
        fd_check(
            lambda t, a: t.sum(t.sigmoid(t.gather_rows(a, [0, 2, 2, 1]))),
            mat(rng, 4, 3),
        )

    def test_mean(self, rng):
        fd_check(lambda t, a: t.mean(t.mul(a, a)), mat(rng, 3, 4))

    def test_attention_one_head(self, rng):
        fd_check(
            lambda t, q, k, v: t.sum(t.sigmoid(t.attention(q, k, v, 1))),
            mat(rng, 3, 4),
            mat(rng, 5, 4),
            mat(rng, 5, 4),
        )

    def test_attention_two_heads(self, rng):
        fd_check(
            lambda t, q, k, v: t.sum(t.sigmoid(t.attention(q, k, v, 2))),
            mat(rng, 2, 6),
            mat(rng, 4, 6),
            mat(rng, 4, 6),
        )

    def test_bce_mean(self, rng):
        p = 0.05 + 0.9 * rng.random((3, 4))
        y = rng.random((3, 4))
        fd_check(lambda t, p: t.scale(t.bce(p, y), 1.0 / y.size), p)

    def test_bce_sum(self, rng):
        p = 0.05 + 0.9 * rng.random((2, 5))
        y = rng.random((2, 5))
        fd_check(lambda t, p: t.bce(p, y), p)

    def test_cross_entropy(self, rng):
        raw = rng.random((3, 5)) + 0.1
        target = raw / raw.sum(axis=1, keepdims=True)
        fd_check(lambda t, a: t.cross_entropy(a, target), mat(rng, 3, 5))

    def test_chained_network(self, rng):
        # two dense layers with layer norm, the shape used by the planner
        def build(t, x, w1, b1, g, be, w2):
            h = t.linear(x, w1, b1, relu=True)
            h = t.layer_norm(h, g, be)
            return t.mean(t.sigmoid(t.matmul(h, w2)))

        fd_check(
            build,
            mat(rng, 3, 4),
            mat(rng, 4, 6),
            mat(rng, 1, 6),
            1.0 + 0.1 * mat(rng, 1, 6),
            0.1 * mat(rng, 1, 6),
            mat(rng, 6, 2),
        )


class TestOperatorValues:
    def test_softmax_rows_sum_to_one(self, rng):
        t = Tape()
        out = t.softmax(t.var(rng.normal(size=(6, 9)) * 10.0))
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self, rng):
        a = rng.normal(size=(3, 5))
        t = Tape()
        base = t.softmax(t.var(a)).value
        shifted = t.softmax(t.var(a + 123.0)).value
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_attention_single_key_returns_value(self, rng):
        q = rng.normal(size=(4, 6))
        k = rng.normal(size=(1, 6))
        v = rng.normal(size=(1, 6))
        t = Tape()
        out = t.attention(t.var(q), t.var(k), t.var(v), 2)
        np.testing.assert_allclose(out.value, np.tile(v, (4, 1)), atol=1e-12)

    def test_bce_half_half_is_ln2(self):
        t = Tape()
        p = t.var(np.full((2, 3), 0.5))
        loss = t.bce(p, np.full((2, 3), 0.5))
        assert loss.value[0, 0] == pytest.approx(6 * math.log(2.0), abs=1e-12)

    def test_bce_stationary_when_pred_equals_target(self, rng):
        y = 0.1 + 0.8 * rng.random((3, 3))
        t = Tape()
        p = t.var(y)
        t.backward(t.bce(p, y))
        np.testing.assert_allclose(p.grad, 0.0, atol=1e-12)

    def test_bce_clamps_saturated_predictions(self):
        t = Tape()
        p = t.var(np.array([[0.0, 1.0]]))
        loss = t.bce(p, np.array([[0.0, 1.0]]))
        assert np.isfinite(loss.value[0, 0])
        t.backward(loss)
        np.testing.assert_allclose(p.grad, 0.0)

    def test_cross_entropy_uniform_is_ln_k(self):
        k = 7
        t = Tape()
        logits = t.var(np.zeros((3, k)))
        loss = t.cross_entropy(logits, np.full((3, k), 1.0 / k))
        assert loss.value[0, 0] == pytest.approx(math.log(k), abs=1e-12)

    def test_cross_entropy_rejects_unnormalized_target(self, rng):
        t = Tape()
        logits = t.var(rng.normal(size=(2, 4)))
        with pytest.raises(ValueError):
            t.cross_entropy(logits, np.full((2, 4), 0.3))

    def test_layer_norm_rows_standardized(self, rng):
        a = rng.normal(size=(5, 8)) * 3.0 + 2.0
        t = Tape()
        out = t.layer_norm(
            t.var(a), t.var(np.ones((1, 8))), t.var(np.zeros((1, 8)))
        )
        np.testing.assert_allclose(out.value.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.value.std(axis=1), 1.0, atol=1e-4)


def _unfused_add(t, a, b):
    """Tape.add with the (1, n) bias-row broadcast that linear replaced."""
    out = a.value + b.value

    def backward(g, a=a, b=b):
        _accum(a, g, shared=True)
        _accum(b, g if b.value.shape == g.shape else g.sum(axis=0, keepdims=True),
               shared=True)

    return t._node(out, backward)


def _fresh_layer_norm(t, a, gamma, beta):
    """layer_norm's formula with a fresh array for every step."""
    mu = a.value.mean(axis=1, keepdims=True)
    xc = a.value - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    out = xhat * gamma.value + beta.value

    def backward(g, a=a, gamma=gamma, beta=beta, xhat=xhat, inv=inv):
        _accum(gamma, (g * xhat).sum(axis=0, keepdims=True))
        _accum(beta, g.sum(axis=0, keepdims=True))
        gx = g * gamma.value
        term = gx - gx.mean(axis=1, keepdims=True) - xhat * (gx * xhat).mean(
            axis=1, keepdims=True
        )
        _accum(a, term * inv)

    return t._node(out, backward)


def _chain_attention(t, q, k, v, n_heads):
    """attention as the chain of primitive nodes, one set per head."""
    dh = q.value.shape[1] // n_heads
    outs = []
    for h in range(n_heads):
        qh = t.slice_cols(q, h * dh, (h + 1) * dh)
        kh = t.slice_cols(k, h * dh, (h + 1) * dh)
        vh = t.slice_cols(v, h * dh, (h + 1) * dh)
        logits = t.scale(t.matmul(qh, t.transpose(kh)), 1.0 / np.sqrt(dh))
        outs.append(t.matmul(t.softmax(logits), vh))
    return outs[0] if n_heads == 1 else t.concat(outs, axis=1)


class TestFusedOpsBitIdentical:
    """linear, layer_norm and attention give the bytes of the op chains they stand for."""

    @staticmethod
    def _run(build, arrays, upstream, record):
        """build's value and, on a recording tape, every leaf's gradient."""
        t = Tape(record=record)
        leaves = [t.var(a.copy()) for a in arrays]
        out = build(t, *leaves)
        if not record:
            return [out.value]
        # Weighting each output element gives it its own upstream gradient.
        t.backward(t.sum(t.mul(out, t.var(upstream))))
        return [out.value] + [leaf.grad for leaf in leaves]

    def _assert_same_bytes(self, fused, reference, arrays, upstream, record):
        got = self._run(fused, arrays, upstream, record)
        want = self._run(reference, arrays, upstream, record)
        assert len(got) == len(want) == (1 + len(arrays) if record else 1)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("relu", [False, True])
    def test_linear_equals_matmul_add_relu(self, rng, relu, record):
        def fused(t, x, w, b):
            return t.linear(x, w, b, relu=relu)

        def reference(t, x, w, b):
            out = _unfused_add(t, t.matmul(x, w), b)
            return t.relu(out) if relu else out

        arrays = [mat(rng, 7, 5), mat(rng, 5, 6), mat(rng, 1, 6)]
        self._assert_same_bytes(fused, reference, arrays, mat(rng, 7, 6), record)
        # A single row, where the bias gradient is the row itself.
        arrays = [mat(rng, 1, 5), mat(rng, 5, 6), mat(rng, 1, 6)]
        self._assert_same_bytes(fused, reference, arrays, mat(rng, 1, 6), record)

    @pytest.mark.parametrize("record", [True, False])
    def test_linear_shared_bias_accumulates_in_order(self, rng, record):
        # Two layers share w and b, as the original and rotated views share
        # every parameter in training; b's two gradients add in tape order.
        def fused(t, x, w, b):
            h = t.linear(x, w, b, relu=True)
            return t.add(h, t.linear(t.scale(x, 0.5), w, b))

        def reference(t, x, w, b):
            h = t.relu(_unfused_add(t, t.matmul(x, w), b))
            return t.add(h, _unfused_add(t, t.matmul(t.scale(x, 0.5), w), b))

        arrays = [mat(rng, 6, 4), mat(rng, 4, 4), mat(rng, 1, 4)]
        self._assert_same_bytes(fused, reference, arrays, mat(rng, 6, 4), record)

    def test_linear_product_goes_through_matmul(self, rng, monkeypatch):
        # Wrappers of Tape.matmul (the benchmark's flop counter) see the product.
        shapes = []
        real = Tape.matmul

        def counted(tape, a, b):
            shapes.append((a.value.shape, b.value.shape))
            return real(tape, a, b)

        monkeypatch.setattr(Tape, "matmul", counted)
        t = Tape()
        t.linear(t.var(mat(rng, 3, 4)), t.var(mat(rng, 4, 2)), t.var(mat(rng, 1, 2)))
        assert shapes == [((3, 4), (4, 2))]

    @pytest.mark.parametrize("record", [True, False])
    def test_layer_norm_equals_fresh_array_formula(self, rng, record):
        arrays = [mat(rng, 9, 8) * 3.0 + 1.0, 1.0 + 0.1 * mat(rng, 1, 8),
                  0.1 * mat(rng, 1, 8)]
        self._assert_same_bytes(lambda t, a, g, b: t.layer_norm(a, g, b),
                                _fresh_layer_norm, arrays, mat(rng, 9, 8), record)

    @pytest.mark.parametrize("rows, cols", [(1, 8), (5, 33), (40, 64)])
    def test_layer_norm_of_other_shapes_equals_fresh_array_formula(self, rng, rows, cols):
        arrays = [mat(rng, rows, cols) * 3.0 + 1.0, 1.0 + 0.1 * mat(rng, 1, cols),
                  0.1 * mat(rng, 1, cols)]
        self._assert_same_bytes(lambda t, a, g, b: t.layer_norm(a, g, b),
                                _fresh_layer_norm, arrays, mat(rng, rows, cols), True)

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_equals_primitive_chain(self, rng, heads, record):
        # Distinct q, k and v, with fewer queries than keys, as in the
        # model's cross-attention.
        arrays = [mat(rng, 5, 8), mat(rng, 7, 8), mat(rng, 7, 8)]
        self._assert_same_bytes(lambda t, q, k, v: t.attention(q, k, v, heads),
                                lambda t, q, k, v: _chain_attention(t, q, k, v, heads),
                                arrays, mat(rng, 5, 8), record)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_over_one_array_equals_chain(self, rng, heads):
        # q, k and v all one leaf: its three gradients add in the chain's order.
        def fused(t, x):
            return t.attention(x, x, x, heads)

        def reference(t, x):
            return _chain_attention(t, x, x, x, heads)

        self._assert_same_bytes(fused, reference, [mat(rng, 6, 8)], mat(rng, 6, 8), True)


def _chain_cross_attention(t, xn, wq, k, v, wo, n_heads):
    """cross_attention as the products it reassociates."""
    return t.matmul(t.attention(t.matmul(xn, wq), k, v, n_heads), wo)


class TestCrossAttention:
    """cross_attention equals its chain up to float reassociation."""

    # Reassociating sums of a few hundred float64 terms moves results by
    # about 1e-15 relative; the benchmark's reference check allows 1e-9.
    TOL = 1e-12

    def _assert_close(self, build, arrays, upstream):
        run = TestFusedOpsBitIdentical._run
        got = run(lambda t, *x: build(t, t.cross_attention, *x), arrays, upstream, True)
        want = run(lambda t, *x: build(t, lambda *a: _chain_cross_attention(t, *a), *x),
                   arrays, upstream, True)
        assert len(got) == len(want) == 1 + len(arrays)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            scale = max(1.0, np.abs(w).max())
            assert np.abs(g - w).max() / scale < self.TOL

    @staticmethod
    def _arrays(rng, rows, width, keys, out=None):
        out = width if out is None else out
        return [mat(rng, rows, width), mat(rng, width, width) / 3.0, mat(rng, keys, width),
                mat(rng, keys, width), mat(rng, width, out) / 3.0]

    @pytest.mark.parametrize("heads, keys", [(1, 5), (2, 5), (4, 5), (1, 1), (2, 1)])
    def test_values_and_gradients_equal_the_chain(self, rng, heads, keys):
        # Fewer keys than rows, an output width other than the input's, and
        # a single key token.
        arrays = self._arrays(rng, 9, 8, keys, out=6)
        self._assert_close(lambda t, op, xn, wq, k, v, wo: op(xn, wq, k, v, wo, heads),
                           arrays, mat(rng, 9, 6))

    def test_input_that_feeds_another_op(self, rng):
        # The node's gradient for xn is added to the other op's, so it must
        # hand over an array that nothing else holds.
        def build(t, op, xn, wq, k, v, wo):
            return t.add(op(xn, wq, k, v, wo, 2), t.matmul(xn, wq))

        self._assert_close(build, self._arrays(rng, 6, 8, 4), mat(rng, 6, 8))

    @pytest.mark.parametrize("heads", [1, 4])
    def test_record_false_gives_the_bytes_of_record_true(self, rng, heads):
        arrays = self._arrays(rng, 11, 8, 3)
        run = TestFusedOpsBitIdentical._run
        build = lambda t, xn, wq, k, v, wo: t.cross_attention(xn, wq, k, v, wo, heads)
        got = run(build, arrays, mat(rng, 11, 8), False)[0]
        want = run(build, arrays, mat(rng, 11, 8), True)[0]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shapes, heads", [
        ([(3, 6), (4, 8), (2, 8), (2, 8), (8, 8)], 2),  # xn does not fit wq
        ([(3, 8), (8, 8), (2, 6), (2, 8), (8, 8)], 2),  # k narrower than wq
        ([(3, 8), (8, 8), (2, 8), (2, 6), (8, 8)], 2),  # v narrower than wq
        ([(3, 8), (8, 8), (2, 8), (2, 8), (6, 8)], 2),  # wo does not take wq's width
        ([(3, 8), (8, 8), (2, 8), (3, 8), (8, 8)], 2),  # keys and values differ in count
        ([(3, 6), (6, 6), (2, 6), (2, 6), (6, 6)], 4),  # heads do not divide the width
    ])
    def test_bad_widths_raise(self, rng, shapes, heads):
        t = Tape()
        leaves = [t.var(mat(rng, *shape)) for shape in shapes]
        with pytest.raises(ShapeMismatch):
            t.cross_attention(*leaves, heads)


class TestGradientOwnership:
    """Every leaf ends backward with a gradient array of its own."""

    def test_add_of_one_leaf_twice_doubles(self, rng):
        t = Tape()
        x = t.var(mat(rng, 3, 4))
        up = mat(rng, 3, 4)
        y = t.add(x, x)
        t.backward(t.sum(t.mul(y, t.var(up, requires_grad=False))))
        assert x.grad.tobytes() == (2.0 * up).tobytes()
        assert y.grad.tobytes() == up.tobytes()

    def test_inputs_take_no_gradient(self, rng):
        t = Tape()
        w = t.var(mat(rng, 4, 3))
        x = t.var(mat(rng, 5, 4), requires_grad=False)
        c = t.var(mat(rng, 5, 3), requires_grad=False)
        t.backward(t.sum(t.mul(t.matmul(x, w), c)))
        assert x.grad is None and c.grad is None
        assert w.grad.tobytes() == (x.value.T @ c.value).tobytes()

    def test_no_leaf_gradient_shares_memory_with_another(self, rng):
        t = Tape()
        L = {name: t.var(mat(rng, *shape)) for name, shape in {
            "a": (3, 4), "c": (3, 4), "d": (3, 4), "e": (3, 4), "f": (3, 4),
            "x": (3, 4), "w": (4, 4), "b": (1, 4), "row": (1, 4), "rw": (4, 4),
            "rb": (1, 4), "g": (1, 4), "beta": (1, 4), "q": (3, 4), "k": (5, 4),
            "v": (5, 4), "m": (3, 4), "s": (3, 4), "z": (2, 4), "p1": (3, 4),
            "p2": (3, 4), "n": (2, 3), "xn": (3, 4), "wq": (4, 4), "ck": (2, 4),
            "cv": (2, 4), "wo": (4, 4),
        }.items()}
        terms = [
            t.add(L["a"], L["a"]),
            t.add(L["p1"], L["p2"]),
            t.add_const(L["c"], 1.0),
            t.transpose(L["d"]),
            t.concat([L["e"], L["f"]], axis=1),
            t.concat([L["e"], L["f"]], axis=0),
            t.linear(L["x"], L["w"], L["b"], relu=True),
            t.linear(L["row"], L["rw"], L["rb"]),
            t.layer_norm(L["x"], L["g"], L["beta"]),
            t.attention(L["q"], L["k"], L["v"], 2),
            t.cross_attention(L["xn"], L["wq"], L["ck"], L["cv"], L["wo"], 2),
            t.mul(L["m"], L["s"]),
            t.scale(t.relu(L["m"]), 0.5),
            t.softmax(t.sigmoid(L["s"])),
            t.slice_cols(L["a"], 1, 3),
            t.gather_rows(L["k"], [0, 2, 2]),
            t.mean(L["n"]),
            t.bce(t.sigmoid(L["z"]), np.full((2, 4), 0.25)),
            t.cross_entropy(L["z"], np.full((2, 4), 0.25)),
        ]
        loss = t.sum(terms[0])
        for term in terms[1:]:
            loss = t.add(loss, t.sum(term))
        t.backward(loss)
        grads = [n.grad for n in t._nodes if n.grad is not None]
        for name, v in L.items():
            assert v.grad is not None, name
            others = grads + [u.grad for u in L.values() if u is not v]
            assert not any(np.shares_memory(v.grad, o) for o in others), name


class TestShapeErrors:
    def test_matmul_mismatch(self, rng):
        t = Tape()
        with pytest.raises(ShapeMismatch):
            t.matmul(t.var(mat(rng, 2, 3)), t.var(mat(rng, 2, 3)))

    def test_add_mismatch(self, rng):
        t = Tape()
        with pytest.raises(ShapeMismatch):
            t.add(t.var(mat(rng, 2, 3)), t.var(mat(rng, 3, 2)))

    def test_add_rejects_bias_row(self, rng):
        t = Tape()
        with pytest.raises(ShapeMismatch):
            t.add(t.var(mat(rng, 2, 3)), t.var(mat(rng, 1, 3)))

    def test_linear_bias_shape(self, rng):
        t = Tape()
        x, w = t.var(mat(rng, 2, 3)), t.var(mat(rng, 3, 4))
        for bias in (mat(rng, 1, 3), mat(rng, 2, 4)):
            with pytest.raises(ShapeMismatch):
                t.linear(x, w, t.var(bias))

    def test_mul_rejects_broadcast(self, rng):
        t = Tape()
        with pytest.raises(ShapeMismatch):
            t.mul(t.var(mat(rng, 2, 3)), t.var(mat(rng, 1, 3)))

    def test_attention_heads_must_divide(self, rng):
        t = Tape()
        q = t.var(mat(rng, 2, 6))
        with pytest.raises(ShapeMismatch):
            t.attention(q, q, q, 4)

    def test_concat_axis(self, rng):
        t = Tape()
        with pytest.raises(ShapeMismatch):
            t.concat([t.var(mat(rng, 2, 2))], axis=2)

    def test_backward_requires_scalar(self, rng):
        t = Tape()
        v = t.var(mat(rng, 2, 2))
        with pytest.raises(ShapeMismatch):
            t.backward(v)

    def test_backward_rejects_nonfinite_loss(self):
        t = Tape()
        v = t.var(np.array([[np.nan]]))
        with pytest.raises(NonFiniteDetected):
            t.backward(v)

    def test_backward_on_unrecorded_tape_names_cause(self, rng):
        t = Tape(record=False)
        loss = t.mean(t.matmul(t.var(mat(rng, 2, 3)), t.var(mat(rng, 3, 2))))
        with pytest.raises(RuntimeError, match="record=False"):
            t.backward(loss)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        s = ParamStore()
        s.add("w", np.zeros((2, 2)))
        with pytest.raises(StoreMismatch):
            s.add("w", np.zeros((2, 2)))

    def test_bind_collect_roundtrip(self, rng):
        s = ParamStore()
        s.add("w", rng.normal(size=(3, 2)))
        tape = Tape()
        bound = s.bind(tape)
        tape.backward(tape.sum(tape.mul(bound["w"], bound["w"])))
        s.collect(bound)
        np.testing.assert_allclose(s.grad("w"), 2.0 * s["w"], atol=1e-12)
        s.zero_grads()
        np.testing.assert_array_equal(s.grad("w"), 0.0)

    def test_bind_shares_store_arrays(self, rng):
        # a forward pass reads the parameters where they live; copying
        # them per pass cost tens of MB per request on the paper profile
        s = ParamStore()
        s.add("w", rng.normal(size=(3, 2)))
        s.add("b", rng.normal(size=(1, 2)))
        bound = s.bind(Tape())
        for name in s.names():
            assert np.shares_memory(bound[name].value, s[name])

    def test_copy_is_deep(self, rng):
        s = ParamStore()
        s.add("w", rng.normal(size=(2, 2)))
        c = s.copy()
        c["w"][:] = 0.0
        assert not np.array_equal(s["w"], c["w"])


class TestAdam:
    def test_zero_gradient_is_identity(self, rng):
        s = ParamStore()
        s.add("w", rng.normal(size=(3, 3)))
        before = s["w"].copy()
        st = AdamState(s, lr=0.1)
        adam_step(s, st)
        np.testing.assert_array_equal(s["w"], before)
        assert st.step == 1

    def test_quadratic_descent(self):
        s = ParamStore()
        s.add("x", np.array([[4.0, -3.0]]))
        st = AdamState(s, lr=0.05)
        start = float((s["x"] ** 2).sum())
        for _ in range(200):
            s.zero_grads()
            s.grad("x")[:] = 2.0 * s["x"]
            adam_step(s, st)
        end = float((s["x"] ** 2).sum())
        assert end < 1e-2 < start

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes the first update lr * g / (|g| + eps):
        # lr * sign(g) but for the denominator floor
        s = ParamStore()
        s.add("x", np.array([[1.0, -2.0]]))
        st = AdamState(s, lr=0.01)
        g = np.array([[0.5, -3.0]])
        s.grad("x")[:] = g
        adam_step(s, st)
        np.testing.assert_allclose(
            s["x"], np.array([[1.0, -2.0]]) - 0.01 * g / (np.abs(g) + _EPS), atol=1e-15
        )

    def test_nonfinite_gradient_raises(self, rng):
        s = ParamStore()
        s.add("w", rng.normal(size=(2, 2)))
        st = AdamState(s, lr=0.1)
        s.grad("w")[0, 0] = np.inf
        with pytest.raises(NonFiniteDetected):
            adam_step(s, st)

    def test_bit_identical_runs(self, rng):
        def run():
            s = ParamStore()
            s.add("w", np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0)
            st = AdamState(s, lr=0.02)
            for k in range(25):
                s.zero_grads()
                s.grad("w")[:] = np.sin(s["w"] + k)
                adam_step(s, st)
            return s["w"].copy()

        np.testing.assert_array_equal(run(), run())


class TestEma:
    def test_momentum_zero_copies_student(self, rng):
        t, s = ParamStore(), ParamStore()
        t.add("w", rng.normal(size=(2, 2)))
        s.add("w", rng.normal(size=(2, 2)))
        ema_update(t, s, 0.0)
        np.testing.assert_array_equal(t["w"], s["w"])

    def test_momentum_one_freezes_teacher(self, rng):
        t, s = ParamStore(), ParamStore()
        w0 = rng.normal(size=(2, 2))
        t.add("w", w0)
        s.add("w", rng.normal(size=(2, 2)))
        ema_update(t, s, 1.0)
        np.testing.assert_array_equal(t["w"], w0)

    def test_momentum_arithmetic_exact(self, rng):
        t, s = ParamStore(), ParamStore()
        w0 = rng.normal(size=(3, 2))
        sv = rng.normal(size=(3, 2))
        t.add("w", w0)
        s.add("w", sv)
        ema_update(t, s, 0.998)
        np.testing.assert_array_equal(t["w"], w0 * 0.998 + (1.0 - 0.998) * sv)

    def test_name_mismatch_raises(self):
        t, s = ParamStore(), ParamStore()
        t.add("a", np.zeros((1, 1)))
        s.add("b", np.zeros((1, 1)))
        with pytest.raises(StoreMismatch):
            ema_update(t, s, 0.5)

    def test_shape_mismatch_raises(self):
        t, s = ParamStore(), ParamStore()
        t.add("a", np.zeros((1, 2)))
        s.add("a", np.zeros((2, 1)))
        with pytest.raises(StoreMismatch):
            ema_update(t, s, 0.5)


class TestCheckpoint:
    def _store(self, rng, names=("w1", "b1")):
        s = ParamStore()
        for i, n in enumerate(names):
            s.add(n, rng.normal(size=(2 + i, 3)))
        return s

    @staticmethod
    def _save(path, store, step=0):
        """save_checkpoint with the student's copy as the teacher."""
        return save_checkpoint(path, store, store.copy(), step=step, config_hash="", extra={})

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        s, t = self._store(rng), self._store(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, s, t, step=42, config_hash="abc", extra={"note": "x"})
        loaded, teacher, meta = load_checkpoint(path)
        assert meta == {"step": 42, "config_hash": "abc", "extra": {"note": "x"}}
        for got, want in ((loaded, s), (teacher, t)):
            assert got.names() == want.names()
            for n in want.names():
                np.testing.assert_array_equal(got[n], want[n])

    def test_save_digest_is_deterministic(self, tmp_path, rng):
        s = self._store(rng)
        d1 = self._save(tmp_path / "a.ckpt", s, step=1)
        d2 = self._save(tmp_path / "b.ckpt", s, step=1)
        assert d1 == d2
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_header_records_no_optimizer_state(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        self._save(path, self._store(rng))
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + hlen])
        assert header["adam"] is None
        assert [sec["kind"] for sec in header["sections"]] == ["params", "teacher"]

    def test_file_with_adam_sections_refused(self, tmp_path, rng):
        # Older files carry the Adam moments after the teacher, in the same
        # blob layout; a section of any kind but params or teacher is refused.
        s, teacher = self._store(rng), self._store(rng)
        st = AdamState(s, lr=0.003)
        s.grad("w1")[:] = 1.0
        adam_step(s, st)
        names = s.names()
        shapes = {n: list(s[n].shape) for n in names}
        sections, blobs = [], []
        for kind, arrays in (("params", s), ("teacher", teacher),
                             ("adam_m", st.m), ("adam_v", st.v)):
            sections.append({"kind": kind, "names": names, "shapes": shapes})
            blobs += [np.asarray(arrays[n], dtype="<f8").tobytes() for n in names]
        header = json.dumps({
            "sections": sections,
            "adam": {"lr": 0.003, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step": 1},
            "step": 1, "config_hash": "abc", "extra": {},
        }, sort_keys=True).encode("utf-8")
        path = tmp_path / "old.ckpt"
        path.write_bytes(b"TSCK" + struct.pack("<II", 1, len(header)) + header
                         + b"".join(blobs))
        with pytest.raises(CheckpointError, match=r"old\.ckpt.*'adam_m'"):
            load_checkpoint(path)

    def test_truncated_file_names_file_and_shortfall(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        self._save(path, self._store(rng), step=3)
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        cut_path = tmp_path / "cut.ckpt"
        # inside the preamble, inside the header, at the header's end,
        # inside a blob, one byte short
        for cut in (6, 12 + hlen // 2, 12 + hlen, 12 + hlen + 20, len(blob) - 1):
            cut_path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="cut.ckpt") as err:
                load_checkpoint(cut_path)
            assert f"file has {cut} bytes" in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        self._save(path, self._store(rng))
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CheckpointError, match="8 extra"):
            load_checkpoint(path)

    def test_written_bytes_and_digest(self, tmp_path, rng):
        s, teacher = self._store(rng), self._store(rng)
        path = tmp_path / "m.ckpt"
        digest = save_checkpoint(path, s, teacher, step=7, config_hash="abc",
                                 extra={"note": "x"})
        blob = path.read_bytes()
        assert digest == hashlib.sha256(blob).hexdigest()
        stores = [("params", s), ("teacher", teacher)]
        sections = [{"kind": kind, "names": st.names(),
                     "shapes": {n: list(st[n].shape) for n in st.names()}}
                    for kind, st in stores]
        header = json.dumps({"sections": sections, "adam": None, "step": 7,
                             "config_hash": "abc", "extra": {"note": "x"}},
                            sort_keys=True).encode("utf-8")
        data = b"".join(st[n].astype("<f8").tobytes()
                        for _, st in stores for n in st.names())
        assert blob == b"TSCK" + struct.pack("<II", 1, len(header)) + header + data

    @staticmethod
    def _edit_header(path, edit):
        """Rewrite the file's JSON header with `edit` applied; blobs kept."""
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + hlen])
        edit(header)
        hb = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:4] + struct.pack("<II", 1, len(hb)) + hb
                         + blob[12 + hlen :])

    def test_parameter_named_twice_names_file(self, tmp_path, rng):
        s = ParamStore()
        for n in ("w1", "w2"):
            s.add(n, rng.normal(size=(2, 3)))
        path = tmp_path / "m.ckpt"
        self._save(path, s)

        def name_w1_twice(header):
            header["sections"][0]["names"] = ["w1", "w1"]

        self._edit_header(path, name_w1_twice)
        with pytest.raises(CheckpointError,
                           match=r"m\.ckpt: params section names 'w1' twice"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shapes", [
        {"w1": [-1, 5], "b1": [1, 20]},  # the declared size still matches
        {"w1": [1.0, 5], "b1": [1, 10]},
        {"w1": [True, 5], "b1": [1, 10]},
        {"w1": [0, 5], "b1": [1, 15]},
    ])
    def test_dimension_not_a_positive_integer_names_file(self, tmp_path, rng, shapes):
        s = ParamStore()
        s.add("w1", rng.normal(size=(1, 5)))
        s.add("b1", rng.normal(size=(1, 10)))
        path = tmp_path / "m.ckpt"
        self._save(path, s)

        def set_shapes(header):
            for sec in header["sections"]:
                sec["shapes"] = shapes

        self._edit_header(path, set_shapes)
        with pytest.raises(CheckpointError,
                           match=r"m\.ckpt: header dimension .* is not a positive integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["step", "config_hash", "extra"])
    def test_header_without_meta_key_names_file(self, tmp_path, rng, key):
        path = tmp_path / "m.ckpt"
        self._save(path, self._store(rng))
        self._edit_header(path, lambda header: header.pop(key))
        with pytest.raises(CheckpointError, match=rf"m\.ckpt: unreadable header \('{key}'\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("teacher", [
        {"names": ["w1", "b2"], "shapes": {"w1": [2, 3], "b2": [3, 3]}},
        {"names": ["w1", "b1"], "shapes": {"w1": [3, 2], "b1": [3, 3]}},
    ])
    def test_teacher_unlike_parameters_names_file(self, tmp_path, rng, teacher):
        s = self._store(rng)
        path = tmp_path / "m.ckpt"
        self._save(path, s)

        def replace_teacher(header):
            header["sections"][1].update(teacher)

        self._edit_header(path, replace_teacher)
        with pytest.raises(CheckpointError, match=r"m\.ckpt: teacher parameters differ"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        self._save(path, self._store(rng))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        self._save(path, self._store(rng))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestGraphLifetime:
    def test_graph_frees_without_gc(self, rng):
        # training builds thousands of tapes; each must die by refcount
        # alone, or intermediate arrays pile up until a full gc pass
        import gc
        import weakref

        gc.disable()
        try:
            tape = Tape()
            a = tape.var(mat(rng, 4, 4))
            b = tape.var(mat(rng, 4, 4))
            out = tape.mean(tape.relu(tape.matmul(a, b)))
            tape.backward(out)
            refs = [weakref.ref(tape), weakref.ref(out.value),
                    weakref.ref(a.grad)]
            del tape, a, b, out
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_unrecorded_intermediates_die_at_once(self, rng):
        # an inference pass keeps no node list, so an intermediate is freed
        # as soon as the op that consumed it has returned
        import gc
        import weakref

        gc.disable()
        try:
            tape = Tape(record=False)
            a = tape.var(mat(rng, 4, 4))
            hidden = tape.relu(tape.matmul(a, a))
            ref = weakref.ref(hidden.value)
            out = tape.mean(hidden)
            del hidden
            assert ref() is None
            assert out.value.shape == (1, 1)
        finally:
            gc.enable()
