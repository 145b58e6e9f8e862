"""Unit and property tests for the autograd Tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Tensor, concat, no_grad, stack, where


def small_arrays(shape=(3, 4)):
    return arrays(
        dtype=np.float64,
        shape=shape,
        elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    )


class TestBasics:
    def test_construction_casts_to_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_backward_requires_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward()

    def test_backward_grad_shape_checked(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a * 2
        with pytest.raises(ValueError):
            out.backward(np.ones(3))

    def test_numpy_returns_underlying(self):
        data = np.arange(4.0)
        assert Tensor(data).numpy() is not None
        np.testing.assert_array_equal(Tensor(data).numpy(), data)


class TestArithmeticGradients:
    def test_add_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1, 1])

    def test_mul_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3, 4])
        np.testing.assert_allclose(b.grad, [1, 2])

    def test_sub_and_rsub(self):
        a = Tensor([2.0], requires_grad=True)
        (5.0 - a).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_div_grad(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.5])

    def test_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        (4.0 / a).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_pow_grad(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [6.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul_grad(self):
        a = Tensor(np.eye(2), requires_grad=True)
        b = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, [[3, 7], [3, 7]])
        np.testing.assert_allclose(b.grad, np.ones((2, 2)))

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]) @ Tensor([1.0, 2.0])

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.zeros((3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, [3, 3, 3, 3])

    def test_broadcast_scalar_grad(self):
        a = Tensor(np.zeros((2, 2)), requires_grad=True)
        b = Tensor(2.0, requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == ()
        np.testing.assert_allclose(b.grad, 0.0)

    def test_grad_accumulates_on_reuse(self):
        a = Tensor([1.0], requires_grad=True)
        (a * a).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [2.0])

    def test_diamond_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3
        c = a * 4
        (b + c).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [7.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_grad(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 0.25))

    def test_mean_axis(self):
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        a.mean(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 4), 0.25))

    def test_max_grad_no_axis(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0, 1, 0])

    def test_max_grad_ties_split(self):
        a = Tensor([2.0, 2.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])

    def test_max_axis(self):
        a = Tensor([[1.0, 2.0], [4.0, 3.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [1, 0]])


class TestElementwise:
    def test_sigmoid_range_and_grad(self):
        a = Tensor([0.0], requires_grad=True)
        out = a.sigmoid()
        np.testing.assert_allclose(out.data, [0.5])
        out.backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [0.25])

    def test_tanh_grad(self):
        a = Tensor([0.0], requires_grad=True)
        a.tanh().backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [1.0])

    def test_relu_grad(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0, 1])

    def test_exp_log_inverse(self):
        a = Tensor([0.5, 1.5])
        np.testing.assert_allclose(a.exp().log().data, a.data)

    def test_log_grad(self):
        a = Tensor([2.0], requires_grad=True)
        a.log().backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [0.5])

    def test_clip_grad_masks_outside(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        a.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0, 1, 0])


class TestShapeOps:
    def test_reshape_roundtrip(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_reshape_accepts_tuple(self):
        a = Tensor(np.arange(6.0))
        assert a.reshape((3, 2)).shape == (3, 2)

    def test_transpose_grad(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.transpose().sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_getitem_grad_scatter(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        a[1:3].sum().backward()
        np.testing.assert_allclose(a.grad, [0, 1, 1, 0, 0])

    @pytest.mark.parametrize(
        "basic, fancy",
        [
            ((slice(None), slice(None), slice(1, None)),
             (slice(None), slice(None), np.arange(1, 5))),
            ((1, slice(None, None, -2)), (1, np.array([3, 1]))),
            ((Ellipsis, 0), (Ellipsis, np.array(0))),
            ((None, slice(1, 3)), (None, np.arange(1, 3))),
            (np.int64(2), np.array(2)),
        ],
    )
    def test_getitem_basic_grad_equals_fancy_bitwise(self, basic, fancy):
        # The basic-index backward adds into zeros without np.add.at; the
        # fancy path keeps it.  Gradients must agree bit for bit, signed
        # zeros included, also when a tensor is sliced twice.
        data = np.random.default_rng(0).normal(size=(3, 4, 5))
        grads = []
        for index in (basic, fancy):
            a = Tensor(data, requires_grad=True)
            shape = data[index].shape
            rng = np.random.default_rng(1)
            loss = None
            for _ in range(2):
                upstream = rng.normal(size=shape)
                upstream.reshape(-1)[::3] = -0.0
                term = (a[index] * Tensor(upstream)).sum()
                loss = term if loss is None else loss + term
            loss.backward()
            grads.append(a.grad)
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_getitem_fancy_grad_accumulates_repeats(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        a[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_array_equal(a.grad, [2, 0, 1, 0])
        b = Tensor(np.arange(4.0), requires_grad=True)
        b[np.array([True, False, True, True])].sum().backward()
        np.testing.assert_array_equal(b.grad, [1, 0, 1, 1])

    def test_concat_grad_routing(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        out = concat([a, b], axis=0)
        np.testing.assert_allclose(out.data, [1, 2, 3])
        (out * Tensor([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 2])
        np.testing.assert_allclose(b.grad, [3])

    def test_stack_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1, 1])

    def test_where_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        where(np.array([True, False]), a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 0])
        np.testing.assert_allclose(b.grad, [0, 1])


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_nests(self):
        from repro.nn import is_grad_enabled

        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestProperties:
    @given(small_arrays(), small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_add_commutes(self, x, y):
        left = (Tensor(x) + Tensor(y)).data
        right = (Tensor(y) + Tensor(x)).data
        np.testing.assert_allclose(left, right)

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_sum_linearity_of_grad(self, x):
        a = Tensor(x, requires_grad=True)
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full_like(x, 3.0))

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_sigmoid_bounded(self, x):
        out = Tensor(x).sigmoid().data
        assert np.all(out > 0) and np.all(out < 1)

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_double_negation_identity(self, x):
        np.testing.assert_allclose((-(-Tensor(x))).data, x)

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_mean_matches_numpy(self, x):
        np.testing.assert_allclose(Tensor(x).mean().item(), x.mean())
