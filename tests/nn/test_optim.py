"""Tests for optimisers and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Adam, Parameter, SGD, clip_grad_norm


def quadratic_step(opt_factory, steps=200):
    """Minimise ||x - 3||^2 and return the final parameter."""
    x = Parameter(np.array([10.0]))
    opt = opt_factory([x])
    for _ in range(steps):
        opt.zero_grad()
        loss = ((x - 3.0) ** 2).sum()
        loss.backward()
        opt.step()
    return x.data


class TestSGD:
    def test_converges_on_quadratic(self):
        final = quadratic_step(lambda p: SGD(p, lr=0.1))
        np.testing.assert_allclose(final, [3.0], atol=1e-3)

    def test_momentum_converges(self):
        final = quadratic_step(lambda p: SGD(p, lr=0.05, momentum=0.9))
        np.testing.assert_allclose(final, [3.0], atol=1e-3)

    def test_weight_decay_shrinks_solution(self):
        final = quadratic_step(lambda p: SGD(p, lr=0.1, weight_decay=1.0))
        # With decay λ=1 the optimum of (x-3)^2 + (λ/2)·2x^2-ish shifts below 3.
        assert final[0] < 3.0

    def test_rejects_bad_hyperparams(self):
        p = [Parameter(np.zeros(1))]
        with pytest.raises(ValueError):
            SGD(p, lr=0.0)
        with pytest.raises(ValueError):
            SGD(p, momentum=1.0)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_skips_params_without_grad(self):
        a, b = Parameter(np.ones(1)), Parameter(np.ones(1))
        opt = SGD([a, b], lr=0.1)
        (a * 2).backward(np.ones(1))
        opt.step()  # b has no grad; must not raise
        np.testing.assert_allclose(b.data, [1.0])
        assert a.data[0] < 1.0


class TestAdam:
    def test_converges_on_quadratic(self):
        final = quadratic_step(lambda p: Adam(p, lr=0.3))
        np.testing.assert_allclose(final, [3.0], atol=1e-2)

    def test_bias_correction_first_step_size(self):
        """First Adam step ≈ lr regardless of gradient scale."""
        for scale in (1e-3, 1.0, 1e3):
            x = Parameter(np.array([0.0]))
            opt = Adam([x], lr=0.1)
            (x * scale).backward(np.ones(1))
            opt.step()
            np.testing.assert_allclose(abs(x.data[0]), 0.1, rtol=1e-4)

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.9))

    def test_weight_decay_applied(self):
        x = Parameter(np.array([5.0]))
        opt = Adam([x], lr=0.1, weight_decay=1.0)
        # zero loss gradient; decay alone should shrink x
        x.grad = np.zeros(1)
        opt.step()
        assert x.data[0] < 5.0


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([0.1, 0.2, 0.2])
        norm = clip_grad_norm([p], 10.0)
        np.testing.assert_allclose(norm, np.sqrt(0.09))
        np.testing.assert_allclose(p.grad, [0.1, 0.2, 0.2])

    def test_clips_to_max_norm(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])  # norm 5
        clip_grad_norm([p], 1.0)
        np.testing.assert_allclose(np.linalg.norm(p.grad), 1.0)

    def test_global_norm_across_params(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        clip_grad_norm([a, b], 1.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        np.testing.assert_allclose(total, 1.0)

    def test_rejects_nonpositive_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([Parameter(np.zeros(1))], 0.0)

    def test_ignores_gradless_params(self):
        p = Parameter(np.zeros(1))
        assert clip_grad_norm([p], 1.0) == 0.0


class TestClipValidationOrder:
    def test_validates_max_norm_before_touching_grads(self):
        # A bad max_norm must fail before any norm arithmetic: the
        # parameter iterable is never consumed when validation trips.
        def never_consumed():
            raise AssertionError("norm computed before max_norm validation")
            yield  # pragma: no cover

        with pytest.raises(ValueError):
            clip_grad_norm(never_consumed(), -1.0)

    def test_short_circuits_when_no_param_has_grad(self):
        params = [Parameter(np.zeros(3)) for _ in range(4)]
        result = clip_grad_norm(params, 0.5)
        assert result == 0.0
        assert all(p.grad is None for p in params)


class TestSkippedParamCounter:
    """Lazy zero_grad makes None grads legal; skips must stay visible."""

    @pytest.fixture()
    def fresh_registry(self):
        from repro import obs
        from repro.obs import MetricsRegistry, get_registry, set_registry

        was_enabled = obs.is_enabled()
        obs.configure(enabled=True)
        previous = set_registry(MetricsRegistry())
        try:
            yield get_registry
        finally:
            set_registry(previous)
            obs.configure(enabled=was_enabled)

    @pytest.mark.parametrize(
        "factory",
        [lambda p: SGD(p, lr=0.1), lambda p: Adam(p, lr=0.1)],
        ids=["sgd", "adam"],
    )
    def test_counts_none_grad_params(self, factory, fresh_registry):
        a, b, c = (Parameter(np.ones(2)) for _ in range(3))
        opt = factory([a, b, c])
        a.grad = np.ones(2)  # b and c skipped
        opt.step()
        counters = fresh_registry().snapshot()["counters"]
        assert counters.get("train.params_skipped") == 2.0
        opt.zero_grad()
        a.grad = np.ones(2)
        b.grad = np.ones(2)
        opt.step()  # only c skipped this time
        counters = fresh_registry().snapshot()["counters"]
        assert counters.get("train.params_skipped") == 3.0


class TestStateAlignmentWithNoneGrads:
    """Optimiser per-parameter state (moments/velocity) must stay zipped
    to the parameter list when some grads are None — a skipped middle
    parameter must not shift its neighbours onto the wrong state."""

    @staticmethod
    def _drive(opt, a, c, steps=5):
        rng = np.random.default_rng(0)
        for _ in range(steps):
            a.grad = rng.normal(size=a.data.shape)
            c.grad = a.grad * 0.5
            opt.step()
            a.grad = None
            c.grad = None

    @pytest.mark.parametrize(
        "factory",
        [
            lambda p: SGD(p, lr=0.05, momentum=0.9),
            lambda p: Adam(p, lr=0.05),
        ],
        ids=["sgd-momentum", "adam"],
    )
    def test_middle_none_grad_does_not_shift_state(self, factory):
        # Reference run: only the two live parameters.
        a1, c1 = Parameter(np.ones(3)), Parameter(np.full(3, 2.0))
        ref = factory([a1, c1])
        self._drive(ref, a1, c1)

        # Same drive with a never-gradded parameter between them.
        a2, b2, c2 = (
            Parameter(np.ones(3)),
            Parameter(np.full(3, 7.0)),
            Parameter(np.full(3, 2.0)),
        )
        opt = factory([a2, b2, c2])
        self._drive(opt, a2, c2)

        np.testing.assert_array_equal(b2.data, np.full(3, 7.0))
        np.testing.assert_array_equal(a1.data, a2.data)
        np.testing.assert_array_equal(c1.data, c2.data)
