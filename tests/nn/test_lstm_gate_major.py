"""Bitwise pins for the gate-major, sign-folded inference LSTM.

:func:`repro.nn.lstm_forward_numpy` keeps its gates in ``(4, B, H)``
blocks and runs ``exp`` straight on projections whose σ columns carry a
folded −1 and whose candidate columns carry a folded −2.  Every step of
that rewrite is exact, so the forward must equal, bit for bit, the
row-major recurrence it replaced.  That recurrence is kept here, op for
op, as the oracle: ``[o, i, f, g]`` gate columns in one ``(B, 4H)`` row,
the candidate pre-doubled, ``σ(x) = 1 / (1 + exp(−x))`` in place over the
whole row, and the cell update on strided column slices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rowstable_matmul
from repro.nn import lstm_forward_numpy, prepare_lstm_weights

MATMULS = {"blas": None, "rowstable": rowstable_matmul}


def row_major_lstm_forward(x, weight_x, weight_h, bias, h0=None, c0=None,
                           matmul=None):
    """The row-major ``(B, 4H)`` inference recurrence, as it ran before the
    gate-major layout: returns ``(h_T, c_T)``."""
    batch, steps, _ = x.shape
    hidden = weight_h.shape[0]
    perm = np.concatenate([
        np.arange(3 * hidden, 4 * hidden),
        np.arange(0, 2 * hidden),
        np.arange(2 * hidden, 3 * hidden),
    ])
    wx_p, wh_p, b_p = weight_x[:, perm], weight_h[:, perm], bias[perm]
    wx_p[:, 3 * hidden:] *= 2.0
    wh_p[:, 3 * hidden:] *= 2.0
    b_p[3 * hidden:] *= 2.0
    x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
    if matmul is None:
        xw = np.matmul(x_tm.reshape(steps * batch, -1), wx_p).reshape(
            steps, batch, 4 * hidden
        )
    else:
        xw = matmul(x_tm, wx_p)
    xw += b_p
    h = np.array(h0, dtype=np.float64) if h0 is not None else np.zeros((batch, hidden))
    c = np.array(c0, dtype=np.float64) if c0 is not None else np.zeros((batch, hidden))
    gates = np.empty((batch, 4 * hidden))
    tanh_c = np.empty((batch, hidden))
    tmp = np.empty((batch, hidden))
    for t in range(steps):
        if matmul is None:
            np.matmul(h, wh_p, out=gates)
            gates += xw[t]
        else:
            np.add(matmul(h, wh_p), xw[t], out=gates)
        np.negative(gates, out=gates)
        np.exp(gates, out=gates)
        gates += 1.0
        np.reciprocal(gates, out=gates)
        g = gates[:, 3 * hidden:]
        g *= 2.0
        g -= 1.0
        c *= gates[:, 2 * hidden:3 * hidden]
        np.multiply(gates[:, hidden:2 * hidden], gates[:, 3 * hidden:], out=tmp)
        c += tmp
        np.tanh(c, out=tanh_c)
        np.multiply(gates[:, :hidden], tanh_c, out=h)
    return h, c


def random_lstm(rng, batch, steps, hidden, features, scale):
    x = rng.normal(size=(batch, steps, features)) * scale
    weight_x = rng.normal(size=(features, 4 * hidden))
    weight_h = rng.normal(size=(hidden, 4 * hidden))
    bias = rng.normal(size=4 * hidden)
    return x, weight_x, weight_h, bias


@settings(max_examples=80, deadline=None)
@given(
    batch=st.integers(1, 70),
    hidden=st.sampled_from([1, 3, 16]),
    steps=st.sampled_from([1, 25]),
    features=st.integers(1, 12),
    scale=st.sampled_from([0.1, 1.0, 8.0]),
    with_h0=st.booleans(),
    with_c0=st.booleans(),
    kernel=st.sampled_from(sorted(MATMULS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_bitwise_equals_row_major_recurrence(
    batch, hidden, steps, features, scale, with_h0, with_c0, kernel, seed
):
    rng = np.random.default_rng(seed)
    x, wx, wh, b = random_lstm(rng, batch, steps, hidden, features, scale)
    h0 = rng.normal(size=(batch, hidden)) if with_h0 else None
    c0 = rng.normal(size=(batch, hidden)) * scale if with_c0 else None
    matmul = MATMULS[kernel]
    want_h, want_c = row_major_lstm_forward(x, wx, wh, b, h0, c0, matmul=matmul)
    got_h, got_c = lstm_forward_numpy(
        x, wx, wh, b, h0, c0, matmul=matmul, return_state=True
    )
    assert np.array_equal(got_h, want_h)
    assert np.array_equal(got_c, want_c)
    assert np.array_equal(
        lstm_forward_numpy(x, wx, wh, b, h0, c0, matmul=matmul), want_h
    )


@pytest.mark.parametrize("hidden", [1, 3, 16])
def test_prepared_weights_are_exact_signed_scalings(hidden):
    # −1 on the σ gates [o, i, f], −2 on the candidate g: exact scalings of
    # the permuted columns, and the inputs are left untouched.
    rng = np.random.default_rng(hidden)
    _, wx, wh, b = random_lstm(rng, 1, 1, hidden, 4, 1.0)
    originals = [w.copy() for w in (wx, wh, b)]
    wx_p, wh_p, b_p = prepare_lstm_weights(wx, wh, b)
    gate = lambda w, k: w[..., k * hidden:(k + 1) * hidden]  # noqa: E731
    for src, dst in ((wx, wx_p), (wh, wh_p), (b, b_p)):
        for k_dst, k_src in enumerate((3, 0, 1)):  # o, i, f
            assert np.array_equal(gate(dst, k_dst), -gate(src, k_src))
        assert np.array_equal(gate(dst, 3), -2.0 * gate(src, 2))  # g
    for before, after in zip(originals, (wx, wh, b)):
        assert np.array_equal(before, after)
