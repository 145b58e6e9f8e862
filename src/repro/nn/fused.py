"""Fused fast path for the ``repro.nn`` training and inference hot loop.

The op-by-op LSTM in :mod:`repro.nn.lstm` records ~10 autograd nodes *per
timestep* (slice, two matmuls, four activations, two muls, one add), so a
40-frame collection window allocates hundreds of backward closures and
temporaries per sample per training step.  Continual Inference (Hedegaard &
Iosifidis, 2022) and Event Neural Networks (Dutson et al., 2022) both show
that restructuring recurrent computation to reuse state and skip redundant
per-step bookkeeping yields order-of-magnitude wins; this module applies the
same idea to the autograd graph itself:

* :func:`lstm_fused` — one custom autograd op for the whole
  ``(batch, time, features)`` sequence.  The forward pre-projects the input
  for all timesteps in a single GEMM, runs the recurrence with preallocated
  gate/activation workspaces, and registers **one** backward closure that
  performs hand-derived backpropagation-through-time (two batched GEMMs for
  the weight gradients instead of ``2·T`` graph nodes).
* :func:`lstm_forward_numpy` / :func:`gru_forward_numpy` — graph-free
  numpy forwards shared by the ``no_grad`` evaluation path
  (``Trainer.evaluate_loss``) and by
  :class:`repro.core.batched.BatchedInference` (which injects its
  row-stable matmul to keep batch-size invariance).
* :func:`fused_weighted_bce_sum` / :func:`fused_binary_cross_entropy` —
  the paper's L1/L2 cross-entropy kernels computed in raw numpy with a
  single backward closure, replacing the ~10-node ``log_safe``/mul/sum
  chains in :mod:`repro.nn.losses` and :mod:`repro.nn.functional`.

The fused path is the default.  The :class:`use_fused` context manager
restores the op-by-op reference graph;
``tests/nn/test_fused.py`` pins that both paths agree to ≤1e-10 on outputs
and gradients across shapes and seeds, that the fused op passes
finite-difference gradcheck, and that a full ``train_eventhit`` run follows
the same loss trajectory either way.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "fused_enabled",
    "use_fused",
    "lstm_fused",
    "lstm_forward_numpy",
    "prepare_lstm_weights",
    "gru_forward_numpy",
    "fused_weighted_bce_sum",
    "fused_binary_cross_entropy",
]

_EPS = 1e-12  # matches functional.log_safe's clip floor

#: Whether the fused path is on; only :class:`use_fused` changes it.
_ENABLED = True


def fused_enabled() -> bool:
    """Whether the fused fast path is active.

    Always on outside a ``use_fused(False)`` block, which restores the
    op-by-op reference graph for the equivalence tests.
    """
    return _ENABLED


class use_fused:
    """Context manager pinning the fused switch for its block."""

    def __init__(self, enabled: bool):
        self._enabled = bool(enabled)

    def __enter__(self) -> "use_fused":
        global _ENABLED
        self._prev = _ENABLED
        _ENABLED = self._enabled
        return self

    def __exit__(self, *exc) -> None:
        global _ENABLED
        _ENABLED = self._prev


# ----------------------------------------------------------------------
# Elementwise helpers (in-place, same formulas as Tensor.sigmoid/tanh)
# ----------------------------------------------------------------------
def _sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` computed in place, bitwise-matching
    ``Tensor.sigmoid``'s formula."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    return x


def _activate_gates_inplace(gates: np.ndarray, hidden: int) -> np.ndarray:
    """Apply [σ, σ, σ, tanh] to ``[o, i, f]``+``[g]`` ordered pre-activations.

    The sigmoid runs over the full contiguous ``(B, 4H)`` row — a strided
    3H sub-block costs ~3× as much per element because the split rows
    defeat SIMD — and the candidate gate is recovered from the identity
    ``tanh(x) = 2σ(2x) − 1`` with two cheap fix-up passes on its block
    (equal to ``np.tanh`` within float rounding).  The caller pre-scales
    the candidate gate's weight columns by 2 (exact: a power-of-two scale
    only bumps exponents), so the block arrives holding ``2x`` already.
    """
    g = gates[:, 3 * hidden :]
    _sigmoid_inplace(gates)
    g *= 2.0
    g -= 1.0
    return gates


def _gate_permutation(hidden: int) -> np.ndarray:
    """Column permutation mapping ``[i, f, g, o]`` weights to ``[o, i, f, g]``.

    Putting the output gate first keeps the three σ gates contiguous for
    the forward activation *and* groups the three gate gradients that scale
    with ``dc`` (input, forget, candidate) into one contiguous block the
    backward pass can fill with a single broadcast multiply.
    """
    return np.concatenate(
        [
            np.arange(3 * hidden, 4 * hidden),
            np.arange(0, 2 * hidden),
            np.arange(2 * hidden, 3 * hidden),
        ]
    )


class _Workspaces:
    """Per-shape free-list of float64 scratch buffers for the fused kernels.

    A fused BPTT step needs several multi-megabyte workspaces (saved
    activations, cell states, gate gradients).  Fresh ``np.empty`` blocks
    of that size are mmap'd and returned to the OS on free, so allocating
    them anew every step pays first-touch page faults for the whole
    workspace — measured at ~30% of the fused step cost at paper scale.
    Checking buffers out by shape and returning them when the backward
    closure finishes keeps the same pages hot across training steps.

    Contents are never assumed zeroed.  The pool is not thread-safe (the
    training loop, like the rest of ``repro.nn``, is single-threaded);
    buffers that are never returned (e.g. a forward whose graph is
    discarded without backward) are simply garbage-collected.
    """

    def __init__(self, max_bytes: int = 64 << 20):
        self._pool: dict = {}
        self._bytes = 0
        self.max_bytes = max_bytes

    def take(self, *shape: int) -> np.ndarray:
        stack = self._pool.get(shape)
        if stack:
            arr = stack.pop()
            self._bytes -= arr.nbytes
            return arr
        return np.empty(shape)

    def give(self, *arrays: np.ndarray) -> None:
        for arr in arrays:
            if self._bytes + arr.nbytes > self.max_bytes:
                continue
            self._pool.setdefault(arr.shape, []).append(arr)
            self._bytes += arr.nbytes


_workspaces = _Workspaces()


def _check_lstm_shapes(
    x: np.ndarray, weight_x: np.ndarray, weight_h: np.ndarray, bias: np.ndarray
) -> Tuple[int, int, int, int]:
    if x.ndim != 3:
        raise ValueError(f"expected (batch, time, features) input, got shape {x.shape}")
    batch, steps, features = x.shape
    if steps == 0:
        raise ValueError("cannot encode an empty sequence")
    hidden = weight_h.shape[0]
    if weight_x.shape != (features, 4 * hidden):
        raise ValueError(
            f"weight_x shape {weight_x.shape} incompatible with input "
            f"features {features} and hidden size {hidden}"
        )
    if weight_h.shape != (hidden, 4 * hidden):
        raise ValueError(f"weight_h must be (H, 4H), got {weight_h.shape}")
    if bias.shape != (4 * hidden,):
        raise ValueError(f"bias must be (4H,), got {bias.shape}")
    return batch, steps, features, hidden


# ----------------------------------------------------------------------
# Graph-free numpy forwards (no_grad inference path)
# ----------------------------------------------------------------------
#: Per-gate weight scale of the prepared inference weights, in the permuted
#: ``[o, i, f, g]`` order: −1 on the σ gates and −2 on the candidate.
_GATE_SIGNS = (-1.0, -1.0, -1.0, -2.0)


def prepare_lstm_weights(
    weight_x: np.ndarray, weight_h: np.ndarray, bias: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Permuted, sign-folded copies of the LSTM weights for inference.

    Gate columns are permuted ``[i, f, g, o]`` → ``[o, i, f, g]``; each
    output column of a product depends only on its own weight column, so
    the permuted GEMMs are bitwise the unpermuted ones element for element
    (this keeps an injected row-stable matmul's contraction order intact
    too).  The σ columns are then scaled by −1 and the candidate columns
    by −2.  Both scales are exact (a sign flip and a power of two) and
    IEEE rounding is sign-symmetric, so every projection arrives holding
    ``−x`` for the σ gates and ``−2x`` for the candidate, bit for bit:
    ``exp`` runs on it directly for ``σ(x) = 1 / (1 + exp(−x))``, and the
    candidate's ``tanh(x) = 2σ(2x) − 1``.

    :func:`lstm_forward_numpy` prepares once per call unless handed
    prepared weights; the serving engines prepare once per model bind
    and pass the result to every sequence forward and step.
    """
    hidden = weight_h.shape[0]
    perm = _gate_permutation(hidden)
    signs = np.repeat(_GATE_SIGNS, hidden)
    return weight_x[:, perm] * signs, weight_h[:, perm] * signs, bias[perm] * signs


class _GateMajorCell:
    """Buffers and in-place update of the inference LSTM cell, gate-major.

    :attr:`proj` is the row-major ``(B, 4H)`` pre-activation the caller
    fills each step (``h @ wh_p`` plus that step's input projection, on
    the sign-folded weights of :func:`prepare_lstm_weights`, so it holds
    ``[−o, −i, −f, −2g]``).  :meth:`update` copies it into a gate-major
    ``(4, B, H)`` block, where every gate is one contiguous ``(B, H)``
    array, and runs the cell there: on row-major column slices each
    gate op would be a strided pass costing about three contiguous ones.
    The cell state lives in ``pair[1]`` (:attr:`c`), next to a candidate
    slot ``pair[0]``, so one multiply forms both ``i ⊙ g`` and
    ``f ⊙ c_prev``.  All views are split once here, not per step.
    """

    __slots__ = ("proj", "c", "_proj_g", "_gates", "_pair", "_o", "_if",
                 "_g2", "_g", "_tanh_c")

    def __init__(self, c0: np.ndarray):
        batch, hidden = c0.shape
        self.proj = np.empty((batch, 4 * hidden))
        self._proj_g = self.proj.reshape(batch, 4, hidden).transpose(1, 0, 2)
        self._gates = gates = np.empty((4, batch, hidden))
        self._pair = pair = np.empty((2, batch, hidden))
        pair[1] = c0
        self.c = pair[1]
        self._g = pair[0]
        self._o, self._if, self._g2 = gates[0], gates[1:3], gates[3]
        self._tanh_c = np.empty((batch, hidden))

    def update(self, h: np.ndarray) -> None:
        """One cell step from :attr:`proj`; writes ``h`` and :attr:`c` in place."""
        gates, g, c = self._gates, self._g, self.c
        np.copyto(gates, self._proj_g)
        np.exp(gates, out=gates)
        gates += 1.0
        np.reciprocal(gates, out=gates)  # σ(o), σ(i), σ(f), σ(2g)
        np.multiply(self._g2, 2.0, out=g)
        g -= 1.0  # tanh(g) = 2σ(2g) − 1
        np.multiply(self._if, self._pair, out=self._pair)  # i ⊙ g, f ⊙ c_prev
        np.add(g, c, out=c)
        np.tanh(c, out=self._tanh_c)
        np.multiply(self._o, self._tanh_c, out=h)  # o ⊙ tanh(c)


def lstm_forward_numpy(
    x: np.ndarray,
    weight_x: np.ndarray,
    weight_h: np.ndarray,
    bias: np.ndarray,
    h0: Optional[np.ndarray] = None,
    c0: Optional[np.ndarray] = None,
    matmul=None,
    return_state: bool = False,
    prepared: bool = False,
) -> np.ndarray:
    """Run the whole LSTM sequence in raw numpy; returns ``h_T`` (B, H).

    The input projection for every timestep is hoisted into one matrix
    product on the prepared weights (:func:`prepare_lstm_weights`), so
    the per-step cost is one ``(B, H) @ (H, 4H)`` product, one add of that
    step's projection, and the gate-major cell update of
    :class:`_GateMajorCell`: a copy into ``(4, B, H)`` gate blocks and
    nine contiguous elementwise passes.  ``matmul`` lets
    :class:`~repro.core.batched.BatchedInference` inject its row-stable
    contraction (it must accept the 3-D input projection as well); the
    recurrence calls it as ``matmul(h, wh_p)`` every step.  The default
    uses BLAS.  The result is bitwise what the row-major
    ``σ(x) = 1 / (1 + exp(−x))`` recurrence on unscaled weights gives.

    ``return_state`` returns the full ``(h_T, c_T)`` state instead of just
    ``h_T``.

    ``prepared=True`` says the three weights already come from
    :func:`prepare_lstm_weights` (the serving engines cache them per
    bind), so the per-call preparation is skipped.
    """
    batch, steps, features, hidden = _check_lstm_shapes(x, weight_x, weight_h, bias)
    if prepared:
        wx_p, wh_p, b_p = weight_x, weight_h, bias
    else:
        wx_p, wh_p, b_p = prepare_lstm_weights(weight_x, weight_h, bias)
    # Time-major projection: per-step slices of ``xw`` are contiguous.
    if matmul is None:
        pooled = _workspaces.take(steps, batch, features)
        np.copyto(pooled, x.transpose(1, 0, 2))
        xw = _workspaces.take(steps, batch, 4 * hidden)
        np.matmul(
            pooled.reshape(steps * batch, features),
            wx_p,
            out=xw.reshape(steps * batch, 4 * hidden),
        )
    else:
        xw = matmul(np.ascontiguousarray(x.transpose(1, 0, 2)), wx_p)
    xw += b_p

    h = np.array(h0, dtype=np.float64) if h0 is not None else np.zeros((batch, hidden))
    cell = _GateMajorCell(c0 if c0 is not None else np.zeros((batch, hidden)))
    proj = cell.proj
    for t in range(steps):
        if matmul is None:
            np.matmul(h, wh_p, out=proj)
            proj += xw[t]
        else:
            np.add(matmul(h, wh_p), xw[t], out=proj)
        cell.update(h)
    if matmul is None:
        _workspaces.give(pooled, xw)
    if return_state:
        return h, cell.c
    return h


def gru_forward_numpy(
    x: np.ndarray,
    weight_x_gates: np.ndarray,
    weight_h_gates: np.ndarray,
    bias_gates: np.ndarray,
    weight_x_cand: np.ndarray,
    weight_h_cand: np.ndarray,
    bias_cand: np.ndarray,
    h0: Optional[np.ndarray] = None,
    matmul=None,
) -> np.ndarray:
    """Graph-free GRU sequence forward; returns ``h_T`` (B, H).

    Mirrors :class:`repro.nn.gru.GRUCell`'s math with the gate and
    candidate input projections hoisted out of the time loop.  Shared by
    the ``no_grad`` GRU path and the batched inference engine.
    """
    if x.ndim != 3:
        raise ValueError(f"expected (batch, time, features) input, got shape {x.shape}")
    batch, steps, features = x.shape
    if steps == 0:
        raise ValueError("cannot encode an empty sequence")
    hidden = weight_h_cand.shape[0]
    if matmul is None:
        flat = x.reshape(batch * steps, features)
        xg = (flat @ weight_x_gates).reshape(batch, steps, 2 * hidden)
        xc = (flat @ weight_x_cand).reshape(batch, steps, hidden)
        mm = np.matmul
    else:
        xg = matmul(x, weight_x_gates)
        xc = matmul(x, weight_x_cand)
        mm = matmul
    xg += bias_gates
    xc += bias_cand

    h = np.array(h0, dtype=np.float64) if h0 is not None else np.zeros((batch, hidden))
    for t in range(steps):
        gates = mm(h, weight_h_gates)
        gates += xg[:, t]
        _sigmoid_inplace(gates)
        r = gates[:, :hidden]
        z = gates[:, hidden:]
        candidate = mm(r * h, weight_h_cand)
        candidate += xc[:, t]
        np.tanh(candidate, out=candidate)
        h = (1.0 - z) * candidate + z * h
    return h


# ----------------------------------------------------------------------
# The fused LSTM autograd op
# ----------------------------------------------------------------------
def lstm_fused(
    sequence: Tensor,
    weight_x: Tensor,
    weight_h: Tensor,
    bias: Tensor,
    h0: Optional[Tensor] = None,
    c0: Optional[Tensor] = None,
) -> Tensor:
    """Whole-sequence LSTM forward with a single hand-derived BPTT closure.

    Equivalent to running :class:`repro.nn.lstm.LSTMCell` over every
    timestep (gate layout ``[input, forget, cell, output]``) but recorded
    as **one** node in the autograd graph.  The backward pass walks the
    saved activations in reverse, propagating ``dh``/``dc`` with one GEMM
    per step, then recovers the weight gradients with two batched GEMMs
    over the stacked per-step gate gradients:

    .. math::
        \\partial W_x = X^\\top \\, \\partial A, \\qquad
        \\partial W_h = H_{prev}^\\top \\, \\partial A, \\qquad
        \\partial b = \\textstyle\\sum \\partial A

    When gradients are disabled (or nothing requires grad) the op takes the
    lean :func:`lstm_forward_numpy` route and saves no workspaces at all.
    """
    seq = sequence if isinstance(sequence, Tensor) else Tensor(sequence)
    x = seq.data
    wx, wh, b = weight_x.data, weight_h.data, bias.data
    batch, steps, features, hidden = _check_lstm_shapes(x, wx, wh, b)

    parents = [seq, weight_x, weight_h, bias]
    h_init = h0.data if h0 is not None else None
    c_init = c0.data if c0 is not None else None
    if h0 is not None:
        parents.append(h0)
    if c0 is not None:
        parents.append(c0)

    need_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
    if not need_grad:
        return Tensor(lstm_forward_numpy(x, wx, wh, b, h_init, c_init))

    # Forward with saved workspaces.  Time-major layouts keep each
    # per-step slice contiguous so the recurrence can write in place.
    # Gate columns are permuted [i, f, g, o] → [o, i, f, g] (one copy per
    # call, not per step) so the sigmoid gates form one contiguous block
    # and the backward's dc-scaled gate gradients another; parameter
    # gradients are un-permuted on the way out.
    perm = _gate_permutation(hidden)
    wx_p = wx[:, perm]
    wh_p = wh[:, perm]
    b_p = b[perm]
    # Pre-double the candidate gate (tanh via 2σ(2x) − 1); ×2 is exact.
    # The backward uses unscaled weight copies, so gradients are w.r.t.
    # the canonical parameters.
    wx_p[:, 3 * hidden :] *= 2.0
    wh_p[:, 3 * hidden :] *= 2.0
    b_p[3 * hidden :] *= 2.0
    # Time-major input copy: per-step xw slices become contiguous, and the
    # same (T·B, F) view feeds the ∂W_x GEMM in the backward pass.  All
    # large workspaces come from (and return to) the buffer pool.
    x_tm3 = _workspaces.take(steps, batch, features)
    np.copyto(x_tm3, x.transpose(1, 0, 2))
    x_tm = x_tm3.reshape(steps * batch, features)
    xw = _workspaces.take(steps, batch, 4 * hidden)
    np.matmul(x_tm, wx_p, out=xw.reshape(steps * batch, 4 * hidden))
    xw += b_p
    acts = _workspaces.take(steps, batch, 4 * hidden)  # post-act [o, i, f, g]
    hs = _workspaces.take(steps + 1, batch, hidden)  # h_{-1} .. h_{T-1}
    cs = _workspaces.take(steps + 1, batch, hidden)  # c_{-1} .. c_{T-1}
    tanh_c = _workspaces.take(steps, batch, hidden)
    tmp = np.empty((batch, hidden))
    hs[0] = h_init if h_init is not None else 0.0
    cs[0] = c_init if c_init is not None else 0.0
    for t in range(steps):
        a = acts[t]
        np.matmul(hs[t], wh_p, out=a)
        a += xw[t]
        _activate_gates_inplace(a, hidden)
        c = cs[t + 1]
        np.multiply(a[:, 2 * hidden : 3 * hidden], cs[t], out=c)  # f ⊙ c_prev
        np.multiply(a[:, hidden : 2 * hidden], a[:, 3 * hidden :], out=tmp)  # i⊙g
        c += tmp
        np.tanh(c, out=tanh_c[t])
        np.multiply(a[:, :hidden], tanh_c[t], out=hs[t + 1])  # o ⊙ tanh(c)
    _workspaces.give(xw)
    h_out = hs[steps].copy()  # detach from the pooled buffer

    def backward(grad: np.ndarray) -> None:
        acts4 = acts.reshape(steps, batch, 4, hidden)
        o = acts4[:, :, 0]
        i = acts4[:, :, 1]
        f = acts4[:, :, 2]
        g = acts4[:, :, 3]
        # The gate-derivative factors depend only on saved activations, so
        # they vectorize across the whole (T, B, H) block up front (written
        # through out= chains to avoid expression temporaries).  ``gfac``
        # shares the activation layout: block 0 scales with dh, blocks 1–3
        # with dc, so the reverse recurrence fills all three dc gradients
        # with one broadcast multiply — three elementwise products, one
        # GEMM and one scale per step in total.
        prop = _workspaces.take(steps, batch, hidden)  # o⊙(1 − tanh²c): dh→dc
        np.multiply(tanh_c, tanh_c, out=prop)
        np.subtract(1.0, prop, out=prop)
        prop *= o
        gfac = _workspaces.take(steps, batch, 4, hidden)
        np.subtract(1.0, o, out=gfac[:, :, 0])  # o ⊙ (1 − o) ⊙ tanh c
        gfac[:, :, 0] *= o
        gfac[:, :, 0] *= tanh_c
        np.subtract(1.0, i, out=gfac[:, :, 1])  # i ⊙ (1 − i) ⊙ g
        gfac[:, :, 1] *= i
        gfac[:, :, 1] *= g
        np.subtract(1.0, f, out=gfac[:, :, 2])  # f ⊙ (1 − f) ⊙ c_prev
        gfac[:, :, 2] *= f
        gfac[:, :, 2] *= cs[:steps]
        np.multiply(g, g, out=gfac[:, :, 3])  # (1 − g²) ⊙ i
        np.subtract(1.0, gfac[:, :, 3], out=gfac[:, :, 3])
        gfac[:, :, 3] *= i
        # ``gfac`` doubles as the gate-gradient workspace: the per-step
        # multiplies scale it in place, so no separate d_acts buffer (or
        # its memory traffic) exists.  Gradients are w.r.t. the canonical
        # parameters, so the GEMMs here use unscaled weight copies.
        gfac_rows = gfac.reshape(steps, batch, 4 * hidden)
        dh = np.array(grad, dtype=np.float64)
        dc = np.zeros((batch, hidden))
        carry = np.empty((batch, hidden))
        wh_pt = np.ascontiguousarray(wh[:, perm].T)
        for t in range(steps - 1, -1, -1):
            np.multiply(dh, prop[t], out=carry)
            dc += carry
            gfac[t, :, 0] *= dh
            gfac[t, :, 1:] *= dc[:, None, :]
            np.matmul(gfac_rows[t], wh_pt, out=dh)
            dc *= f[t]
        d_flat = gfac_rows.reshape(steps * batch, 4 * hidden)
        if seq.requires_grad:
            dx = (d_flat @ wx[:, perm].T).reshape(steps, batch, features)
            seq._accumulate(dx.transpose(1, 0, 2), copy=False)
        if weight_x.requires_grad:
            dwx = np.empty_like(wx)
            dwx[:, perm] = x_tm.T @ d_flat
            weight_x._accumulate(dwx, copy=False)
        if weight_h.requires_grad:
            h_tm = hs[:steps].reshape(steps * batch, hidden)
            dwh = np.empty_like(wh)
            dwh[:, perm] = h_tm.T @ d_flat
            weight_h._accumulate(dwh, copy=False)
        if bias.requires_grad:
            db = np.empty_like(b)
            db[perm] = d_flat.sum(axis=0)
            bias._accumulate(db, copy=False)
        if h0 is not None and h0.requires_grad:
            h0._accumulate(dh, copy=False)
        if c0 is not None and c0.requires_grad:
            c0._accumulate(dc, copy=False)
        _workspaces.give(x_tm3, acts, hs, cs, tanh_c, prop, gfac)

    return Tensor._make(h_out, tuple(parents), backward)


# ----------------------------------------------------------------------
# Fused loss kernels
# ----------------------------------------------------------------------
def fused_weighted_bce_sum(
    prediction: Tensor,
    target: np.ndarray,
    weight: np.ndarray,
    scale: float = 1.0,
) -> Tensor:
    """``scale · Σ w ⊙ BCE(p, t)`` as one autograd node.

    The elementwise forward matches the reference
    ``-(t·log_safe(p) + (1-t)·log_safe(1-p))`` chain bit-for-bit (same
    clip-then-log formulas); the single backward closure applies the
    clip masks analytically instead of replaying ~10 recorded nodes.
    Both the paper's L1 (``weight = β_k / |P|``) and L2
    (``weight = γ_k · interval_weights / |P|``) reduce to this kernel.
    """
    p = prediction.data
    target = np.asarray(target, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    p_clip = np.clip(p, _EPS, 1.0)
    q = 1.0 - p
    q_clip = np.clip(q, _EPS, 1.0)
    per_element = -(target * np.log(p_clip) + (1.0 - target) * np.log(q_clip))
    value = (per_element * weight).sum() * scale

    def backward(grad: np.ndarray) -> None:
        if not prediction.requires_grad:
            return
        p_mask = (p >= _EPS) & (p <= 1.0)
        q_mask = (q >= _EPS) & (q <= 1.0)
        d = -(target * p_mask / p_clip - (1.0 - target) * q_mask / q_clip)
        d *= weight * (float(grad) * scale)
        prediction._accumulate(d, copy=False)

    return Tensor._make(np.asarray(value), (prediction,), backward)


def fused_binary_cross_entropy(
    prediction: Tensor,
    target: np.ndarray,
    weight: Optional[np.ndarray] = None,
    reduction: str = "mean",
) -> Tensor:
    """Elementwise BCE with one backward closure (fused ``F.binary_cross_entropy``).

    Shape/argument validation lives in the caller
    (:func:`repro.nn.functional.binary_cross_entropy`); this kernel only
    does the math.
    """
    p = prediction.data
    target = np.asarray(target, dtype=np.float64)
    p_clip = np.clip(p, _EPS, 1.0)
    q = 1.0 - p
    q_clip = np.clip(q, _EPS, 1.0)
    loss = -(target * np.log(p_clip) + (1.0 - target) * np.log(q_clip))
    if weight is not None:
        weight = np.asarray(weight, dtype=np.float64)
        loss = loss * weight
    if reduction == "mean":
        value = np.asarray(loss.sum() * (1.0 / loss.size))
    elif reduction == "sum":
        value = np.asarray(loss.sum())
    else:  # "none"
        value = loss

    def backward(grad: np.ndarray) -> None:
        if not prediction.requires_grad:
            return
        p_mask = (p >= _EPS) & (p <= 1.0)
        q_mask = (q >= _EPS) & (q <= 1.0)
        d = -(target * p_mask / p_clip - (1.0 - target) * q_mask / q_clip)
        if weight is not None:
            d *= weight
        if reduction == "mean":
            d *= float(grad) * (1.0 / loss.size)
        elif reduction == "sum":
            d *= float(grad)
        else:
            d *= grad
        prediction._accumulate(d, copy=False)

    return Tensor._make(value, (prediction,), backward)
