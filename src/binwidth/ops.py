"""Dense tensor kernels: forward passes with exact hand-written backwards.

Conventions
-----------
* 4-D tensors are NCHW, fully-connected inputs are [N, D].
* Production code runs in float32; every kernel also works in float64 so
  that finite-difference checks can use higher-precision accumulation.
* Convolution is cross-correlation (no kernel flip). Output sizes use
  floor division: Hout = (H + 2*pad - kh) // stride + 1.
* `*_forward` returns (output, ctx); the matching `*_backward` consumes
  ctx and the upstream gradient and returns exact gradients of the
  forward map. A ctx may hold the forward's input itself, not a copy, so
  that input must not be written to before the backward pass.
* Convolution streams over the batch: it builds the im2col patch matrix
  of one chunk of samples at a time, so the matrix stays in a core's L2
  cache and no whole-batch patch matrix is ever live. A padded conv pads
  each chunk in its lane's buffer, whose border is zeroed once, so no
  padded copy of the batch is made either. Its ctx holds the input, from
  which the backward pass pads each chunk again and rebuilds its patch
  matrix. Batch norm and the activation quantizer (`quant`) run over
  batch chunks the same way. Batch norm runs [N, D] features as
  [N, D, 1, 1] planes and keeps whole-array sums only for an input of one
  chunk, of one channel, or not C-contiguous (`_by_batch`). Eval-mode
  batch norm normalizes into its output, allocates nothing else of the
  input's size and keeps no ctx: its backward pass is for the train-mode map.
* `_on_lanes` makes every chunk: each holds at most CHUNK_BYTES (one
  sample at least). An array that fits in one chunk
  runs in the calling thread; otherwise the chunk count is a multiple of
  the lane count and chunk sizes differ by one sample at most.
* The chunks run on lanes: the calling thread and one helper thread per
  further CPU in the process's affinity mask (`taskset` bounds them).
  Chunk i goes to lane i mod k. Each chunk writes only its own slices of
  the outputs, and every sum across chunks is taken in the calling
  thread, so every bit is the same at any lane count: the conv's weight
  gradient is one sum over per-sample partials, and batch norm's
  per-channel sums add per-(sample, channel) row sums with `sum(axis=0)`,
  which adds them in the order of the whole-array `sum(axis=(0, 2, 3))`.
  The calling thread allocates every output and every lane's scratch
  buffer before it dispatches, so helpers allocate no full-size array
  (per-thread malloc arenas would otherwise keep the helpers' freed
  temporaries resident). Helpers run in the caller's `contextvars`
  context, so `np.errstate` holds on every lane. With more than one lane,
  BLAS runs one thread; a forked child starts its own helpers, and
  `use_one_core` sets a process to one lane.
"""

import concurrent.futures
import contextvars
import ctypes
import glob
import math
import os

import numpy as np

from .errors import InputError, ShapeError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# Bytes per batch chunk of a kernel's per-sample data (a conv's patch matrix,
# a batch norm's or quantizer's input): one core's 2 MiB L2. In the conv sweep recorded
# in BENCH_conv.json, budgets from 128 KiB to 8 MiB ran within about 10% of
# each other, and one whole-batch chunk ran up to 80% slower.
CHUNK_BYTES = 2 << 20


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    if size + 2 * pad < k:
        raise ShapeError(f"window {k} exceeds padded input extent {size + 2 * pad}")
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ShapeError(f"non-positive output extent for size={size}, k={k}, stride={stride}, pad={pad}")
    return out


def _pad_buffer(x: np.ndarray, size: int, pad: int, fill: float) -> np.ndarray | None:
    """One lane's buffer for `_padded`: `fill` (0 for a conv, -inf for a
    max-pool) in shape [size, C, H+2p, W+2p], or None when pad is 0."""
    _, c, h, w = x.shape
    return np.full((size, c, h + 2 * pad, w + 2 * pad), fill, x.dtype) if pad else None


def _padded(x: np.ndarray, chunk: slice, pad: int, buf: np.ndarray | None) -> np.ndarray:
    """x[chunk] with `pad` fill values around each plane: the chunk copied into
    the interior of buf, whose border keeps its fill (x[chunk] if pad is 0)."""
    if buf is None:
        return x[chunk]
    x_pad = buf[: chunk.stop - chunk.start]
    x_pad[:, :, pad:-pad, pad:-pad] = x[chunk]
    return x_pad


def _im2col(x_pad: np.ndarray, kh: int, kw: int, stride: int, hout: int, wout: int, buf: np.ndarray) -> np.ndarray:
    """[N,C,Hp,Wp] -> [N, C*kh*kw, hout*wout] patch matrix, copied into the first N rows of buf."""
    n, c, _, _ = x_pad.shape
    sn, sc, sh, sw = x_pad.strides
    patches = np.lib.stride_tricks.as_strided(
        x_pad,
        shape=(n, c, kh, kw, hout, wout),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    cols = buf[:n]
    np.copyto(cols.reshape(patches.shape), patches)
    return cols


def _windows(a: np.ndarray, kh: int, kw: int, stride: int, hout: int, wout: int) -> list[np.ndarray]:
    """The kh*kw strided [N,C,hout,wout] views of a, window offsets in row-major order."""
    return [a[:, :, i : i + stride * hout : stride, j : j + stride * wout : stride]
            for i in range(kh) for j in range(kw)]


def _col2im_add(cols: np.ndarray, gx_pad: np.ndarray, kh: int, kw: int, stride: int, hout: int, wout: int) -> None:
    """Scatter-add the inverse of `_im2col` into gx_pad, window offsets in row-major order."""
    n, c = gx_pad.shape[:2]
    cols = cols.reshape(n, c, kh * kw, hout, wout)
    for t, view in enumerate(_windows(gx_pad, kh, kw, stride, hout, wout)):
        view += cols[:, :, t]


# Lanes a kernel runs its chunks on; None is one per CPU in the affinity
# mask, read at each call. `use_one_core` sets it to 1.
_lanes: int | None = None
# (helper count, executor) once a kernel has run on more than one lane. The
# count is the lane cap less one, so a kernel's chunk count never rebuilds it.
_helpers: tuple[int, concurrent.futures.ThreadPoolExecutor] | None = None


def usable_cpus() -> int:
    """CPUs in this process's affinity mask (`taskset` restricts it), or 1
    where the platform lacks the affinity call."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def use_one_core() -> None:
    """Compute on one lane with one BLAS thread from now on: a process
    that shares the CPUs with its siblings, such as a search pool worker."""
    global _lanes
    _lanes = 1
    _one_blas_thread()


def _one_blas_thread() -> None:
    """Set the OpenBLAS bundled with numpy's Linux wheels to one thread;
    other BLAS builds take their thread count from OPENBLAS_NUM_THREADS
    or OMP_NUM_THREADS at start-up."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol)(1)
                return


def _helper_pool(count: int) -> concurrent.futures.ThreadPoolExecutor:
    """The executor of `count` helper threads, started at first use. The
    lanes keep every CPU busy, so BLAS drops to one thread first."""
    global _helpers
    if _helpers is None or _helpers[0] != count:
        if _helpers is not None:
            _helpers[1].shutdown(wait=False)
        _one_blas_thread()
        _helpers = (count, concurrent.futures.ThreadPoolExecutor(count, thread_name_prefix="binwidth-lane"))
    return _helpers[1]


def _drop_helpers() -> None:
    # A forked child inherits the executor but none of its threads; work
    # submitted to it would wait forever.
    global _helpers
    _helpers = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helpers)


def _chunk_bounds(n: int, sample_bytes: int, lanes: int) -> list[int]:
    """Bounds of the chunks of n samples: the fewest chunks of at most
    CHUNK_BYTES (one sample at least) if that is one, else the least
    multiple of `lanes` at least that many (n at most), sizes within one
    sample."""
    count = -(-n // max(1, CHUNK_BYTES // max(1, sample_bytes)))
    if count > 1:
        count = min(n, -(-count // lanes) * lanes)
    return [i * n // count for i in range(count + 1)]


def _on_lanes(work, n: int, sample_bytes: int, buffers=lambda size: ()) -> None:
    """Call work(chunk, *buffers) for each batch chunk (a slice) of n
    samples of `sample_bytes` each, chunk i on lane i mod k
    (`_chunk_bounds` makes the chunks). `buffers(size)` makes one lane's
    scratch arrays for chunks of up to `size` samples; it is called here,
    in the calling thread, once per lane."""
    if n == 0:
        return
    cap = _lanes or usable_cpus()
    bounds = _chunk_bounds(n, sample_bytes, cap)
    chunks = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    lanes = min(cap, len(chunks))
    lane_buffers = [buffers(-(-n // len(chunks))) for _ in range(lanes)]

    def lane(i: int) -> None:
        for chunk in chunks[i::lanes]:
            work(chunk, *lane_buffers[i])

    if lanes == 1:
        lane(0)
        return
    pool = _helper_pool(cap - 1)
    futures = [pool.submit(contextvars.copy_context().run, lane, i) for i in range(1, lanes)]
    try:
        lane(0)
    finally:
        concurrent.futures.wait(futures)
    for future in futures:
        future.result()


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0):
    """Cross-correlate x [N,Cin,H,W] with w [Cout,Cin,kh,kw], one batch chunk at a time.

    Each chunk is padded in its lane's buffer just before its patch matrix
    is built, so no padded copy of the whole batch is made; ctx holds x
    itself, from which the backward pass pads each chunk again. Each
    sample's output is the same matmul as over the whole batch at once, so
    neither the chunking nor the lanes change a bit.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and weight, got {x.shape} and {w.shape}")
    n, cin, h, wid = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"input channels {cin} != weight in-channels {cin_w}")
    hout = _out_size(h, kh, stride, pad)
    wout = _out_size(wid, kw, stride, pad)

    wmat = w.reshape(cout, -1)
    out = np.empty((n, cout, hout * wout), dtype=np.result_type(x, w))

    def run(chunk, cols, x_pad):
        np.matmul(wmat, _im2col(_padded(x, chunk, pad, x_pad), kh, kw, stride, hout, wout, cols), out=out[chunk])

    patch = (cin * kh * kw, hout * wout)
    _on_lanes(run, n, math.prod(patch) * x.itemsize,
              lambda size: (np.empty((size, *patch), x.dtype), _pad_buffer(x, size, pad, 0)))
    return out.reshape(n, cout, hout, wout), (x, w, stride, pad, hout, wout)


def conv2d_backward(ctx, gout: np.ndarray):
    """Gradients (gx, gw) of conv2d_forward, one batch chunk at a time.

    Each chunk's patch matrix is rebuilt from x, padded in the lane's
    buffer as in the forward pass. The per-sample weight-gradient partials
    fill one [N, Cout, Cin*kh*kw] buffer chunk by chunk, and a single
    `sum(axis=0)` over it adds them as over the whole batch at once, so gw
    keeps its bits as well.
    """
    x, w, stride, pad, hout, wout = ctx
    n, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    go = gout.reshape(n, cout, hout * wout)
    wmat_t = w.reshape(cout, -1).T
    gx_pad = np.zeros((n, cin, h + 2 * pad, wid + 2 * pad), dtype=np.result_type(gout, w))
    parts = np.empty((n, cout, cin * kh * kw), dtype=np.result_type(gout, x))

    def run(chunk, cols, gcols, x_pad):
        cols = _im2col(_padded(x, chunk, pad, x_pad), kh, kw, stride, hout, wout, cols)
        np.matmul(go[chunk], cols.transpose(0, 2, 1), out=parts[chunk])
        gcols = np.matmul(wmat_t, go[chunk], out=gcols[: len(cols)])
        _col2im_add(gcols, gx_pad[chunk], kh, kw, stride, hout, wout)

    patch = (cin * kh * kw, hout * wout)
    _on_lanes(run, n, math.prod(patch) * x.itemsize,
              lambda size: (np.empty((size, *patch), x.dtype), np.empty((size, *patch), np.result_type(w, go)),
                            _pad_buffer(x, size, pad, 0)))
    gx = gx_pad[:, :, pad : pad + h, pad : pad + wid]
    return gx, parts.sum(axis=0).reshape(w.shape)


def fully_connected_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Affine map x [N,D] @ w [D,M] + b [M]."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"fully_connected expects 2-D input and weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"inner dims disagree: input {x.shape} vs weight {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"bias shape {b.shape} != ({w.shape[1]},)")
    return x @ w + b, (x, w)


def fully_connected_backward(ctx, gout: np.ndarray):
    x, w = ctx
    gx = gout @ w.T
    gw = x.T @ gout
    gb = gout.sum(axis=0)
    return gx, gw, gb


def _planes(a: np.ndarray) -> np.ndarray:
    """a as [N,C,H,W] planes: [N,C] features are the 1x1 case."""
    if a.ndim == 2:
        return a.reshape(*a.shape, 1, 1)
    if a.ndim != 4:
        raise ShapeError(f"batch_norm expects 2-D or 4-D input, got {a.shape}")
    return a


def _by_batch(x: np.ndarray, work, sums=(), scratch=None) -> list[np.ndarray]:
    """Run work(b, put, tmp) over batch chunks b (slices) of x's shape and
    return the per-channel sums it puts, one per dtype in `sums`.

    work computes on the [b] slices of its arrays alone. put(i, a) records
    sum i of a, an [len(b), C, H, W] block of dtype sums[i], over every
    axis but the channel's. tmp is a scratch array like x[b] of dtype
    `scratch`, or None.

    A C-contiguous x [N,C,H,W] of more than one chunk (CHUNK_BYTES) and two
    channels or more runs on lanes: put writes a's per-(sample, channel)
    sums into an [N, C] array, which this thread reduces with
    `sum(axis=0)`, adding them as the whole-array `sum(axis=(0, 2, 3))`
    does. An x of one chunk, of one channel, or not C-contiguous runs in one
    call with whole-array sums: numpy sums a one-channel x pairwise over
    the whole block, and other layouts in another order.
    """
    n, c = x.shape[:2]
    if not (c > 1 and x.nbytes > CHUNK_BYTES and x.flags.c_contiguous):
        out = [None] * len(sums)

        def put(i, a):
            out[i] = a.sum(axis=(0, 2, 3))

        work(slice(None), put, None if scratch is None else np.empty_like(x, scratch))
        return out
    rows = [np.empty((n, c), dtype) for dtype in sums]

    def run(b, tmp=None):
        work(b, lambda i, a: a.sum(axis=(2, 3), out=rows[i][b]), None if tmp is None else tmp[: b.stop - b.start])

    _on_lanes(run, n, x.nbytes // n,
              lambda size: () if scratch is None else (np.empty((size, *x.shape[1:]), scratch),))
    return [r.sum(axis=0) for r in rows]


def _bn_reshape(v: np.ndarray) -> np.ndarray:
    return v.reshape(1, -1, 1, 1)


def batch_norm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    train: bool,
):
    """Batch normalization over batch chunks, per channel over the batch
    and every position: [N,C] features run as [N,C,1,1] planes, and the
    output has x's shape. Train mode updates running stats in place.

    Normalization uses the biased batch variance; the running variance is
    updated with the unbiased estimate (the dominant framework convention).
    The statistics follow np.mean's and np.var's own steps, so they have
    their bits. Train mode keeps the normalized input xhat for the backward
    pass; eval mode builds it with the same steps chunk by chunk in the
    output itself and keeps no ctx (None), as a network keeps none from an
    eval-mode forward.
    """
    shape, x = x.shape, _planes(x)
    n, c, h, w = x.shape
    m = n * h * w
    for name, arr in (("gamma", gamma), ("beta", beta), ("running_mean", running_mean), ("running_var", running_var)):
        if arr.shape != (c,):
            raise ShapeError(f"{name} shape {arr.shape} != ({c},) for input {shape}")
    if train:
        (total,) = _by_batch(x, lambda b, put, tmp: put(0, x[b]), (x.dtype,))
        mean = _bn_reshape(total / m)
        xhat = np.empty_like(x, np.result_type(x, mean))  # centred first, scaled in place below

        def centre(b, put, tmp):
            np.subtract(x[b], mean, out=xhat[b])
            put(0, np.square(xhat[b], out=tmp))

        (squares,) = _by_batch(x, centre, (xhat.dtype,), xhat.dtype)
        var = squares / m
        running_var *= 1 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var * (m / (m - 1)) if m > 1 else BN_MOMENTUM * var
        running_mean *= 1 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean.reshape(c)
    else:
        mean, var = _bn_reshape(running_mean), running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale, g, bias = (_bn_reshape(v) for v in (inv_std, gamma, beta))
    out = np.empty_like(x, np.result_type(g, x, mean))

    def normalize(b, put, tmp):
        t = xhat[b] if train else np.subtract(x[b], mean, out=out[b])
        t *= scale
        np.multiply(g, t, out=out[b])
        out[b] += bias

    _by_batch(x, normalize)
    return out.astype(x.dtype, copy=False).reshape(shape), (xhat, gamma, inv_std, m) if train else None


def batch_norm_backward(ctx, gout: np.ndarray):
    """Gradients (gx, ggamma, gbeta) of the train-mode map, over batch
    chunks; ctx is a train-mode forward's, and gx has gout's shape."""
    xhat, gamma, inv_std, m = ctx
    shape, gout = gout.shape, _planes(gout)
    g, scale = _bn_reshape(gamma), _bn_reshape(inv_std)
    gx = np.empty_like(gout, np.result_type(gout, g))  # d/dxhat, turned into d/dx in place
    tmp_dtype = np.result_type(gout, xhat)

    def grads(b, put, tmp):
        put(0, np.multiply(gout[b], xhat[b], out=tmp))
        put(1, gout[b])
        np.multiply(gout[b], g, out=gx[b])
        put(2, gx[b])
        put(3, np.multiply(gx[b], xhat[b], out=tmp))

    sums = (tmp_dtype, gout.dtype, gx.dtype, tmp_dtype)
    ggamma, gbeta, *totals = _by_batch(gout, grads, sums, tmp_dtype)
    # d/dx of (x - mean)/sqrt(var + eps) with batch mean/var as functions of x
    mean_g, proj = (_bn_reshape(total / m) for total in totals)

    def centre(b, put, tmp):
        gx[b] -= mean_g
        gx[b] -= np.multiply(xhat[b], proj, out=tmp)
        gx[b] *= scale

    _by_batch(gout, centre, (), tmp_dtype)
    return gx.astype(gout.dtype, copy=False).reshape(shape), ggamma, gbeta


def max_pool2d_forward(x: np.ndarray, k: int, stride: int, pad: int = 0):
    """Max over k*k windows, as a running maximum over the k*k window offsets.

    ctx holds the -inf padded input and the output themselves, not copies
    (neither may be written to before the backward pass), and the backward
    pass finds each window's maximum from them.
    """
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d expects 4-D input, got {x.shape}")
    n, _, h, w = x.shape
    hout = _out_size(h, k, stride, pad)
    wout = _out_size(w, k, stride, pad)
    x_eff = _padded(x, slice(0, n), pad, _pad_buffer(x, n, pad, -np.inf))
    views = _windows(x_eff, k, k, stride, hout, wout)
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(view, out, out=out)  # an equal value keeps the earlier one (its sign of zero)
    return out, (x_eff, out, k, stride, pad)


def max_pool2d_backward(ctx, gout: np.ndarray) -> np.ndarray:
    """Routes each window's gradient to its first maximum in row-major order (the tie rule)."""
    x_eff, out, k, stride, pad = ctx
    hout, wout = out.shape[2:]
    gx_pad = np.zeros(x_eff.shape, dtype=gout.dtype)
    free = np.ones(out.shape, dtype=bool)  # windows whose first maximum is still unseen
    hits = []
    for view in _windows(x_eff, k, k, stride, hout, wout):
        hits.append((view == out) & free)
        free ^= hits[-1]
    # Offsets in reverse row-major order add the windows that overlap on an
    # input in row-major window order, the summation order the tests pin.
    for gview, hit in zip(_windows(gx_pad, k, k, stride, hout, wout)[::-1], hits[::-1]):
        gview += gout * hit
    return gx_pad[:, :, pad : gx_pad.shape[2] - pad, pad : gx_pad.shape[3] - pad]


def global_avg_pool_forward(x: np.ndarray):
    """[N,C,H,W] -> [N,C] spatial mean."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4-D input, got {x.shape}")
    return x.mean(axis=(2, 3)), x.shape


def global_avg_pool_backward(ctx, gout: np.ndarray) -> np.ndarray:
    n, c, h, w = ctx
    return np.broadcast_to(gout[:, :, None, None] / (h * w), (n, c, h, w)).astype(gout.dtype, copy=False)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its gradient w.r.t. logits.

    Numerically stabilized by per-row max subtraction. The gradient is
    (softmax - onehot) / N.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be [N,K], got {logits.shape}")
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise InputError(f"labels must lie in [0, {k}), got range [{labels.min()}, {labels.max()}]")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    loss = float(-log_probs[rows, labels].mean())
    grad = probs
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype, copy=False)
