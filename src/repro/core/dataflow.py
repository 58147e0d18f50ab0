"""Dataflow execution: gather-matmul-scatter and fetch-on-demand.

Numerics here are exact NumPy; latency comes from the transaction model
(:mod:`repro.gpu.memory`) and the GEMM model (:mod:`repro.gpu.gemm`).

Access-order modeling (Figure 9).  Each movement kernel has a *point
side* (rows of the feature tensors, indexed by the map) and a *buffer
side* (the staging matrices fed to GEMM):

* **weight-stationary** (baseline): the point side is visited in map
  order — every index is unique within one offset, so there is no reuse
  and the row accesses are random (``RANDOM_ROW_EFF``); the buffer side
  streams.
* **locality-aware** (TorchSparse): gather walks inputs in
  input-stationary order (each input row read from DRAM exactly once,
  fanned out from registers) and scatter walks outputs in
  output-stationary order (partials reduced in registers, each output
  row written once).  The point side becomes streaming; the buffer side
  becomes random.

The row *counts* therefore change from ``|M|`` to ``N`` on the point
side — that, plus which side eats the random-access penalty, reproduces
the paper's Table 3 ladder.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.grouping import GroupingPlan
from repro.gpu.device import GPUSpec
from repro.gpu.gemm import bmm_cost, mm_cost, record_gemm_cost, sequential_cost
from repro.gpu.memory import (
    DType,
    MemoryAccessPattern,
    movement_time,
    record_traffic,
    traffic,
)
from repro.gpu.timeline import KernelRecord, Profile
from repro.mapping.kmap import KernelMap
from repro.obs.metrics import get_registry
from repro.robust.faults import (
    get_injector,
    maybe_bitflip_features,
    maybe_bitflip_weights,
    maybe_inject_matmul_nan,
)

#: Transaction efficiency of row-granular random access (rows usually
#: shorter than / unaligned to 128-byte transactions).
RANDOM_ROW_EFF = 0.75

#: Efficiency penalty on the scatter buffer when gathers/scatters are
#: interleaved per offset (unfused): the cache keeps evicting the buffer
#: type it is about to need (Figure 9a discussion).
UNFUSED_BUFFER_EFF = 0.92

#: Compute efficiency of the fetch-on-demand dataflow *relative to a
#: tiled GEMM at the same occupancy*: the multiply runs as per-entry dot
#: products on CUDA cores with no staging/tiling reuse and no
#: tensor-core path.  The occupancy factor itself is applied separately,
#: which is what produces the small/large-workload crossover: at tiny
#: sizes both paths are occupancy-bound and skipping the staging
#: buffers wins; at scale the tiled GEMM pulls ahead.
FETCH_ON_DEMAND_EFF = 0.45


@dataclass(frozen=True)
class MovementConfig:
    """Data-movement optimization switches (Table 3's four columns)."""

    dtype: DType = DType.FP32
    vectorized: bool = False
    fused: bool = False
    locality_aware: bool = False

    @property
    def pattern(self) -> MemoryAccessPattern:
        if self.vectorized and self.dtype is not DType.FP32:
            return MemoryAccessPattern.VECTORIZED
        return MemoryAccessPattern.SCALAR


def _non_center_offsets(kmap: KernelMap, skip_center: bool) -> list:
    center = kmap.center_index if skip_center else None
    return [
        n
        for n in range(kmap.volume)
        if n != center and len(kmap.in_indices[n]) > 0
    ]


def gather_record(
    kmap: KernelMap,
    c_in: int,
    cfg: MovementConfig,
    device: GPUSpec,
    skip_center: bool,
    emit: bool = False,
) -> KernelRecord:
    """Price the gather stage of one layer.

    ``emit`` publishes the traffic to the metrics registry; execution
    paths set it, cost probes (dispatch comparisons) leave it off.
    """
    offsets = _non_center_offsets(kmap, skip_center)
    total = int(sum(len(kmap.in_indices[n]) for n in offsets))
    dtype = _movement_dtype(cfg.dtype, "gather")
    if cfg.locality_aware:
        # input-stationary: each input row read once (streaming), buffer
        # writes land at neighbor positions (random)
        reads = traffic(kmap.n_in, c_in, dtype, cfg.pattern)
        writes = traffic(total, c_in, dtype, cfg.pattern)
        t = movement_time(reads, device.dram_bandwidth) + movement_time(
            writes, device.dram_bandwidth
        ) / RANDOM_ROW_EFF
    else:
        # weight-stationary: random point-side reads, streaming buffer writes
        reads = traffic(total, c_in, dtype, cfg.pattern)
        writes = traffic(total, c_in, dtype, cfg.pattern)
        t = (
            movement_time(reads, device.dram_bandwidth) / RANDOM_ROW_EFF
            + movement_time(writes, device.dram_bandwidth)
        )
    launches = 1 if cfg.fused else max(1, len(offsets))
    t += launches * device.launch_overhead
    if emit:
        record_traffic(reads, "gather")
        record_traffic(writes, "gather")
    return KernelRecord(
        name="gather",
        stage="gather",
        time=t,
        bytes_moved=reads.bytes_moved + writes.bytes_moved,
        launches=launches,
    )


def scatter_record(
    kmap: KernelMap,
    c_out: int,
    cfg: MovementConfig,
    device: GPUSpec,
    skip_center: bool,
    emit: bool = False,
) -> KernelRecord:
    """Price the scatter-accumulate stage of one layer (``emit`` as in
    :func:`gather_record`)."""
    offsets = _non_center_offsets(kmap, skip_center)
    total = int(sum(len(kmap.out_indices[n]) for n in offsets))
    dtype = _movement_dtype(cfg.dtype, "scatter")
    if cfg.locality_aware:
        # output-stationary: random buffer reads, each output row written once
        reads = traffic(total, c_out, dtype, cfg.pattern)
        writes = traffic(kmap.n_out, c_out, dtype, cfg.pattern)
        t = movement_time(reads, device.dram_bandwidth) / RANDOM_ROW_EFF + (
            movement_time(writes, device.dram_bandwidth)
        )
    else:
        # weight-stationary: streaming buffer reads (cache-polluted when
        # unfused), random accumulating writes to the output rows
        reads = traffic(total, c_out, dtype, cfg.pattern)
        writes = traffic(total, c_out, dtype, cfg.pattern)
        buffer_eff = 1.0 if cfg.fused else UNFUSED_BUFFER_EFF
        t = (
            movement_time(reads, device.dram_bandwidth) / buffer_eff
            + movement_time(writes, device.dram_bandwidth) / RANDOM_ROW_EFF
        )
    launches = 1 if cfg.fused else max(1, len(offsets))
    t += launches * device.launch_overhead
    if emit:
        record_traffic(reads, "scatter")
        record_traffic(writes, "scatter")
    return KernelRecord(
        name="scatter",
        stage="scatter",
        time=t,
        bytes_moved=reads.bytes_moved + writes.bytes_moved,
        launches=launches,
    )


#: Elements per pass of :func:`_round_half`: a chunk and its scratch
#: stay in cache across the kernel's dozen in-place ufuncs.
HALF_CHUNK = 1 << 16

_SIGN = np.uint32(0x80000000)
_ABS = np.uint32(0x7FFFFFFF)
_KEEP = np.uint32(0xFFFFE000)  # float32 bits that survive in fp16
_HALF_ULP = np.uint32(0x00000FFF)  # just under half an fp16 ulp
_ONE = np.uint32(1)
_LAST_SUBNORMAL = np.uint32(0x387FFFFF)  # largest float32 below 2**-14
_OVERFLOW = np.uint32(0x47800000)  # 2**16: rounds to inf in fp16
_INF = np.uint32(0x7F800000)
_NAN_LSB = np.uint32(0x00002000)  # lowest fp16 mantissa bit


def _round_half(a: np.ndarray) -> np.ndarray:
    """Round float32 ``a`` to fp16 precision, returned as fresh float32.

    Bit-identical to ``a.astype(np.float16).astype(np.float32)`` (NaN
    payloads follow NumPy's software rule) at a fixed cost per element:
    NumPy's own cast is a branchy scalar loop whose cost depends on the
    values, 2-15x more per element.  On the ``uint32`` view, an
    fp16-normal value rounds to nearest even at mantissa bit 13 by adding
    ``0xFFF`` plus the kept mantissa's low bit and clearing the 13
    dropped bits; a carry into the exponent is the correct next binade.
    Three rare kinds of lane are patched afterwards:

    * nonzero ``|x| < 2**-14`` (fp16 subnormals) round to a multiple of
      ``2**-24``, which float32 ``(|x| + 0.5) - 0.5`` does exactly;
    * results at or above ``2**16`` (overflow, ±inf) become inf;
    * NaNs keep the top 10 payload bits, with the low one set if the
      truncation would leave inf.

    The sign is OR-ed back last.  Work runs in :data:`HALF_CHUNK` slices
    with in-place ufuncs, so no intermediate leaves cache.
    """
    out = np.empty(a.shape, dtype=np.float32)
    src = a.reshape(-1).view(np.uint32)
    dst = out.reshape(-1).view(np.uint32)
    scratch = np.empty(min(src.size, HALF_CHUNK), dtype=np.uint32)
    mask = np.empty(scratch.size, dtype=bool)
    for lo in range(0, src.size, HALF_CHUNK):
        u = src[lo : lo + HALF_CHUNK]
        mag = dst[lo : lo + HALF_CHUNK]
        t, m = scratch[: u.size], mask[: u.size]
        np.bitwise_and(u, _ABS, out=mag)
        # nonzero fp16 subnormals: 0 < mag <= _LAST_SUBNORMAL, one compare
        np.subtract(mag, _ONE, out=t)
        np.less(t, _LAST_SUBNORMAL, out=m)
        tiny = np.flatnonzero(m)
        # round to nearest even at bit 13
        np.right_shift(mag, 13, out=t)
        np.bitwise_and(t, _ONE, out=t)
        np.add(t, _HALF_ULP, out=t)
        np.add(t, mag, out=t)
        np.bitwise_and(t, _KEEP, out=t)
        if tiny.size:
            x = mag[tiny].view(np.float32)
            t[tiny] = ((x + np.float32(0.5)) - np.float32(0.5)).view(np.uint32)
        np.greater_equal(t, _OVERFLOW, out=m)
        big = np.flatnonzero(m)
        if big.size:
            b = mag[big]
            nan = b & _KEEP
            # a payload only in the dropped bits must not become inf
            nan[nan == _INF] |= _NAN_LSB
            t[big] = np.where(b > _INF, nan, _INF)
        # sign back in: mag is spent, so it takes the sign bits
        np.bitwise_and(u, _SIGN, out=mag)
        np.bitwise_or(mag, t, out=mag)
    return out


#: ``id`` -> every live array :func:`freeze_half` returned, held weakly.
#: The tag lives in a table, not in an ndarray subclass: NumPy passes a
#: subclass on through ``w[n]`` and ``@``, so the products would read
#: as rounded too.
_FROZEN_HALF: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _is_frozen_half(a: np.ndarray) -> bool:
    return _FROZEN_HALF.get(id(a)) is a


def freeze_half(a: np.ndarray) -> np.ndarray:
    """Round ``a`` to fp16 precision once, in place; returns ``a``, now
    read-only and tagged so :func:`_cast` passes it through FP16 casts
    without a rounding pass.

    The weight side of a ``model.half()`` deployment (Section 4.3.1).
    The values are exactly ``_cast(a, DType.FP16)``'s, and rounding is
    idempotent, so FP16 forwards over frozen weights keep every bit.
    ``a`` must be writable C-contiguous float32, as every conv's own
    weights are; it is rounded :data:`HALF_CHUNK` elements at a time
    (a fresh full-size array per layer fragments the heap and raised
    the kitti-seg-cold benchmark's peak RSS by 13 MB).  An array this
    function returned is returned as is.

    Raises:
        ValueError: ``a`` is not a frozen array and not a writable
            C-contiguous float32 array.
    """
    if _is_frozen_half(a):
        return a
    if not (a.dtype == np.float32 and a.flags.writeable and a.flags.c_contiguous):
        raise ValueError(
            "freeze_half rounds in place: it needs a writable C-contiguous "
            f"float32 array, got {a.dtype} (writeable={a.flags.writeable}, "
            f"c_contiguous={a.flags.c_contiguous})"
        )
    flat = a.reshape(-1)
    for lo in range(0, flat.size, HALF_CHUNK):
        flat[lo : lo + HALF_CHUNK] = _round_half(flat[lo : lo + HALF_CHUNK])
    a.flags.writeable = False
    _FROZEN_HALF[id(a)] = a
    return a


def _cast(feats: np.ndarray, dtype: DType) -> np.ndarray:
    """Apply the storage dtype's precision to the features.

    Always returns float32, so GEMMs take NumPy's BLAS path — half
    precision matmul has no BLAS kernel and is orders of magnitude
    slower.  The returned array never aliases ``feats`` while a fault
    injector is armed (see below); INT8 and FP16 casts of an array not
    made by :func:`freeze_half` always return a fresh array.

    * **FP32**: float32 input is returned as is, or copied under an
      armed injector.
    * **FP16**: the values are rounded to half precision so quantization
      error is observable, as on real hardware (Section 4.3.1).  Float32
      input goes through :func:`_round_half`, bit-identical to NumPy's
      ``float16`` round trip and several times faster.  Any other dtype
      (the float16 and float64 features :class:`SparseTensor` accepts)
      casts straight to ``float16``: rounding float64 to float32 first
      would round twice.  A :func:`freeze_half` array (a deployed
      model's weights) already holds fp16 values: it is returned as is,
      or as a writable copy under an armed injector.
    * **INT8**: symmetric per-tensor quantization, round-tripped the same
      way; an empty tensor stays empty.  The scatter side still runs at
      16 bits as the paper requires, which the cost model handles, not
      this function.
    """
    # The bit-flip fault sites mutate the cast buffer in place.  An
    # aliased return would let them corrupt the caller's tensor — the
    # model's weights — so the detect->recompute loop would re-take its
    # golden checksum from the corrupted buffer, verify clean, and ship
    # the corruption as a recovery.  Copy whenever an injector is armed;
    # the production path stays zero-copy.
    if dtype is DType.FP32:
        return feats.astype(np.float32, copy=get_injector() is not None)
    if dtype is DType.INT8:
        scale = max(1e-12, float(np.abs(feats).max(initial=0.0)) / 127.0)
        q = np.clip(np.round(feats / scale), -127, 127)
        return (q * scale).astype(np.float32)
    if _is_frozen_half(feats):
        return feats.copy() if get_injector() is not None else feats
    if feats.dtype == np.float32:
        return _round_half(feats)
    return feats.astype(np.float16).astype(np.float32)


def _movement_dtype(dtype: DType, side: str) -> DType:
    """Storage dtype actually moved by one side of the pipeline.

    INT8 only applies to gather: the multi-way reduction in scatter
    needs more than 8 bits and CUDA requires aligned access, so all
    scatter traffic stays at 16 bits (Section 4.3.1) — the reason INT8
    offers diminishing returns end to end.
    """
    if dtype is DType.INT8 and side == "scatter":
        return DType.FP16
    return dtype


def _is_identity(idx: np.ndarray, n: int) -> bool:
    """``idx`` is ``0, 1, ..., n - 1``."""
    return len(idx) == n and bool((idx == np.arange(n)).all())


def execute_gather_matmul_scatter(
    feats: np.ndarray,
    weights: np.ndarray,
    kmap: KernelMap,
    plan: GroupingPlan,
    cfg: MovementConfig,
    device: GPUSpec,
    profile: Profile,
    skip_center: bool = True,
    integrity=None,
    numerics: bool = True,
) -> np.ndarray:
    """Run one sparse convolution via Algorithm 2 with a grouping plan.

    Args:
        feats: ``(N_in, C_in)`` input features.
        weights: ``(K^3, C_in, C_out)`` weight matrices.
        kmap: the layer's kernel map.
        plan: matmul grouping plan over the non-center offsets.
        cfg: data-movement configuration.
        device: GPU model that prices every stage.
        profile: records are appended here.
        skip_center: process the stride-1 center offset as a direct
            ``mm`` without data movement (always true in the engines;
            exposed for tests).
        integrity: optional
            :class:`~repro.robust.integrity.IntegrityChecker` verifying
            each stage with ABFT checksums (observation only — never
            changes numerics; raises
            :class:`~repro.robust.errors.IntegrityError` on mismatch).
        numerics: ``False`` prices the layer only: casts, gathers and
            matmuls are skipped and the output is zeros, while every
            record and metric is made exactly as in a computed run.

    Returns:
        ``(N_out, C_out)`` output features (float32).
    """
    if weights.ndim != 3 or weights.shape[0] != kmap.volume:
        raise ValueError(
            f"weights must be (K^3={kmap.volume}, C_in, C_out), got {weights.shape}"
        )
    c_in, c_out = weights.shape[1], weights.shape[2]
    if feats.shape != (kmap.n_in, c_in):
        raise ValueError(
            f"feats shape {feats.shape} does not match (n_in={kmap.n_in}, c_in={c_in})"
        )
    plan.validate(kmap.volume, kmap.center_index if skip_center else None)

    acc = None
    if numerics:
        x = _cast(feats, cfg.dtype)
        w = _cast(weights, cfg.dtype)
        if integrity is not None:
            # golden checksums right after the cast: the model of load-time
            # ABFT — anything that corrupts the buffers later is visible
            integrity.begin(x, w)
        # fault-injection site: weight buffer flips *after* the golden
        # checksum (GEMM checksums agree with it; only the sentinel sees it)
        maybe_bitflip_weights(w, site=f"weights.v{kmap.volume}")

    # -- center offset: direct mm, no data movement -------------------------
    center = kmap.center_index
    if skip_center and center is not None and len(kmap.in_indices[center]):
        ci, co = kmap.in_indices[center], kmap.out_indices[center]
        if numerics:
            # a submanifold layer's center maps every row to itself: its
            # product is the accumulator, with no gather and no scatter
            # (checked on the arrays, so a corrupted map takes the gather)
            direct = _is_identity(ci, kmap.n_in) and _is_identity(co, kmap.n_out)
            rows = np.ascontiguousarray(x) if direct else np.take(x, ci, axis=0)
            partial = (rows @ w[center]).astype(np.float32, copy=False)
            if integrity is not None:
                src = integrity.source_checksum(x, ci)
                integrity.check_matmul(
                    partial, src, w[center], len(ci), "matmul.center"
                )
                integrity.absorb(partial)
            if direct:
                acc = partial
                acc += 0.0  # -0.0 reads +0.0, as the add into zeros gives
            else:
                # within one offset each output index appears at most once
                # (p = s*q + delta is injective in q), so plain indexed add
                # is safe
                acc = np.zeros((kmap.n_out, c_out), dtype=np.float32)
                acc[co] += partial
        cost = mm_cost(len(ci), c_in, c_out, cfg.dtype, device)
        record_gemm_cost(cost, "mm")
        with profile.span("matmul"):
            profile.log(
                "matmul.center",
                "matmul",
                cost.time,
                bytes_moved=cost.bytes_moved,
                flops=cost.flops,
                launches=cost.launches,
            )

    if acc is None:
        acc = np.zeros((kmap.n_out, c_out), dtype=np.float32)

    # -- movement pricing (numerics below do the actual indexing) -----------
    with profile.span("gather"):
        profile.add(gather_record(kmap, c_in, cfg, device, skip_center, emit=True))

    # -- grouped matmul ------------------------------------------------------
    with profile.span("matmul"):
        for gi, group in enumerate(plan.groups):
            sizes = [len(kmap.in_indices[n]) for n in group.members]
            # a pricing run stages and multiplies nothing
            if numerics:
                # zero-padding cannot change the products, so a bmm group
                # is computed per member and only its *cost* is the
                # padded bmm's
                for n in group.members:
                    idx = kmap.in_indices[n]
                    gathered = np.take(x, idx, axis=0)
                    # fault-injection site: flips in the staged gather rows
                    maybe_bitflip_features(gathered, site=f"gather.o{n}")
                    if integrity is not None:
                        src = integrity.source_checksum(x, idx)
                        integrity.check_buffer(gathered, src, f"gather.o{n}")
                    partial = (gathered @ w[n]).astype(np.float32, copy=False)
                    if integrity is not None:
                        integrity.check_matmul(
                            partial, src, w[n], len(idx), f"matmul.o{n}"
                        )
                        integrity.absorb(partial)
                    acc[kmap.out_indices[n]] += partial
            if group.use_bmm:
                cost = bmm_cost(sizes, c_in, c_out, cfg.dtype, device)
                record_gemm_cost(cost, "bmm")
            else:
                cost = sequential_cost(sizes, c_in, c_out, cfg.dtype, device)
                record_gemm_cost(cost, "mm")
            profile.log(
                f"matmul.group{gi}",
                "matmul",
                cost.time,
                bytes_moved=cost.bytes_moved,
                flops=cost.flops,
                launches=cost.launches,
            )

    if numerics:
        # fault-injection site: reduced-precision accumulator overflow
        # (no-op at FP32 — the ladder's fp32 rung is a genuine fix)
        maybe_inject_matmul_nan(acc, cfg.dtype)
        # fault-injection site: flips in the scatter accumulator
        maybe_bitflip_features(acc, site="scatter.out")

    with profile.span("scatter"):
        profile.add(
            scatter_record(kmap, c_out, cfg, device, skip_center, emit=True)
        )
    if integrity is not None:
        integrity.check_output(acc, "scatter.out")
        integrity.verify_weights(w, "weights")
        integrity.finish(profile)
    return acc


def fetch_on_demand_offset_cost(
    m: int, c_in: int, c_out: int, dtype: DType, device: GPUSpec
) -> tuple:
    """(seconds, bytes, flops) of one offset's fetch-on-demand kernel.

    Math runs on CUDA cores (FP32 rate regardless of storage dtype) at
    ``occupancy * FETCH_ON_DEMAND_EFF``; all row accesses are random.
    """
    if m <= 0:
        return 0.0, 0, 0.0
    pattern = MemoryAccessPattern.SCALAR
    reads = traffic(m, c_in, dtype, pattern)
    writes = traffic(m, c_out, dtype, pattern)
    t_mem = (
        movement_time(reads, device.dram_bandwidth)
        + movement_time(writes, device.dram_bandwidth)
    ) / RANDOM_ROW_EFF
    flops = 2.0 * m * c_in * c_out
    blocks = -(-m // 64) * (-(-c_out // 64))
    util = device.occupancy(blocks) * FETCH_ON_DEMAND_EFF
    t_math = device.compute_time(flops, DType.FP32, utilization=util)
    t = max(t_mem, t_math) + device.launch_overhead
    return t, reads.bytes_moved + writes.bytes_moved, flops


def fetch_on_demand_cost(
    kmap: KernelMap, c_in: int, c_out: int, dtype: DType, device: GPUSpec
) -> float:
    """Total modeled latency of running a layer fetch-on-demand."""
    return sum(
        fetch_on_demand_offset_cost(len(idx), c_in, c_out, dtype, device)[0]
        for idx in kmap.in_indices
    )


def execute_fetch_on_demand(
    feats: np.ndarray,
    weights: np.ndarray,
    kmap: KernelMap,
    device: GPUSpec,
    profile: Profile,
    dtype: DType = DType.FP32,
    integrity=None,
    numerics: bool = True,
) -> np.ndarray:
    """MinkowskiEngine's fetch-on-demand dataflow (Lin et al., 2021).

    No staging buffers: each offset's kernel reads its input rows, does
    the multiply, and atomically accumulates outputs in one pass.  This
    halves the point-side traffic relative to gather-matmul-scatter (no
    buffer round-trip) but runs the math as fragmented matrix-vector
    work — so it wins on *small* workloads (where the tiled GEMM is
    occupancy-bound anyway) and loses on large ones, exactly the
    Section 5.2 observation about 1-frame nuScenes models.

    ``numerics=False`` prices only, as in
    :func:`execute_gather_matmul_scatter`.
    """
    c_in, c_out = weights.shape[1], weights.shape[2]
    acc = np.zeros((kmap.n_out, c_out), dtype=np.float32)
    if numerics:
        x = _cast(feats, dtype)
        w = _cast(weights, dtype)
        if integrity is not None:
            integrity.begin(x, w)
        # fault-injection site: post-checksum weight-buffer flips
        maybe_bitflip_weights(w, site="fetch_on_demand.weights")
    reg = get_registry()
    with profile.span("matmul", dataflow="fetch_on_demand"):
        for n in range(kmap.volume):
            idx = kmap.in_indices[n]
            if not len(idx):
                continue
            if numerics:
                partial = (np.take(x, idx, axis=0) @ w[n]).astype(
                    np.float32, copy=False
                )
                if integrity is not None:
                    src = integrity.source_checksum(x, idx)
                    integrity.check_matmul(
                        partial, src, w[n], len(idx), f"fetch_on_demand.o{n}"
                    )
                    integrity.absorb(partial)
                acc[kmap.out_indices[n]] += partial
            t, nbytes, flops = fetch_on_demand_offset_cost(
                len(idx), c_in, c_out, dtype, device
            )
            reg.counter("dataflow.fetch_on_demand.launches").inc()
            reg.counter("dataflow.fetch_on_demand.flops").inc(flops)
            profile.log(
                f"fetch_on_demand.{n}",
                "matmul",
                t,
                bytes_moved=nbytes,
                flops=flops,
            )
    if numerics:
        # fault-injection site: flips in the atomic accumulator
        maybe_bitflip_features(acc, site="fetch_on_demand.out")
    if integrity is not None:
        integrity.check_output(acc, "fetch_on_demand.out")
        integrity.verify_weights(w, "fetch_on_demand.weights")
        integrity.finish(profile)
    return acc
