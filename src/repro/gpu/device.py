"""GPU specification sheets and roofline timing.

Three device models mirror the paper's evaluation hardware.  The numbers
are public datasheet values; the only tuned constants are the occupancy
half-point (how many thread blocks saturate the device) and the kernel
launch overhead, both calibrated against the paper's anchor measurements
(see DESIGN.md Section 6).

A key modeled distinction: GTX 1080Ti has **no FP16 tensor cores**, so
FP16 only helps its memory traffic, not its math throughput — exactly
the paper's Section 5.2 observation that tensor cores contribute only a
minor share of the end-to-end gain.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.gpu.memory import DType


@dataclass(frozen=True)
class GPUSpec:
    """Performance-relevant parameters of one GPU.

    Attributes:
        name: marketing name.
        dram_bandwidth: achievable DRAM bandwidth, bytes/s.
        fp32_tflops: peak FP32 math throughput, TFLOP/s.
        fp16_tflops: peak FP16 throughput (tensor cores when present).
        has_fp16_tensor_cores: whether FP16 math beats FP32 math.
        l2_bytes: L2 cache capacity.
        sm_count: number of streaming multiprocessors.
        launch_overhead: fixed cost per kernel launch, seconds.
        blocks_half: thread-block count at which occupancy reaches 50%
            of its asymptote (the regularity knob batching exploits).
    """

    name: str
    dram_bandwidth: float
    fp32_tflops: float
    fp16_tflops: float
    has_fp16_tensor_cores: bool
    l2_bytes: int
    sm_count: int
    #: Exposed per-kernel launch cost.  Raw CUDA launches cost 1-2 us of
    #: CPU time, but kernels enqueued back-to-back on a stream hide most
    #: of it; 0.5 us is the typical exposed cost.
    launch_overhead: float = 0.5e-6
    blocks_half: int = 0

    def __post_init__(self) -> None:
        if self.blocks_half <= 0:
            object.__setattr__(self, "blocks_half", self.sm_count)
        # frozen, so the field hash never changes: a memo keyed by a spec
        # (the serve oracle reads one per scheduling decision) takes it
        # from here instead of re-hashing every field
        object.__setattr__(self, "_hash", hash(self._values()))

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: a string's hash is per-process
        return type(self), self._values()

    # -- throughput queries -------------------------------------------------

    def math_throughput(self, dtype: DType) -> float:
        """Peak FLOP/s for a dtype (FP16 falls back to FP32 rate without
        tensor cores; INT8 math reuses the FP16 path)."""
        if dtype is DType.FP32:
            return self.fp32_tflops * 1e12
        if self.has_fp16_tensor_cores:
            return self.fp16_tflops * 1e12
        return self.fp32_tflops * 1e12

    def occupancy(self, blocks: int) -> float:
        """Fraction of peak achievable with ``blocks`` resident blocks.

        A saturating curve ``b / (b + blocks_half)`` (clamped to 0.95):
        a handful of blocks leaves most SMs idle — this is the
        irregularity penalty that separate per-offset matmuls pay and
        that grouping repairs.
        """
        if blocks <= 0:
            return 0.0
        return min(0.95, blocks / (blocks + self.blocks_half))

    def mem_time(self, bytes_moved: float, efficiency: float = 1.0) -> float:
        """Seconds to move ``bytes_moved`` at a transaction efficiency."""
        if bytes_moved <= 0:
            return 0.0
        eff = max(1e-3, min(1.0, efficiency))
        return bytes_moved / (self.dram_bandwidth * eff)

    def compute_time(self, flops: float, dtype: DType, utilization: float = 1.0) -> float:
        """Seconds to execute ``flops`` at a utilization fraction."""
        if flops <= 0:
            return 0.0
        util = max(1e-3, min(1.0, utilization))
        return flops / (self.math_throughput(dtype) * util)

    def kernel_time(
        self,
        bytes_moved: float = 0.0,
        flops: float = 0.0,
        dtype: DType = DType.FP32,
        mem_efficiency: float = 1.0,
        utilization: float = 1.0,
        launches: int = 1,
    ) -> float:
        """Roofline latency of one (or several fused) kernel launches."""
        return (
            max(
                self.mem_time(bytes_moved, mem_efficiency),
                self.compute_time(flops, dtype, utilization),
            )
            + launches * self.launch_overhead
        )


GTX_1080TI = GPUSpec(
    name="GTX 1080Ti",
    dram_bandwidth=484e9,
    fp32_tflops=11.3,
    fp16_tflops=11.3,  # no tensor cores: FP16 math at FP32 rate
    has_fp16_tensor_cores=False,
    l2_bytes=2_816 * 1024,
    sm_count=28,
)

RTX_2080TI = GPUSpec(
    name="RTX 2080Ti",
    dram_bandwidth=616e9,
    fp32_tflops=13.4,
    # usable FP16 tensor-core rate for irregular GEMM shapes; the paper's
    # Table 2 separate-matmul anchor (8.1 TFLOP/s at ~30% utilization)
    # implies a ~27 TFLOP/s envelope rather than the 107 marketing peak.
    fp16_tflops=26.9,
    has_fp16_tensor_cores=True,
    l2_bytes=5_632 * 1024,
    sm_count=68,
)

RTX_3090 = GPUSpec(
    name="RTX 3090",
    dram_bandwidth=936e9,
    fp32_tflops=35.6,
    fp16_tflops=39.0,
    has_fp16_tensor_cores=True,
    l2_bytes=6_144 * 1024,
    sm_count=82,
)

#: All modeled devices, keyed by short id.
GPU_REGISTRY = {
    "1080ti": GTX_1080TI,
    "2080ti": RTX_2080TI,
    "3090": RTX_3090,
}

# TorchSparse also supports CPU inference (Section 4.1).  The same
# roofline abstraction fits a CPU with reinterpreted parameters: cores
# stand in for SMs (so very few "blocks" already saturate it), L3 for
# L2, and function-call overhead for kernel launches.  FP16 has no fast
# math path on CPUs, hence fp16 == fp32 throughput.
CPU_16C = GPUSpec(
    name="CPU (16-core)",
    dram_bandwidth=76e9,
    fp32_tflops=1.6,
    fp16_tflops=1.6,
    has_fp16_tensor_cores=False,
    l2_bytes=32 * 1024 * 1024,
    sm_count=16,
    launch_overhead=0.1e-6,
)
