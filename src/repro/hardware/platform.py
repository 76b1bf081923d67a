"""The simulated heterogeneous platform: CPU + GPU + memories + link.

:meth:`Platform.paper_testbed` reproduces the calibration of the
paper's footnote 4: an i7-6700HQ host (4 cores / 8 threads @ 2.6 GHz,
32K/256K/6144K caches, 16 GB RAM) and a CUDA capability-5.0 device
(5 SMs x 128 cores, 2 MB L2, 4044 MB global memory) on PCIe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hardware.cache import AnalyticMemoryModel, CacheGeometry, CacheHierarchy
from repro.hardware.cpu import CPUModel
from repro.hardware.disk import DiskModel
from repro.hardware.event import Cycles
from repro.hardware.gpu import GPUModel
from repro.hardware.interconnect import InterconnectModel
from repro.hardware.memory import MemoryKind, MemorySpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

__all__ = ["Platform"]

_MiB = 1024 * 1024
_GiB = 1024 * _MiB


@dataclass
class Platform:
    """One simulated machine: models plus live memory spaces.

    The models (:attr:`cpu`, :attr:`gpu`, :attr:`memory_model`,
    :attr:`interconnect`) are immutable cost calculators; the memory
    spaces (:attr:`host_memory`, :attr:`device_memory`, :attr:`disk`)
    are stateful allocators that engines draw fragments from.  A fresh
    platform therefore represents a fresh machine.
    """

    cpu: CPUModel = field(default_factory=CPUModel)
    gpu: GPUModel = field(default_factory=GPUModel)
    memory_model: AnalyticMemoryModel = field(default_factory=AnalyticMemoryModel)
    interconnect: InterconnectModel = field(default_factory=InterconnectModel)
    disk_model: DiskModel = field(default_factory=DiskModel)
    host_memory: MemorySpace = field(
        default_factory=lambda: MemorySpace("host", MemoryKind.HOST, 16 * _GiB)
    )
    device_memory: MemorySpace = field(
        default_factory=lambda: MemorySpace("device", MemoryKind.DEVICE, 4044 * _MiB)
    )
    disk: MemorySpace = field(
        default_factory=lambda: MemorySpace("disk", MemoryKind.DISK, 512 * _GiB)
    )
    #: The platform-wide fault injector, set by
    #: :meth:`repro.faults.FaultInjector.install`; ``None`` on healthy
    #: machines.  Engines and the re-organizer consult it for their
    #: component-level fault sites (node crash, reorg interruption).
    injector: "FaultInjector | None" = None

    def __post_init__(self) -> None:
        """Attach the device staging manager (``platform.staging``).

        A plain attribute, not a dataclass field: ``dataclasses.replace``
        (how sweeps derive platform variants) builds the new platform
        through ``__init__`` and therefore gets a fresh, cold cache —
        staged state never leaks between sweep points.  Imported lazily
        because the staging package sits above the hardware layer.

        Also sets the platform's observers, ``platform.tracer`` and
        ``platform.metrics``, to ``None``: every instrumentation hook is
        then a no-op (the zero-observer-effect contract).  Attach a
        :class:`~repro.obs.Tracer` or a
        :class:`~repro.obs.WindowedRegistry` by assignment; an observer
        reaches instrumented code only through the platform it watches.
        """
        from repro.staging.manager import StagingManager

        self.staging = StagingManager(self)
        self.tracer = None
        self.metrics = None

    @classmethod
    def paper_testbed(
        cls,
        host_capacity: int = 16 * _GiB,
        device_capacity: int = 4044 * _MiB,
    ) -> "Platform":
        """The ICDE'17 testbed, with optionally overridden capacities.

        Overriding capacities is how tests exercise CoGaDB's
        all-or-nothing placement fallback without allocating gigabytes.
        """
        cpu = CPUModel(
            frequency_hz=2.6e9,
            cores=4,
            hardware_threads=8,
            thread_spawn_cycles=100_000.0,
            smt_yield=0.3,
            stream_bandwidth_per_thread=10.0e9,
            stream_bandwidth_aggregate=20.0e9,
        )
        gpu = GPUModel(
            sms=5,
            cores_per_sm=128,
            clock_hz=1.1e9,
            device_bandwidth=80.0e9,
            launch_latency_s=5.0e-6,
            max_threads_per_block=1024,
            host_frequency_hz=cpu.frequency_hz,
        )
        line_bandwidth_cycles = (
            64 / cpu.stream_bandwidth_per_thread * cpu.frequency_hz
        )
        memory_model = AnalyticMemoryModel(
            line=64,
            llc_size=6144 * 1024,
            l1_latency=4.0,
            l2_latency=12.0,
            l3_latency=42.0,
            memory_latency=200.0,
            line_bandwidth_cycles=line_bandwidth_cycles,
            mlp=4.0,
        )
        interconnect = InterconnectModel(
            bandwidth=6.0e9,
            latency_s=10.0e-6,
            host_frequency_hz=cpu.frequency_hz,
        )
        disk_model = DiskModel(host_frequency_hz=cpu.frequency_hz)
        return cls(
            cpu=cpu,
            gpu=gpu,
            memory_model=memory_model,
            interconnect=interconnect,
            disk_model=disk_model,
            host_memory=MemorySpace("host", MemoryKind.HOST, host_capacity),
            device_memory=MemorySpace("device", MemoryKind.DEVICE, device_capacity),
            disk=MemorySpace("disk", MemoryKind.DISK, 512 * _GiB),
        )

    @classmethod
    def modern_testbed(
        cls,
        host_capacity: int = 128 * _GiB,
        device_capacity: int = 80 * _GiB,
    ) -> "Platform":
        """A 2026-class machine for what-if sweeps (ablation A8).

        16 cores / 32 threads at 3.5 GHz over DDR5 (~30 GB/s per
        streaming thread, ~200 GB/s socket), a large L3, an H100-class
        device (~3 TB/s HBM) on an NVLink-class 100 GB/s link, and a
        thread pool instead of thread-per-region (spawn ~2 us).  Used to
        ask how the paper's 2017 conclusions age: which Figure 2
        orderings are architectural, and which were artifacts of
        PCIe-3-era ratios.
        """
        cpu = CPUModel(
            frequency_hz=3.5e9,
            cores=16,
            hardware_threads=32,
            thread_spawn_cycles=7_000.0,  # pooled workers, ~2 us
            smt_yield=0.3,
            stream_bandwidth_per_thread=30.0e9,
            stream_bandwidth_aggregate=200.0e9,
        )
        gpu = GPUModel(
            sms=132,
            cores_per_sm=128,
            clock_hz=1.8e9,
            device_bandwidth=3000.0e9,
            launch_latency_s=3.0e-6,
            max_threads_per_block=1024,
            host_frequency_hz=cpu.frequency_hz,
        )
        line_bandwidth_cycles = 64 / cpu.stream_bandwidth_per_thread * cpu.frequency_hz
        memory_model = AnalyticMemoryModel(
            line=64,
            llc_size=64 * 1024 * 1024,
            l1_latency=4.0,
            l2_latency=14.0,
            l3_latency=50.0,
            memory_latency=280.0,
            line_bandwidth_cycles=line_bandwidth_cycles,
            mlp=8.0,
        )
        interconnect = InterconnectModel(
            bandwidth=100.0e9,  # NVLink-class host link
            latency_s=2.0e-6,
            host_frequency_hz=cpu.frequency_hz,
        )
        disk_model = DiskModel(
            bandwidth=7.0e9, seek_s=20e-6, host_frequency_hz=cpu.frequency_hz
        )  # NVMe
        return cls(
            cpu=cpu,
            gpu=gpu,
            memory_model=memory_model,
            interconnect=interconnect,
            disk_model=disk_model,
            host_memory=MemorySpace("host", MemoryKind.HOST, host_capacity),
            device_memory=MemorySpace("device", MemoryKind.DEVICE, device_capacity),
            disk=MemorySpace("disk", MemoryKind.DISK, 512 * _GiB),
        )

    # ------------------------------------------------------------------
    def make_trace_hierarchy(self) -> CacheHierarchy:
        """A fresh trace-driven cache hierarchy matching the analytic model.

        Used by the validation tests that check the analytic formulas
        against an exact simulation on small inputs.
        """
        model = self.memory_model
        levels = (
            CacheGeometry("L1d", 32 * 1024, model.line, 8, model.l1_latency),
            CacheGeometry("L2", 256 * 1024, model.line, 8, model.l2_latency),
            CacheGeometry("L3", model.llc_size, model.line, 12, model.l3_latency),
        )
        return CacheHierarchy(
            levels,
            memory_latency=model.memory_latency,
            line_bandwidth_cycles=model.line_bandwidth_cycles,
        )

    def seconds(self, cycles: Cycles) -> float:
        """Convert host cycles to wall-clock seconds on this platform."""
        return cycles / self.cpu.frequency_hz

    def space(self, kind: MemoryKind) -> MemorySpace:
        """The live memory space of the given kind."""
        if kind is MemoryKind.HOST:
            return self.host_memory
        if kind is MemoryKind.DEVICE:
            return self.device_memory
        return self.disk
