"""Shared execution context for the methodology phases.

:class:`BenchContext` bundles the machine/runtime/driver handles and
exposes both the concrete per-domain clock operations (``set_frequency``
/ ``settle_on`` for the SM clock, ``set_memory_clock`` for the memory
clock) and the *axis-generic* dispatchers (``set_swept_clock`` /
``settle_swept`` / ``prepare_facet``) the phases call — which domain
those act on is decided by ``config.axis`` through
:mod:`repro.core.axis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.axis import MeasurementAxis
from repro.core.config import LatestConfig
from repro.cuda.kernel import MicrobenchmarkKernel
from repro.cuda.runtime import CudaContext
from repro.gpusim.device import GpuDevice
from repro.machine import Machine
from repro.nvml.api import NvmlDeviceHandle, NvmlSession

__all__ = ["BenchContext"]


@dataclass
class BenchContext:
    """Bundles the machine, runtime and driver handles for one campaign."""

    machine: Machine
    config: LatestConfig
    device: GpuDevice = field(init=False)
    cuda: CudaContext = field(init=False)
    nvml: NvmlSession = field(init=False)
    handle: NvmlDeviceHandle = field(init=False)
    #: the locked SM clock of the *current* facet of a multi-facet
    #: swept-axis campaign (set by :meth:`prepare_facet_clock`); ``None``
    #: outside facet sweeps
    current_locked_sm: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.device = self.machine.device(self.config.device_index)
        self.cuda = self.machine.cuda_context(self.config.device_index)
        self.nvml = self.machine.nvml()
        self.handle = self.nvml.device_get_handle_by_index(self.config.device_index)

    # ------------------------------------------------------------------
    @property
    def host(self):
        return self.machine.host

    @property
    def axis(self) -> MeasurementAxis:
        """The campaign's swept axis (:mod:`repro.core.axis`)."""
        return self.config.swept_axis()

    def base_kernel(self) -> MicrobenchmarkKernel:
        """The campaign's microbenchmark sized per configuration.

        The kernel's memory-bound fraction comes from the swept axis (or
        an explicit ``kernel_memory_intensity``): the memory axis needs a
        memory-bound workload so iteration times respond to the swept
        clock at all, while the default matches the legacy kernel exactly.
        """
        return MicrobenchmarkKernel.sized_for(
            self.device.spec,
            iteration_duration_s=self.config.iteration_duration_s,
            total_duration_s=self.config.measure_kernel_duration_s,
            sm_count=self.record_sm_count(),
            memory_intensity=self.config.resolved_kernel_intensity(),
        )

    def record_sm_count(self) -> int:
        if self.config.record_sm_count is None:
            return self.device.spec.sm_count
        return min(self.config.record_sm_count, self.device.spec.sm_count)

    def set_frequency(self, freq_mhz: float):
        """Lock the SM clock; returns the ground-truth transition record."""
        return self.handle.set_gpu_locked_clocks(freq_mhz, freq_mhz)

    # ------------------------------------------------------------------
    # axis-generic operations (dispatch through config.axis)
    # ------------------------------------------------------------------
    def set_swept_clock(self, freq_mhz: float):
        """Issue the swept-axis clock change; returns the ground truth."""
        return self.axis.set_clock(self, freq_mhz)

    def settle_swept(self, freq_mhz: float) -> bool:
        """Settle the swept-axis clock on ``freq_mhz`` under load."""
        return self.axis.settle(self, freq_mhz)

    def prepare_facet(self) -> bool:
        """Lock the complementary (non-swept) clock domain, if any.

        A no-op for the default axis (legacy campaigns touch nothing;
        grid campaigns lock their memory facets through
        :meth:`set_memory_clock`); the memory axis locks and settles the
        SM clock at :meth:`facet_sm_mhz`.
        """
        return self.axis.prepare_facet(self)

    def prepare_facet_clock(self, facet: float | None) -> bool:
        """Lock the facet clock for one campaign facet.

        The single dispatch shared by every calibration
        (:func:`repro.exec.worker.calibrate_on`) and engine workers.  A set facet coordinate is either a core×memory
        grid facet (``memory_frequencies`` campaigns lock that memory
        P-state) or one locked SM clock of a multi-facet swept-axis sweep
        (lock and settle the SM clock there); ``None`` defers to the swept
        axis's own facet preparation.
        """
        if facet is not None:
            if self.config.memory_frequencies is not None:
                return self.set_memory_clock(facet)
            self.current_locked_sm = float(facet)
            return self.settle_on(float(facet))
        return self.prepare_facet()

    def facet_sm_mhz(self) -> float:
        """The SM clock a memory- or power-axis campaign runs at.

        Multi-facet sweeps resolve to the facet
        :meth:`prepare_facet_clock` most recently locked.
        """
        if self.current_locked_sm is not None:
            return self.current_locked_sm
        locked = self.config.locked_sm_mhz
        if locked is not None and not isinstance(locked, tuple):
            return float(locked)
        if isinstance(locked, tuple):
            # Facet sweep before any facet was prepared: the first facet
            # is the campaign's entry point.
            return float(locked[0])
        return float(self.device.spec.max_sm_frequency_mhz)

    def set_memory_clock(self, mem_mhz: float) -> bool:
        """Lock the memory clock and wait (under load) until it settles.

        Memory retraining is one to two orders of magnitude slower than an
        SM relock, so the campaign must not characterize or measure before
        the P-state actually arrived.  Mirrors :meth:`settle_on`: filler
        chunks alternate with NVML memory-clock polls, bounded by
        ``max_settle_s`` of busy time.
        """
        self.handle.set_memory_locked_clocks(mem_mhz, mem_mhz)
        if abs(self.handle.clock_info_mem_mhz() - mem_mhz) < 1.0:
            return True
        return self._poll_settle(self.handle.clock_info_mem_mhz, mem_mhz)

    def power_capped_sm_mhz(self, limit_w: float) -> float:
        """Effective SM clock once ``limit_w`` is enforced.

        The locked facet clock clipped by the limit's sustainable clock —
        the settle target (and the capped-clock roofline input) of the
        power-cap axis.
        """
        cap = float(self.device.thermal.sustainable_clock_mhz(limit_w))
        return min(self.facet_sm_mhz(), cap)

    def set_power_limit(self, limit_w: float) -> bool:
        """Set the board power limit and wait until the cap is enforced.

        The power controller re-targets the sustainable clock only after
        its sensing-window latency, so the campaign must not characterize
        or measure before the cap actually arrived.  Mirrors
        :meth:`settle_on`: filler chunks alternate with NVML SM-clock
        polls (the enforced cap is observable as the effective clock),
        bounded by ``max_settle_s`` of busy time.
        """
        self.handle.set_power_limit(limit_w)
        expected = self.power_capped_sm_mhz(limit_w)
        if abs(self.handle.clock_info_sm_mhz() - expected) < 1.0:
            return True
        return self._poll_settle(self.handle.clock_info_sm_mhz, expected)

    def settle_on(self, freq_mhz: float) -> bool:
        """Bring the SM clock to ``freq_mhz`` under sustained load.

        Locks the clock, then alternates filler workload chunks with NVML
        ``clock_info`` polls until the effective SM clock matches the
        request.  Bounded by ``max_settle_s`` of busy time — transitions
        *into* some frequencies are themselves pathologically slow (GH200's
        special target bands), and both phase 1 (characterization) and
        phase 2 (initial condition) must not proceed before the clock is
        actually there.
        """
        cfg = self.config
        self.set_frequency(freq_mhz)
        if cfg.init_settle_s is not None:
            self.run_filler(cfg.init_settle_s, freq_mhz)
            return True
        return self._poll_settle(self.handle.clock_info_sm_mhz, freq_mhz)

    def _poll_settle(self, read_mhz, target: float) -> bool:
        """Filler chunks alternating with NVML polls until the readback
        reaches ``target``, bounded by ``max_settle_s`` of busy time.

        The shared settle loop of every clock actuator (SM lock, memory
        P-state, enforced power cap — the latter observed through the
        effective SM clock); callers differ only in the set call, the
        readback and any immediate pre-check.
        """
        cfg = self.config
        waited = 0.0
        while waited < cfg.max_settle_s:
            self.run_filler(cfg.settle_chunk_s, target)
            waited += cfg.settle_chunk_s
            if abs(read_mhz() - target) < 1.0:
                return True
        return False

    def run_filler(self, duration_s: float, freq_mhz: float) -> None:
        """Keep the device busy for ~duration without recording timestamps.

        Single-SM filler kernels are physically equivalent for the clock
        domain (frequency behaviour does not depend on how many SMs the
        simulator records) and keep warm-up phases cheap.
        """
        iter_s = self.config.iteration_duration_s
        n = max(1, int(round(duration_s / iter_s)))
        kernel = MicrobenchmarkKernel(
            n_iterations=n,
            cycles_per_iteration=self.config.iteration_duration_s
            * self.device.spec.max_sm_frequency_mhz
            * 1e6,
            sm_count=1,
            label="filler",
            aggregate=True,
        )
        self.cuda.launch(kernel)
        self.cuda.synchronize()
