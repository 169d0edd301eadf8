"""Vectorized SM iteration execution.

The microbenchmark kernel of the methodology is an iterative arithmetic
workload: iteration ``k`` on SM ``i`` consumes ``cycles[i, k]`` clock cycles
(mean ``C`` with small multiplicative noise), executed back-to-back at the
instantaneous SM frequency ``f(t)``.

Because ``f(t)`` is piecewise constant (:class:`FrequencyTrajectory`), the
cumulative-cycle function ``G(t) = ∫ f`` is piecewise linear and invertible,
so every iteration boundary can be computed in closed form::

    end[i, k]   = G⁻¹( G(start_i) + Σ_{j<=k} cycles[i, j] )
    start[i, k] = end[i, k-1]                      (back-to-back)

This is exact — iterations that straddle frequency changes are implicitly
split across segments by the piecewise inversion.  The matrix inversion
runs in three column blocks: cumulative rows are nondecreasing, so the
columns every SM spends before the first frequency change and after the
last one map through one scalar multiply+add each, and only the narrow
ramp band between them pays for the per-element ``searchsorted``/gather.
Untimed single-SM kernels (settle fillers) skip the arrays altogether
through :func:`single_sm_completion`, a plain-float twin of the same
arithmetic.  A scalar reference implementation is provided for
property-based equivalence testing.

Integration is split in two stages so the hot campaign path can defer the
expensive part.  :func:`prepare_integration` consumes the RNG-dependent
inputs (cycle draws) immediately, compiles the trajectory, and computes
only the *last* iteration boundary per SM — enough for the kernel
completion time that drives the machine clock.  The full per-iteration
inversion and the device-view conversion happen lazily in
:meth:`PendingIntegration.materialize`, which kernels whose timestamps are
never read (filler workloads, rolled-back speculative passes) simply never
call.  The split is bit-exact: the deferred inversion applies the same
elementwise operation sequence to the same cumulative-cycle buffer, so the
materialized last column equals the eagerly computed completion boundary
float for float.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.trajectory import FrequencyTrajectory

__all__ = [
    "KernelTimestamps",
    "PendingIntegration",
    "integrate_iterations",
    "integrate_iterations_reference",
    "memory_stall_factor",
    "merge_memory_segments",
    "prepare_integration",
    "prepare_integration_from_boundaries",
    "sample_iteration_cycles",
    "single_sm_completion",
]


def memory_stall_factor(
    mem_freq_mhz: np.ndarray | float,
    mem_ref_mhz: float,
    memory_intensity: float,
) -> np.ndarray | float:
    """Cycle-cost multiplier of running at ``mem_freq_mhz`` vs the reference.

    A roofline-style decomposition: a fraction ``memory_intensity`` of each
    iteration's cycle budget covers memory traffic whose wall time scales
    inversely with the memory clock, the rest is pure compute.  The
    effective SM frequency the integrator should consume cycles at is then
    ``f_sm / stall`` with ``stall = (1 - β) + β * f_ref / f_mem``.  At the
    reference memory clock the factor is *exactly* 1.0 (explicitly pinned —
    ``(1-β)+β`` is not bit-exact in floats), preserving the legacy
    single-memory-clock timeline to the last bit.
    """
    mem_freq_mhz = np.asarray(mem_freq_mhz, dtype=np.float64)
    stall = (1.0 - memory_intensity) + memory_intensity * (
        mem_ref_mhz / mem_freq_mhz
    )
    return np.where(mem_freq_mhz == mem_ref_mhz, 1.0, stall)


def merge_memory_segments(
    tb: np.ndarray,
    f_mhz: np.ndarray,
    mem_tb: np.ndarray,
    mem_f_mhz: np.ndarray,
    memory_intensity: float,
    mem_ref_mhz: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a memory-clock timeline into SM segments as effective frequencies.

    Inputs are two compiled segment timelines in the
    :meth:`~repro.gpusim.dvfs.DvfsClockDomain.compiled_segments` form
    (boundaries with a trailing ``+inf``, per-segment MHz).  The result is
    the union timeline whose per-segment frequency is the SM clock divided
    by the :func:`memory_stall_factor` of the concurrent memory clock —
    exactly what the piecewise cycle integrator needs for kernels whose
    iteration time responds to both domains.  The timelines hold a handful
    of segments, so the merge runs on plain floats: the same IEEE
    operations as :func:`memory_stall_factor` without NumPy's per-call
    overhead (dividing by the pinned 1.0 stall is the identity).
    """
    t_all, i_sm, i_mem = _union_segment_indices(tb, f_mhz, mem_tb, mem_f_mhz)
    f_sm, f_mem = f_mhz.tolist(), mem_f_mhz.tolist()
    beta, ref = float(memory_intensity), float(mem_ref_mhz)
    keep = 1.0 - beta
    out = []
    for a, b in zip(i_sm, i_mem):
        f = f_mem[b]
        out.append(f_sm[a] if f == ref else f_sm[a] / (keep + beta * (ref / f)))
    return _as_segments(t_all, out)


def merge_cap_segments(
    tb: np.ndarray,
    f_mhz: np.ndarray,
    cap_tb: np.ndarray,
    cap_mhz: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Clip SM segments from above by a piecewise-constant clock cap.

    Both inputs are compiled segment timelines (boundaries with a trailing
    ``+inf``, per-segment MHz).  The result is the union timeline whose
    per-segment frequency is ``min(f_sm, cap)`` — how a power-limit cap
    (the sustainable-clock image of the limit timeline) shapes the clock
    the integrator consumes cycles at.
    """
    t_all, i_sm, i_cap = _union_segment_indices(tb, f_mhz, cap_tb, cap_mhz)
    f_sm, caps = f_mhz.tolist(), cap_mhz.tolist()
    return _as_segments(t_all, [min(f_sm[a], caps[b]) for a, b in zip(i_sm, i_cap)])


def _union_segment_indices(
    tb_a: np.ndarray,
    f_a: np.ndarray,
    tb_b: np.ndarray,
    f_b: np.ndarray,
) -> tuple[list[float], list[int], list[int]]:
    """Union boundary timeline of two compiled segment sets, with the
    per-boundary segment index into each (the shared scaffolding of the
    merge functions above — boundary alignment lives in one place)."""
    a, b = tb_a.tolist(), tb_b.tolist()
    t_all = sorted({*a[:-1], *b[:-1]})
    last_a, last_b = len(f_a) - 1, len(f_b) - 1
    i_a = [min(max(bisect.bisect_right(a, t) - 1, 0), last_a) for t in t_all]
    i_b = [min(max(bisect.bisect_right(b, t) - 1, 0), last_b) for t in t_all]
    return t_all, i_a, i_b


def _as_segments(t_all: list[float], f: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Boundary list plus trailing ``+inf`` and frequencies, as arrays."""
    t_all.append(np.inf)
    return np.array(t_all, dtype=np.float64), np.array(f, dtype=np.float64)


@dataclass
class KernelTimestamps:
    """Per-iteration boundaries of one kernel execution, in true time.

    Arrays are ``(n_sm, n_iterations)``.  Use
    :meth:`~KernelTimestamps.as_device_view` to obtain what the host
    actually observes: timestamps read from the quantized GPU timer.
    """

    starts_true: np.ndarray
    ends_true: np.ndarray
    #: True when ``starts_true[:, 1:]`` is exactly ``ends_true[:, :-1]``
    #: (back-to-back iterations, as produced by the integrators).  Lets the
    #: device view convert each boundary once instead of twice.
    back_to_back: bool = False

    def __post_init__(self) -> None:
        if self.starts_true.shape != self.ends_true.shape:
            raise SimulationError("start/end shape mismatch")

    @property
    def n_sm(self) -> int:
        return self.starts_true.shape[0]

    @property
    def n_iterations(self) -> int:
        return self.starts_true.shape[1]

    @property
    def completion_true(self) -> float:
        """True time when the last SM retires its last iteration."""
        return float(self.ends_true[:, -1].max()) if self.ends_true.size else 0.0

    def durations_true(self) -> np.ndarray:
        return self.ends_true - self.starts_true

    def as_device_view(self, gpu_clock) -> "DeviceTimestamps":
        """Convert to GPU-timer readings (offset, drift, 1 us quantization)."""
        ends = gpu_clock.convert_array(self.ends_true)
        if self.back_to_back and self.ends_true.shape[1] > 1:
            # Iteration k starts exactly when k-1 ends, and the conversion
            # is a pure function of the true timestamp — reuse the
            # converted ends instead of converting the same values again.
            starts = np.empty_like(ends)
            starts[:, 0] = gpu_clock.convert_array(self.starts_true[:, 0])
            starts[:, 1:] = ends[:, :-1]
        else:
            starts = gpu_clock.convert_array(self.starts_true)
        return DeviceTimestamps(starts=starts, ends=ends)


@dataclass
class DeviceTimestamps:
    """What the methodology sees: GPU-clock iteration timestamps."""

    starts: np.ndarray
    ends: np.ndarray

    @property
    def diffs(self) -> np.ndarray:
        """Per-iteration execution times as measured by the device timer."""
        return self.ends - self.starts

    @property
    def n_sm(self) -> int:
        return self.starts.shape[0]

    @property
    def n_iterations(self) -> int:
        return self.starts.shape[1]


def sample_iteration_cycles(
    rng: np.random.Generator,
    n_sm: int,
    n_iterations: int,
    cycles_per_iteration: float,
    noise_rel: float,
) -> np.ndarray:
    """Draw the per-iteration cycle-count matrix.

    Multiplicative Gaussian noise models pipeline/issue jitter; the floor at
    1 % of the mean keeps pathological draws physical.
    """
    if n_sm <= 0 or n_iterations <= 0:
        raise SimulationError("need at least one SM and one iteration")
    # In-place evaluation of cycles_per_iteration + (noise * cycles) * z:
    # the draw matrix is the hottest allocation in the simulator, so the
    # scalings reuse it instead of materializing temporaries, and the two
    # scalar factors are folded into one multiply.
    cycles = rng.standard_normal((n_sm, n_iterations))
    cycles *= noise_rel * cycles_per_iteration
    cycles += cycles_per_iteration
    np.maximum(cycles, 0.01 * cycles_per_iteration, out=cycles)
    return cycles


def _compile_trajectory(
    trajectory: FrequencyTrajectory, t0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment boundary times, frequencies (Hz) and cumulative cycles from t0."""
    segs = list(trajectory.iter_from(t0))
    tb = [s.t_start for s in segs] + [segs[-1].t_end]
    f_hz = [s.freq_hz for s in segs]
    if min(f_hz) <= 0:
        raise SimulationError("non-positive frequency in trajectory")
    g = _cumulative_cycles(tb, f_hz)
    return (
        np.array(tb, dtype=np.float64),
        np.array(f_hz, dtype=np.float64),
        np.array(g, dtype=np.float64),
    )


@dataclass
class PendingIntegration:
    """Deferred iteration-boundary integration for one kernel.

    Holds the compiled trajectory (boundary times ``tb``, segment
    frequencies ``f_hz``, cumulative cycles ``g``), the per-SM start times
    and cycle-integral offsets, and the cumulative cycle matrix.  The last
    iteration boundary of every SM — all the device needs for the
    completion time — is computed eagerly by :func:`prepare_integration`;
    the full matrix inversion runs only on :meth:`materialize`, which is
    idempotent (the result is cached, the cumulative buffer consumed).
    """

    tb: np.ndarray
    f_hz: np.ndarray
    g: np.ndarray
    sm_start_times: np.ndarray
    g_start: np.ndarray
    cycles_cum: np.ndarray | None
    last_ends_true: np.ndarray
    _ends: np.ndarray | None = field(default=None, repr=False)
    _result: KernelTimestamps | None = field(default=None, repr=False)

    @property
    def completion_true(self) -> float:
        """True time when the last SM retires its last iteration."""
        return float(self.last_ends_true.max())

    @property
    def cycles_shape(self) -> tuple[int, int]:
        """``(n_sm, n_iterations)`` of the pending kernel."""
        buf = self.cycles_cum if self.cycles_cum is not None else self._ends
        assert buf is not None
        return buf.shape

    def _invert(
        self, c_abs: np.ndarray, rows_sorted: bool = False
    ) -> np.ndarray:
        """Map absolute cycle targets to true times (in place on c_abs).

        The per-segment map ``(c - g_j) / f_j + tb_j`` is folded into the
        affine form ``c * (1/f_j) + (tb_j - g_j / f_j)`` — two gathers and
        two element passes instead of three of each.

        ``rows_sorted=True`` asserts every row of a 2-D input is
        nondecreasing (cumulative cycle rows always are), so the matrix
        splits into three column blocks.  The column-wise max is then
        nondecreasing too: the columns whose max stays below ``g[1]`` are
        entirely segment 0.  Likewise the columns whose column-wise min
        reaches ``g[n_seg-1]`` are entirely the last segment.  Each of those
        blocks maps through one scalar multiply+add; only the ramp band
        between them — the columns some SM spends inside the frequency
        staircase — pays for the per-element gather.  Every element gets
        the same segment and the same two float operations as on the
        gathered path, so the results are bit-identical.
        """
        n_seg = len(self.f_hz)
        inv_f = 1.0 / self.f_hz
        shift = self.tb[:n_seg] - self.g[:n_seg] * inv_f
        if n_seg == 1:
            # Constant-frequency fast path (fillers, post-settle kernels):
            # the inversion is a single linear map, so the searchsorted/
            # gather passes degenerate.
            c_abs *= inv_f[0]
            c_abs += shift[0]
            return c_abs
        if rows_sorted and c_abs.ndim == 2:
            # An element belongs to segment s when it reaches g[s] but not
            # g[s+1] (``side="right"`` semantics: boundary-valued elements
            # land in the later segment, zero-capacity segments get none).
            lo = int(np.searchsorted(c_abs.max(axis=0), self.g[1], side="left"))
            hi = int(
                np.searchsorted(c_abs.min(axis=0), self.g[n_seg - 1], side="left")
            )
            head = c_abs[:, :lo]
            head *= inv_f[0]
            head += shift[0]
            tail = c_abs[:, hi:]
            tail *= inv_f[n_seg - 1]
            tail += shift[n_seg - 1]
            if hi > lo:
                band = c_abs[:, lo:hi]
                j = np.searchsorted(self.g, band, side="right") - 1
                np.clip(j, 0, n_seg - 1, out=j)
                band *= inv_f[j]
                band += shift[j]
            return c_abs
        shape = c_abs.shape
        flat = c_abs.reshape(-1)
        j = np.searchsorted(self.g, flat, side="right") - 1
        j = np.minimum(j, n_seg - 1)
        flat *= inv_f[j]
        flat += shift[j]
        return flat.reshape(shape)

    def ends_true(self) -> np.ndarray:
        """All iteration-end boundaries (full inversion, cached).

        The pass-block pipeline consumes ends directly — with back-to-back
        iterations every start except the first per SM *is* the previous
        end, so a separate starts matrix never needs building there.
        """
        if self._ends is not None:
            return self._ends
        assert self.cycles_cum is not None, "pending buffers already consumed"
        c_abs = self.cycles_cum
        self.cycles_cum = None  # consumed in place below
        c_abs += self.g_start[:, None]
        # Cumulative cycle rows are nondecreasing (cycle draws are floored
        # strictly above zero), so the row-bisecting inversion applies.
        self._ends = self._invert(c_abs, rows_sorted=True)
        return self._ends

    def materialize(self) -> KernelTimestamps:
        """Run the full inversion and build the per-iteration boundaries."""
        if self._result is not None:
            return self._result
        ends = self.ends_true()
        starts = np.empty_like(ends)
        starts[:, 0] = self.sm_start_times
        starts[:, 1:] = ends[:, :-1]
        self._result = KernelTimestamps(
            starts_true=starts, ends_true=ends, back_to_back=True
        )
        return self._result


def prepare_integration(
    trajectory: FrequencyTrajectory,
    sm_start_times: np.ndarray,
    cycles: np.ndarray,
) -> PendingIntegration:
    """Stage one of the exact integration: compile, cumsum, last boundary.

    Parameters
    ----------
    trajectory:
        Effective SM frequency over time; must cover every start time and
        extend (possibly to infinity) past the last iteration.
    sm_start_times:
        ``(n_sm,)`` true start time of iteration 0 on each SM (kernel start
        plus block-scheduling stagger).
    cycles:
        ``(n_sm, n_iterations)`` cycle cost of every iteration.
    """
    sm_start_times = np.asarray(sm_start_times, dtype=np.float64)
    cycles = np.asarray(cycles, dtype=np.float64)
    if cycles.ndim != 2 or sm_start_times.shape != (cycles.shape[0],):
        raise SimulationError("shape mismatch between start times and cycles")

    t0 = float(sm_start_times.min())
    tb, f_hz, g = _compile_trajectory(trajectory, t0)
    return _prepare_from_compiled(tb, f_hz, g, sm_start_times, cycles)


def prepare_integration_from_boundaries(
    tb: np.ndarray,
    f_mhz: np.ndarray,
    sm_start_times: np.ndarray,
    cycles: np.ndarray,
    consume: bool = False,
) -> PendingIntegration:
    """Boundary-array twin of :func:`prepare_integration`.

    Consumes the segment form :meth:`DvfsClockDomain.compiled_segments`
    produces (boundary times with trailing ``inf``, per-segment MHz) —
    the hot path skips :class:`FrequencyTrajectory` object churn entirely.
    The MHz→Hz scaling is the trajectory's, and both entries build the
    cumulative cycles with :func:`_cumulative_cycles`, so they produce
    identical floats for identical segments.  ``consume=True``
    cumulates in place into the caller's ``cycles`` buffer (the device
    passes freshly drawn matrices it never rereads).
    """
    f_hz = f_mhz * 1e6
    f_list = f_hz.tolist()
    if min(f_list) <= 0:
        raise SimulationError("non-positive frequency in trajectory")
    g = np.array(_cumulative_cycles(tb.tolist(), f_list), dtype=np.float64)
    return _prepare_from_compiled(
        tb, f_hz, g, sm_start_times, cycles, consume=consume
    )


def _cumulative_cycles(tb: list, f_hz: list) -> list:
    """Cycle integral at each segment boundary, starting from 0.

    A running sum, the order ``np.cumsum`` adds in; the infinite last span
    gives an infinite last entry.  Both entries (:func:`prepare_integration`
    and :func:`prepare_integration_from_boundaries`) and
    :func:`single_sm_completion` build their tables here, so they agree
    float for float.
    """
    g = [0.0]
    acc = 0.0
    for k, f in enumerate(f_hz):
        acc += (tb[k + 1] - tb[k]) * f
        g.append(acc)
    return g


def single_sm_completion(
    tb: np.ndarray, f_mhz: np.ndarray, t0: float, total: float
) -> float:
    """Time one SM starting at ``t0`` retires ``total`` cycles.

    The plain-float twin of
    ``prepare_integration_from_boundaries(tb, f_mhz, [t0], [[total]])
    .completion_true`` for the untimed single-SM kernels (settle fillers)
    that dominate kernel counts: the same running-sum ``g``, ``bisect`` in
    place of ``searchsorted`` and the same ``c * (1/f) + (tb - g*(1/f))``
    map, so the result is the same float without the array pipeline.

    Tables of at most two segments use a closed form (``t0 + total/f0``,
    or the split at ``tb[1]``) that rounds differently from the twin in
    the last ulp; the golden campaign hashes pin it.
    """
    n_seg = len(f_mhz)
    if n_seg <= 2:
        f0 = float(f_mhz[0]) * 1e6
        if n_seg == 1 or t0 + total / f0 <= float(tb[1]):
            return t0 + total / f0
        spent = (float(tb[1]) - t0) * f0
        return float(tb[1]) + (total - spent) / (float(f_mhz[1]) * 1e6)
    tb = tb.tolist()
    f_hz = [f * 1e6 for f in f_mhz.tolist()]
    if min(f_hz) <= 0:
        raise SimulationError("non-positive frequency in trajectory")
    g = _cumulative_cycles(tb, f_hz)
    i = min(bisect.bisect_right(tb, t0) - 1, n_seg - 1)
    c = total + (g[i] + (t0 - tb[i]) * f_hz[i])
    j = min(bisect.bisect_right(g, c) - 1, n_seg - 1)
    inv_f = 1.0 / f_hz[j]
    return c * inv_f + (tb[j] - g[j] * inv_f)


def _prepare_from_compiled(
    tb: np.ndarray,
    f_hz: np.ndarray,
    g: np.ndarray,
    sm_start_times: np.ndarray,
    cycles: np.ndarray,
    consume: bool = False,
) -> PendingIntegration:
    sm_start_times = np.asarray(sm_start_times, dtype=np.float64)
    cycles = np.asarray(cycles, dtype=np.float64)
    if cycles.ndim != 2 or sm_start_times.shape != (cycles.shape[0],):
        raise SimulationError("shape mismatch between start times and cycles")
    if len(f_hz) == 1:
        g_start = g[0] + (sm_start_times - tb[0]) * f_hz[0]
    else:
        # Cycle-integral value at each SM's start time.
        idx0 = np.searchsorted(tb, sm_start_times, side="right") - 1
        idx0 = np.minimum(idx0, len(f_hz) - 1)
        g_start = g[idx0] + (sm_start_times - tb[idx0]) * f_hz[idx0]

    cycles_cum = np.cumsum(cycles, axis=1, out=cycles if consume else None)

    pending = PendingIntegration(
        tb=tb,
        f_hz=f_hz,
        g=g,
        sm_start_times=sm_start_times,
        g_start=g_start,
        cycles_cum=cycles_cum,
        last_ends_true=np.empty(0),
    )
    # The last boundary per SM: the same (cum + g_start) then invert
    # elementwise sequence the materialized path applies to every column,
    # restricted to the final one — bit-identical to ends[:, -1].
    pending.last_ends_true = pending._invert(
        cycles_cum[:, -1] + g_start
    )
    return pending


def integrate_iterations(
    trajectory: FrequencyTrajectory,
    sm_start_times: np.ndarray,
    cycles: np.ndarray,
) -> KernelTimestamps:
    """Exact vectorized integration of iteration boundaries.

    One-shot convenience over :func:`prepare_integration` +
    :meth:`PendingIntegration.materialize` (see module docs).
    """
    return prepare_integration(trajectory, sm_start_times, cycles).materialize()


def integrate_iterations_reference(
    trajectory: FrequencyTrajectory,
    sm_start_times: np.ndarray,
    cycles: np.ndarray,
) -> KernelTimestamps:
    """Scalar reference implementation (one iteration at a time).

    Advances each iteration through trajectory segments by explicit cycle
    accounting.  Used by the property-based tests to validate
    :func:`integrate_iterations`; O(n_sm × n_iter × n_seg), so keep inputs
    small.
    """
    sm_start_times = np.asarray(sm_start_times, dtype=np.float64)
    cycles = np.asarray(cycles, dtype=np.float64)
    n_sm, n_iter = cycles.shape
    segs = list(trajectory.iter_from(float(sm_start_times.min())))
    starts = np.empty((n_sm, n_iter))
    ends = np.empty((n_sm, n_iter))
    for i in range(n_sm):
        t = float(sm_start_times[i])
        for k in range(n_iter):
            starts[i, k] = t
            remaining = float(cycles[i, k])
            while remaining > 0.0:
                seg = next(s for s in segs if s.t_end > t)
                f = seg.freq_hz
                capacity = (seg.t_end - t) * f
                if remaining <= capacity:
                    t += remaining / f
                    remaining = 0.0
                else:
                    remaining -= capacity
                    t = seg.t_end
            ends[i, k] = t
    return KernelTimestamps(starts_true=starts, ends_true=ends)
