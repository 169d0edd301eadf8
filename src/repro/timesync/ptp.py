"""Two-way (IEEE 1588 / PTP) offset estimation between host and GPU clocks.

The exchange per round::

    t1 = CPU clock at request send
    t2 = GPU clock at request arrival      (after uplink delay d_up)
    t3 = GPU clock at response send
    t4 = CPU clock at response arrival     (after downlink delay d_down)

    offset = ((t2 - t1) + (t3 - t4)) / 2
    delay  = ((t4 - t1) - (t3 - t2)) / 2

The classic estimator is exact when ``d_up == d_down``; path asymmetry
biases the offset by ``(d_up - d_down)/2``.  PCIe register reads are nearly
symmetric, so after taking the minimum-delay round over several exchanges
the residual error is bounded by jitter plus GPU timer quantization — a few
microseconds, negligible against millisecond-scale switching latencies.

The result converts CPU timestamps into the accelerator timebase exactly as
Algorithm 2 line 6 does: ``t_acc = t_cpu - cpu_sync + acc_sync``.

Draw-order contract
-------------------
The handshake consumes the host RNG in one fixed, batched order per call —
uplink jitter ``(rounds, 2)``, spike uniforms ``(rounds, 2)``, spike
magnitudes ``(rounds, 2)``, turnaround uniforms ``(rounds,)`` — rather than
round by round.  Spike magnitudes are always drawn and applied only where
the spike uniform fires, so the number of draws is a pure function of
``rounds``.  This is the canonical entry in the campaign's RNG draw-order
ledger (see DESIGN.md): every measurement pass, speculated or not,
performs exactly this sequence, which is what keeps a campaign
bit-identical for every pass-block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.device import GpuDevice
from repro.simtime.host import HostCpu

__all__ = ["PtpLink", "SyncResult", "synchronize_timers"]


@dataclass(frozen=True)
class PtpLink:
    """Transport model for the synchronization handshake.

    ``asymmetry_s`` shifts the uplink/downlink split: the uplink takes
    ``base + asymmetry`` and the downlink ``base - asymmetry`` on average,
    producing the classic un-detectable PTP bias.
    """

    base_delay_s: float = 1.5e-6
    jitter_scale_s: float = 0.4e-6
    asymmetry_s: float = 0.0
    spike_prob: float = 0.01
    spike_scale_s: float = 30e-6

    def sample_delay(self, rng: np.random.Generator, direction: str) -> float:
        """One transport delay (kept for API stability and unit tests).

        The handshake itself uses :meth:`sample_delays` — a different,
        batched draw order — so calling this does *not* reproduce the
        draws :func:`synchronize_timers` makes.
        """
        sign = 1.0 if direction == "up" else -1.0
        delay = (
            self.base_delay_s
            + sign * self.asymmetry_s
            + float(rng.exponential(self.jitter_scale_s))
        )
        if rng.random() < self.spike_prob:
            delay += float(rng.exponential(self.spike_scale_s))
        return max(delay, 1e-9)

    def sample_delays(
        self, rng: np.random.Generator, rounds: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched uplink/downlink delays for ``rounds`` exchanges.

        Returns ``(up, down)`` arrays of shape ``(rounds,)``.  The draw
        order is fixed (jitter, spike uniforms, spike magnitudes — each
        ``(rounds, 2)`` with up in column 0) so the stream consumption is
        independent of which rounds spike.
        """
        jitter = rng.exponential(self.jitter_scale_s, size=(rounds, 2))
        spike_u = rng.random((rounds, 2))
        spikes = rng.exponential(self.spike_scale_s, size=(rounds, 2))
        delays = jitter
        delays += self.base_delay_s
        delays[:, 0] += self.asymmetry_s
        delays[:, 1] -= self.asymmetry_s
        delays += np.where(spike_u < self.spike_prob, spikes, 0.0)
        np.maximum(delays, 1e-9, out=delays)
        return delays[:, 0], delays[:, 1]


@dataclass(frozen=True)
class SyncResult:
    """Matched (cpu_sync, acc_sync) reference pair plus quality metadata."""

    cpu_sync: float
    acc_sync: float
    offset: float
    path_delay: float
    rounds: int
    delay_spread: float

    def cpu_to_acc(self, t_cpu: float) -> float:
        """Convert a CPU timestamp into the accelerator timebase."""
        return t_cpu - self.cpu_sync + self.acc_sync

    def acc_to_cpu(self, t_acc: float) -> float:
        return t_acc - self.acc_sync + self.cpu_sync


def synchronize_timers(
    host: HostCpu,
    device: GpuDevice,
    rounds: int = 16,
    link: PtpLink | None = None,
) -> SyncResult:
    """Run ``rounds`` two-way exchanges; keep the minimum-delay round.

    The minimum-delay filter discards rounds inflated by transport spikes
    (the standard PTP servo trick), leaving the offset estimate limited by
    quantization and intrinsic jitter.
    """
    if rounds < 1:
        raise SimulationError("need at least one sync round")
    link = link or PtpLink()
    rng = host.rng

    # All transport draws for the handshake happen up front in the fixed
    # batched order (see the module docstring), then the whole exchange is
    # evaluated as array math: the true-time grid is the running sum of
    # the per-leg durations, and the hardware-timer views are vectorized
    # conversions of that grid.  The machine clock commits once at the end.
    up, down = link.sample_delays(rng, rounds)
    turnaround = rng.uniform(0.2e-6, 0.6e-6, size=rounds)

    t0 = host.clock.now
    grid = np.empty(3 * rounds + 1)
    grid[0] = 0.0
    legs = grid[1:].reshape(rounds, 3)
    legs[:, 0] = up
    legs[:, 1] = turnaround
    legs[:, 2] = down
    np.cumsum(grid, out=grid)
    grid += t0

    # One conversion sweep per clock domain over the whole grid; the
    # per-round views below are slices of the converted buffers.
    t_host = host.os_clock.convert_array(grid)
    t_gpu = device.gpu_clock.convert_array(grid)
    t1 = t_host[0::3][:-1]
    t2 = t_gpu[1::3]
    t3 = t_gpu[2::3]
    t4 = t_host[3::3]

    delays = (((t4 - t1) - (t3 - t2)) / 2.0).tolist()
    # Minimum-delay filtering; index() keeps the first minimum, matching
    # the strict-less comparison of the original round-by-round loop.
    # Only the winning round's offset is needed, so it is computed on
    # plain floats (the same expression the array form evaluates).
    shortest = min(delays)
    best = delays.index(shortest)
    t1b, t2b, t3b, t4b = (
        float(t1[best]), float(t2[best]), float(t3[best]), float(t4[best])
    )
    offset = ((t2b - t1b) + (t3b - t4b)) / 2.0

    host.clock.advance_to(float(grid[-1]))
    # The grid bypassed HardwareClock.read() (pure conversions instead);
    # one real read per clock re-arms the monotonic guard and _last_read
    # bookkeeping for later callers, and asserts consistency once per
    # handshake.  No time passes and no draws are consumed.
    host.os_clock.read()
    device.gpu_clock.read()
    return SyncResult(
        cpu_sync=t1b,
        acc_sync=t1b + offset,
        offset=offset,
        path_delay=shortest,
        rounds=rounds,
        delay_spread=max(delays) - shortest,
    )
