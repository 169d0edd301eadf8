"""Tests for the SM iteration engine, including matrix-vs-reference
equivalence property tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.gpusim.sm import (
    PendingIntegration,
    integrate_iterations,
    prepare_integration_from_boundaries,
    sample_iteration_cycles,
    single_sm_completion,
)
from repro.gpusim.trajectory import FrequencyTrajectory
from repro.simtime.clock import HardwareClock, VirtualClock
from tests.oracles import integrate_iterations_reference


def constant_trajectory(freq_mhz: float = 1000.0) -> FrequencyTrajectory:
    return FrequencyTrajectory.from_events(0.0, freq_mhz, [])


def switching_trajectory() -> FrequencyTrajectory:
    # 1000 MHz for 1 ms, ramp step, then 500 MHz.
    return FrequencyTrajectory.from_events(
        0.0, 1000.0, [(1e-3, 750.0), (1.2e-3, 500.0)]
    )


class TestSampling:
    def test_shape(self):
        rng = np.random.default_rng(0)
        c = sample_iteration_cycles(rng, 4, 100, 1e5, 0.002)
        assert c.shape == (4, 100)

    def test_positive(self):
        rng = np.random.default_rng(0)
        c = sample_iteration_cycles(rng, 2, 1000, 1e5, 0.5)
        assert (c > 0).all()

    def test_mean_near_nominal(self):
        rng = np.random.default_rng(0)
        c = sample_iteration_cycles(rng, 8, 5000, 1e5, 0.002)
        assert c.mean() == pytest.approx(1e5, rel=1e-3)

    def test_invalid_shape_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            sample_iteration_cycles(rng, 0, 10, 1e5, 0.002)


class TestIntegration:
    def test_constant_frequency_durations(self):
        cycles = np.full((2, 50), 1e5)
        ts = integrate_iterations(
            constant_trajectory(1000.0), np.zeros(2), cycles
        )
        # 1e5 cycles at 1000 MHz = 100 us per iteration.
        np.testing.assert_allclose(ts.durations_true(), 1e-4, rtol=1e-12)

    def test_back_to_back(self):
        cycles = np.full((1, 20), 1e5)
        ts = integrate_iterations(constant_trajectory(), np.zeros(1), cycles)
        np.testing.assert_allclose(
            ts.starts_true[0, 1:], ts.ends_true[0, :-1], rtol=0, atol=0
        )

    def test_stagger_respected(self):
        cycles = np.full((3, 5), 1e5)
        starts = np.array([0.0, 1e-6, 2e-6])
        ts = integrate_iterations(constant_trajectory(), starts, cycles)
        np.testing.assert_allclose(ts.starts_true[:, 0], starts)

    def test_durations_scale_with_frequency(self):
        cycles = np.full((1, 2000), 1e5)
        ts = integrate_iterations(switching_trajectory(), np.zeros(1), cycles)
        d = ts.durations_true()[0]
        assert d[0] == pytest.approx(1e-4, rel=1e-9)       # 1000 MHz
        assert d[-1] == pytest.approx(2e-4, rel=1e-9)      # 500 MHz

    def test_straddling_iteration_exact(self):
        # One iteration spans the boundary at t=1e-3 between 1000 and 500 MHz.
        traj = FrequencyTrajectory.from_events(0.0, 1000.0, [(1e-3, 500.0)])
        # 9 iterations of 1e5 cycles consume 0.9 ms; the 10th starts at
        # 0.9 ms, runs 0.1 ms at 1000 MHz (1e5... only 1e5*0.1e-3*1e9?).
        cycles = np.full((1, 10), 1e5)
        ts = integrate_iterations(traj, np.zeros(1), cycles)
        # Iteration 10 executes 1e-4 s * 1e9 Hz = 1e5 cycles... at 1000 MHz
        # the first 0.1 ms covers 1e5 cycles exactly, so iteration 10 ends
        # exactly at the boundary.
        assert ts.ends_true[0, -1] == pytest.approx(1e-3, rel=1e-12)

    def test_straddling_iteration_partial(self):
        traj = FrequencyTrajectory.from_events(0.0, 1000.0, [(0.95e-3, 500.0)])
        cycles = np.full((1, 10), 1e5)
        ts = integrate_iterations(traj, np.zeros(1), cycles)
        # Iteration 10 starts at 0.9 ms; 0.05 ms at 1000 MHz covers 5e4
        # cycles, the remaining 5e4 at 500 MHz takes 0.1 ms.
        assert ts.ends_true[0, -1] == pytest.approx(0.9e-3 + 0.05e-3 + 0.1e-3)

    def test_completion_is_max_end(self):
        cycles = np.full((3, 4), 1e5)
        starts = np.array([0.0, 5e-6, 1e-6])
        ts = integrate_iterations(constant_trajectory(), starts, cycles)
        assert ts.completion_true == ts.ends_true[:, -1].max()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            integrate_iterations(
                constant_trajectory(), np.zeros(3), np.full((2, 4), 1e5)
            )


class TestDeviceView:
    def test_quantization_applied(self):
        clock = VirtualClock()
        gpu_clock = HardwareClock(clock, offset=10.0, granularity=1e-6)
        cycles = np.full((1, 10), 1e5)
        ts = integrate_iterations(constant_trajectory(), np.zeros(1), cycles)
        view = ts.as_device_view(gpu_clock)
        # All timestamps are (up to float representation) whole microseconds.
        assert np.allclose(np.round(view.starts * 1e6), view.starts * 1e6)
        assert np.allclose(np.round(view.ends * 1e6), view.ends * 1e6)

    def test_diffs_close_to_true_durations(self):
        clock = VirtualClock()
        gpu_clock = HardwareClock(clock, offset=10.0, granularity=1e-6)
        cycles = np.full((2, 100), 1e5)
        ts = integrate_iterations(constant_trajectory(), np.zeros(2), cycles)
        view = ts.as_device_view(gpu_clock)
        np.testing.assert_allclose(
            view.diffs, ts.durations_true(), atol=1.1e-6
        )


@given(
    n_sm=st.integers(1, 4),
    n_iter=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    n_events=st.integers(0, 4),
)
@settings(max_examples=40, deadline=None)
def test_matrix_equals_reference(n_sm, n_iter, seed, n_events):
    """The closed-form vectorized integration must match the scalar
    cycle-accounting reference exactly (same cycles input)."""
    rng = np.random.default_rng(seed)
    events = sorted(
        (float(rng.uniform(1e-5, 3e-3)), float(rng.choice([400.0, 800.0, 1600.0])))
        for _ in range(n_events)
    )
    traj = FrequencyTrajectory.from_events(0.0, 1000.0, events)
    starts = rng.uniform(0.0, 1e-5, size=n_sm)
    cycles = 1e4 * (1.0 + 0.01 * rng.standard_normal((n_sm, n_iter)))
    fast = integrate_iterations(traj, starts, cycles)
    slow = integrate_iterations_reference(traj, starts, cycles)
    np.testing.assert_allclose(fast.ends_true, slow.ends_true, rtol=1e-9)
    np.testing.assert_allclose(fast.starts_true, slow.starts_true, rtol=1e-9)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_total_cycles_conserved(seed):
    """Sum of iteration durations x frequency equals total cycles."""
    rng = np.random.default_rng(seed)
    traj = FrequencyTrajectory.from_events(
        0.0, 1000.0, [(1e-3, 500.0), (2e-3, 1500.0)]
    )
    cycles = 1e4 * (1.0 + 0.01 * rng.standard_normal((2, 200)))
    ts = integrate_iterations(traj, np.zeros(2), cycles)
    for i in range(2):
        executed = 0.0
        for s, e in zip(ts.starts_true[i], ts.ends_true[i]):
            # Integrate frequency over [s, e] piecewise.
            for seg in traj.iter_from(0.0):
                lo, hi = max(s, seg.t_start), min(e, seg.t_end)
                if hi > lo:
                    executed += (hi - lo) * seg.freq_hz
        assert executed == pytest.approx(cycles[i].sum(), rel=1e-9)


# ----------------------------------------------------------------------
# bit-exactness of the fast paths
# ----------------------------------------------------------------------
def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _segment_table(capacities, f_hz, t_first=0.0):
    """``(tb, f_hz, g)`` with the given per-segment cycle capacities (the
    last segment is unbounded); zero capacities give empty segments."""
    f_hz = np.asarray(f_hz, dtype=np.float64)
    g = np.concatenate([[0.0], np.cumsum(capacities), [np.inf]])
    tb = [t_first]
    for cap, f in zip(capacities, f_hz):
        tb.append(tb[-1] + cap / f)
    return np.array(tb + [np.inf]), f_hz, g


def _assert_band_inversion_exact(capacities, f_hz, c_abs):
    tb, f_hz, g = _segment_table(capacities, f_hz, t_first=1.5)
    n_seg = len(f_hz)
    n_sm = c_abs.shape[0]
    pending = PendingIntegration(
        tb=tb, f_hz=f_hz, g=g,
        sm_start_times=np.zeros(n_sm), g_start=np.zeros(n_sm),
        cycles_cum=None, last_ends_true=np.empty(0),
    )
    # The elementwise gathered formula, one segment lookup per element.
    inv_f = 1.0 / f_hz
    shift = tb[:n_seg] - g[:n_seg] * inv_f
    j = np.clip(np.searchsorted(g, c_abs, side="right") - 1, 0, n_seg - 1)
    expected = c_abs * inv_f[j] + shift[j]
    banded = pending._invert(c_abs.copy(), rows_sorted=True)
    gathered = pending._invert(c_abs.copy())
    assert np.array_equal(_bits(banded), _bits(expected))
    assert np.array_equal(_bits(gathered), _bits(expected))


@st.composite
def sorted_rows_and_table(draw):
    n_seg = draw(st.integers(2, 6))
    capacities = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1.0, 1e6)),
        min_size=n_seg - 1, max_size=n_seg - 1,
    ))
    f_hz = draw(st.lists(st.floats(1e8, 2e9), min_size=n_seg, max_size=n_seg))
    g = np.concatenate([[0.0], np.cumsum(capacities)])
    # Boundary-valued elements are drawn explicitly, the rest anywhere from
    # before the first boundary to past the last one.
    value = st.one_of(
        st.sampled_from(g.tolist()), st.floats(0.0, float(g[-1]) * 1.5 + 1.0)
    )
    n_sm = draw(st.integers(1, 5))
    n_cols = draw(st.integers(1, 30))
    rows = [
        sorted(draw(st.lists(value, min_size=n_cols, max_size=n_cols)))
        for _ in range(n_sm)
    ]
    return capacities, f_hz, np.array(rows)


@given(sorted_rows_and_table())
@settings(max_examples=200, deadline=None)
def test_band_inversion_bit_exact(case):
    """The three-block banded inversion equals the per-element gathered
    formula bit for bit on any nondecreasing rows."""
    _assert_band_inversion_exact(*case)


@pytest.mark.parametrize(
    "capacities,rows",
    [
        # staggered rows with a ramp band in the middle
        ([10.0, 10.0, 10.0], [[1, 5, 12, 25, 40], [3, 9, 18, 29, 35]]),
        # every column inside the band
        ([10.0, 10.0, 10.0], [[10, 15, 25], [12, 18, 29.5]]),
        # empty band: each column all in segment 0 or all in the last
        ([10.0, 10.0], [[1, 2, 40, 50], [3, 4, 35, 60]]),
        # elements exactly on boundaries, including a zero-capacity segment
        ([10.0, 0.0, 10.0], [[0, 10, 10, 20, 20], [10, 10, 20, 20, 30]]),
        # zero-capacity first and last bounded segments
        ([0.0, 10.0, 0.0], [[0, 0, 5, 10, 10, 11]]),
        # a single row and a single column
        ([10.0, 10.0], [[15.0]]),
        ([10.0, 10.0], [[5.0], [15.0], [25.0]]),
    ],
)
def test_band_inversion_edges(capacities, rows):
    f_hz = [1e9, 7e8, 3e8, 1.3e9][: len(capacities) + 1]
    _assert_band_inversion_exact(capacities, f_hz, np.array(rows, dtype=float))


@given(
    n_seg=st.integers(3, 8),
    start=st.sampled_from(["boundary", "inside"]),
    finish=st.sampled_from(["boundary", "free"]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_single_sm_completion_bit_exact(n_seg, start, finish, data):
    """The plain-float filler completion equals the array pipeline's
    completion bit for bit on tables of three or more segments."""
    spans = data.draw(
        st.lists(st.floats(1e-6, 1e-2), min_size=n_seg - 1, max_size=n_seg - 1)
    )
    f_mhz = np.array(
        data.draw(st.lists(st.floats(100.0, 2000.0), min_size=n_seg, max_size=n_seg))
    )
    t_first = data.draw(st.floats(0.0, 100.0))
    tb = np.concatenate([[t_first], t_first + np.cumsum(spans), [np.inf]])
    if start == "boundary":
        t0 = float(tb[data.draw(st.integers(0, n_seg - 1))])
    else:
        t0 = t_first + data.draw(st.floats(0.0, 1.0)) * (tb[n_seg - 1] - t_first)
    if finish == "boundary":
        probe = prepare_integration_from_boundaries(
            tb, f_mhz, np.array([t0]), np.array([[1.0]])
        )
        g_start = float(probe.g_start[0])
        later = [float(x) for x in probe.g[1:n_seg] if x > g_start]
        assume(later)
        total = data.draw(st.sampled_from(later)) - g_start
    else:
        total = data.draw(st.floats(1.0, 1e8))
    expected = prepare_integration_from_boundaries(
        tb, f_mhz, np.array([t0]), np.array([[total]])
    ).completion_true
    got = single_sm_completion(tb, f_mhz, t0, total)
    assert _bits(got) == _bits(expected)


def test_single_sm_completion_keeps_closed_form_for_short_tables():
    """One- and two-segment tables keep the older closed form."""
    t0, total = 0.25, 3.7e6
    one = single_sm_completion(np.array([t0, np.inf]), np.array([1410.0]), t0, total)
    assert _bits(one) == _bits(t0 + total / (1410.0 * 1e6))
    tb = np.array([t0, t0 + 1e-3, np.inf])
    f_mhz = np.array([1410.0, 705.0])
    spent = (tb[1] - t0) * 1410.0 * 1e6
    two = single_sm_completion(tb, f_mhz, t0, total)
    assert _bits(two) == _bits(tb[1] + (total - spent) / (705.0 * 1e6))
