"""Unit tests for the CPU core executor (repro.cpu.core)."""

import numpy as np
import pytest

from repro.cpu.core import CpuCore, SegmentAccount
from repro.cpu.costs import SegmentCosts
from repro.sim import Environment, JitterModel


def make_core(record_samples=False, jitter=None):
    env = Environment()
    core = CpuCore(
        env,
        SegmentCosts(),
        jitter or JitterModel.deterministic(),
        np.random.default_rng(0),
        record_samples=record_samples,
    )
    return env, core


class TestExecute:
    def test_advances_clock_by_cost(self):
        env, core = make_core()

        def body():
            yield from core.execute("md_setup")

        env.run(until=env.process(body()))
        assert env.now == pytest.approx(27.78)

    def test_returns_duration(self):
        env, core = make_core()

        def body():
            duration = yield from core.execute("llp_prog")
            return duration

        assert env.run(until=env.process(body())) == pytest.approx(61.63)

    def test_mean_override(self):
        env, core = make_core()

        def body():
            yield from core.execute("custom_segment", mean=100.0)

        env.run(until=env.process(body()))
        assert env.now == pytest.approx(100.0)

    def test_unknown_segment_without_mean_rejected(self):
        env, core = make_core()

        def body():
            yield from core.execute("no_such_segment")

        with pytest.raises(AttributeError):
            env.run(until=env.process(body()))

    def test_zero_duration_segment(self):
        env, core = make_core()

        def body():
            yield from core.execute("zero", mean=0.0)
            return env.now

        assert env.run(until=env.process(body())) == 0.0

    def test_sequential_execution_accumulates(self):
        env, core = make_core()

        def body():
            yield from core.execute("md_setup")
            yield from core.execute("barrier_md")

        env.run(until=env.process(body()))
        assert env.now == pytest.approx(27.78 + 17.33)


class TestCharge:
    def test_accounts_like_execute_without_advancing_time(self):
        env, charged = make_core(jitter=JitterModel())
        _, executed = make_core(jitter=JitterModel())
        duration = charged.charge("llp_prog")
        assert env.now == 0.0

        def body():
            yield from executed.execute("llp_prog")

        executed.env.run(until=executed.env.process(body()))
        assert executed.env.now == duration
        assert charged.account("llp_prog").total_ns == duration
        assert charged.account("llp_prog").count == 1
        assert charged.busy_ns == executed.busy_ns
        assert (
            charged.rng.bit_generator.state == executed.rng.bit_generator.state
        )

    def test_mean_override(self):
        _, core = make_core()
        assert core.charge("custom", mean=40.0) == 40.0
        assert core.account("custom").total_ns == 40.0

    def test_charger_matches_charge(self):
        _, by_name = make_core(record_samples=True, jitter=JitterModel())
        _, hoisted = make_core(record_samples=True, jitter=JitterModel())
        charge = hoisted.charger("llp_prog")
        drawn = [charge() for _ in range(50)]
        assert drawn == [by_name.charge("llp_prog") for _ in range(50)]
        assert hoisted.account("llp_prog") == by_name.account("llp_prog")
        assert hoisted.busy_ns == by_name.busy_ns


class TestAccounting:
    def test_account_counts_and_totals(self):
        env, core = make_core()

        def body():
            for _ in range(3):
                yield from core.execute("llp_prog")

        env.run(until=env.process(body()))
        account = core.account("llp_prog")
        assert account.count == 3
        assert account.total_ns == pytest.approx(3 * 61.63)
        assert account.mean_ns == pytest.approx(61.63)

    def test_missing_account_is_empty(self):
        _env, core = make_core()
        account = core.account("never_run")
        assert account.count == 0
        assert account.mean_ns == 0.0

    def test_busy_time_tracked(self):
        env, core = make_core()

        def body():
            yield from core.execute("md_setup")

        env.run(until=env.process(body()))
        assert core.busy_ns == pytest.approx(27.78)

    def test_utilization(self):
        env, core = make_core()

        def body():
            yield from core.execute("md_setup")
            yield env.timeout(27.78)  # idle for as long as it worked

        env.run(until=env.process(body()))
        assert core.utilization() == pytest.approx(0.5)

    def test_utilization_zero_at_time_zero(self):
        _env, core = make_core()
        assert core.utilization() == 0.0

    def test_samples_recorded_when_requested(self):
        env, core = make_core(record_samples=True)

        def body():
            yield from core.execute("md_setup")
            yield from core.execute("md_setup")

        env.run(until=env.process(body()))
        assert core.account("md_setup").samples == pytest.approx([27.78, 27.78])

    def test_samples_not_recorded_by_default(self):
        env, core = make_core()

        def body():
            yield from core.execute("md_setup")

        env.run(until=env.process(body()))
        assert core.account("md_setup").samples == []


class TestJitter:
    def test_noisy_durations_vary_but_average_to_mean(self):
        env, core = make_core(
            record_samples=True, jitter=JitterModel(cv=0.1, outlier_prob=0.0)
        )

        def body():
            for _ in range(2000):
                yield from core.execute("pio_copy_64b")

        env.run(until=env.process(body()))
        samples = np.array(core.account("pio_copy_64b").samples)
        assert samples.std() > 0
        assert samples.mean() == pytest.approx(94.25, rel=0.02)

    def test_ground_truth_mean_tracks_account(self):
        env, core = make_core()

        def body():
            yield from core.execute("md_setup")

        env.run(until=env.process(body()))
        assert core.ground_truth_mean("md_setup") == pytest.approx(27.78)


class TestSegmentAccountDataclass:
    def test_empty_mean(self):
        assert SegmentAccount().mean_ns == 0.0
