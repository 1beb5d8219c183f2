"""Overload safety on the stream layer.

Operator isolation, the bounded publish queue and its three shed
policies, ring-lag errors for slow tail consumers, the service
watchdog, and graceful drain — the backpressure half of the
supervised-runtime contract.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import StudyConfig
from repro.net.errors import ConfigError, CursorLagError
from repro.stream import CampaignService, EventBus, RingBuffer, StreamConfig


class _Op:
    """A minimal operator: records batches; optionally fails or blocks."""

    def __init__(self, name="op", plane="scan", fail=False, gate=None):
        self.name = name
        self.plane = plane
        self.fail = fail
        self.gate = gate
        self.batches = []

    def feed(self, rows):
        if self.gate is not None:
            self.gate.wait(10.0)
        if self.fail:
            raise RuntimeError("operator exploded")
        self.batches.append(list(rows))


def _wait_queue_empty(bus, timeout=5.0):
    """Wait until the pump has *picked up* every queued batch."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with bus._cond:
            if not bus._queue:
                return
        time.sleep(0.01)
    raise AssertionError("publish queue never drained to the pump")


class TestOperatorIsolation:
    def test_exception_is_counted_and_peers_still_fed(self):
        bus = EventBus()
        bad = bus.register(_Op(name="bad", fail=True))
        good = bus.register(_Op(name="good"))
        count = bus.publish("scan", [1, 2, 3])
        assert count == 3
        assert bus.operator_errors == {"bad": 1}
        assert "RuntimeError" in bus.last_operator_error
        assert good.batches == [[1, 2, 3]]
        assert bad.batches == []
        assert bus.published["scan"] == 3  # the store still saw the rows


class TestPublishPolicies:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigError):
            EventBus(queue_capacity=4, publish_policy="yolo")
        with pytest.raises(ConfigError):
            EventBus(queue_capacity=-1)

    def _gated_bus(self, policy):
        gate = threading.Event()
        bus = EventBus(queue_capacity=2, publish_policy=policy)
        sink = bus.register(_Op(name="sink", gate=gate))
        # Batch 0 is picked up by the pump and parks on the gate, leaving
        # the queue itself free for exactly two more batches.
        bus.publish("scan", [0])
        _wait_queue_empty(bus)
        bus.publish("scan", [1])
        bus.publish("scan", [2])
        return bus, sink, gate

    def test_block_policy_is_lossless(self):
        bus, sink, gate = self._gated_bus("block")
        blocked = threading.Thread(target=bus.publish, args=("scan", [3]))
        blocked.start()
        time.sleep(0.2)
        assert blocked.is_alive()  # full queue holds the publisher
        gate.set()
        blocked.join(timeout=10.0)
        assert not blocked.is_alive()
        assert bus.drain(timeout=10.0)
        assert sink.batches == [[0], [1], [2], [3]]
        assert bus.dropped_batches == bus.dropped_rows == 0
        bus.close()

    def test_drop_oldest_sheds_the_stalest_batch(self):
        bus, sink, gate = self._gated_bus("drop_oldest")
        bus.publish("scan", [3, 3])  # queue full: batch [1] is shed
        gate.set()
        assert bus.drain(timeout=10.0)
        assert sink.batches == [[0], [2], [3, 3]]
        assert bus.dropped_batches == 1
        assert bus.dropped_rows == 1
        bus.close()

    def test_latest_policy_keeps_only_the_newest(self):
        bus, sink, gate = self._gated_bus("latest")
        bus.publish("scan", [3, 3])  # queue full: [1] and [2] are shed
        gate.set()
        assert bus.drain(timeout=10.0)
        assert sink.batches == [[0], [3, 3]]
        assert bus.dropped_batches == 2
        assert bus.dropped_rows == 2
        bus.close()

    def test_publish_after_close_is_refused(self):
        bus = EventBus(queue_capacity=2)
        bus.publish("scan", [1])
        assert bus.drain(timeout=10.0)
        bus.close()
        with pytest.raises(ConfigError):
            bus.publish("scan", [2])

    def test_synchronous_bus_drains_trivially(self):
        bus = EventBus()  # queue_capacity=0: delivery on the caller
        assert bus.drain() is True
        assert bus.drain(timeout=0.0) is True


class TestRingLag:
    def test_lagging_cursor_raises_with_resume_point(self):
        ring = RingBuffer(capacity=4)
        ring.extend(range(10))
        assert ring.dropped == 6
        with pytest.raises(CursorLagError) as caught:
            ring.tail(3)
        assert caught.value.oldest == 6
        assert caught.value.dropped == 3
        # The advertised resume point works.
        cursor, items = ring.tail(caught.value.oldest)
        assert items == [6, 7, 8, 9]
        assert cursor == 10

    def test_cursor_zero_means_from_oldest_never_lags(self):
        ring = RingBuffer(capacity=4)
        ring.extend(range(10))
        cursor, items = ring.tail(0)
        assert items == [6, 7, 8, 9]
        assert cursor == 10
        assert ring.tail(cursor) == (10, [])

    def test_cursor_ahead_of_ring_is_kept_so_later_evictions_lag(self):
        ring = RingBuffer(capacity=2)
        assert ring.tail(1) == (1, [])
        ring.extend(range(5))
        with pytest.raises(CursorLagError) as caught:
            ring.tail(1)
        assert caught.value.oldest == 3
        assert caught.value.dropped == 2


class TestServiceOverload:
    def test_async_campaign_matches_batch_under_block_policy(self):
        service = CampaignService(
            StudyConfig.quick(seed=7),
            stream=StreamConfig(queue_capacity=4, publish_policy="block"),
        )
        service.run()
        assert service.state == "done"
        assert service.verify_against_batch() == []
        status = service.status()
        assert status["publish_policy"] == "block"
        assert status["queue_capacity"] == 4
        assert status["dropped_batches"] == 0
        assert status["dropped_rows"] == 0
        assert status["stalled"] is False
        assert service.study.metrics.bus is not None
        assert service.study.metrics.bus.dropped_batches == 0

    def test_watchdog_raises_a_stall_alert(self):
        service = CampaignService(
            StudyConfig.quick(seed=7),
            stream=StreamConfig(stall_timeout=0.2),
        )
        slow = _Op(name="slow", plane="scan")
        original = slow.feed

        def sleepy_feed(rows, _once=[True]):
            if _once and _once.pop():
                time.sleep(0.8)  # one delivery stalls past the timeout
            return original(rows)

        slow.feed = sleepy_feed
        service.bus.register(slow)
        service.run()
        assert service.state == "done"
        _, alerts = service.bus.alerts.tail(0)
        assert any(alert.kind == "watchdog-stall" for alert in alerts)

    def test_drain_stops_and_flushes(self):
        service = CampaignService(
            StudyConfig.quick(seed=7),
            stream=StreamConfig(queue_capacity=4, publish_policy="block"),
        ).start()
        assert service.drain(timeout=60.0) is True
        assert service.finished
        assert service.bus.drain(timeout=0.0) is True
