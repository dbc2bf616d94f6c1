"""Tracer semantics: category enablement, ring buffer, ambient install."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.trace import (
    CATEGORIES,
    DEFAULT_CATEGORIES,
    Tracer,
    active,
    channel,
    current,
    parse_categories,
)


class TestParseCategories:
    def test_default_excludes_kernel_firehose(self):
        assert parse_categories(None) == DEFAULT_CATEGORIES
        assert parse_categories("default") == DEFAULT_CATEGORIES
        assert "kernel" not in DEFAULT_CATEGORIES

    def test_all_is_every_category(self):
        assert parse_categories("all") == CATEGORIES

    def test_comma_list_canonical_order(self):
        # Spec order does not matter; canonical order comes back.
        assert parse_categories("pna, control") == ("control", "pna")
        assert parse_categories(["backend", "kernel"]) == (
            "kernel", "backend")

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_categories("control,typo")
        with pytest.raises(ConfigurationError):
            parse_categories("")


class TestTracer:
    def test_enabled_channel_collects_events(self):
        tracer = Tracer("control,pna")
        ch = tracer.channel("control")
        ch.emit(1.5, "wakeup_publish", instance="oddci-1")
        ch.emit(2.0, "reset_publish")
        assert tracer.events() == [
            (1.5, "control", "wakeup_publish", {"instance": "oddci-1"}),
            (2.0, "control", "reset_publish", None),
        ]
        assert tracer.emitted == len(tracer) == 2
        assert tracer.dropped == 0

    def test_disabled_category_has_no_channel(self):
        tracer = Tracer("control")
        assert tracer.channel("kernel") is None
        assert tracer.channel("backend") is None

    def test_ring_keeps_newest_and_counts_drops(self):
        tracer = Tracer("runner", ring=3)
        ch = tracer.channel("runner")
        for i in range(10):
            ch.emit(float(i), "tick")
        assert len(tracer) == 3
        assert tracer.emitted == 10
        assert tracer.dropped == 7
        assert [ev[0] for ev in tracer.events()] == [7.0, 8.0, 9.0]

    def test_bad_ring_rejected(self):
        with pytest.raises(ConfigurationError):
            Tracer("runner", ring=0)

    def test_clear_resets_counts(self):
        tracer = Tracer("runner")
        tracer.channel("runner").emit(0.0, "x")
        tracer.clear()
        assert tracer.events() == [] and tracer.emitted == 0

    def test_channel_metric_shortcuts_share_registry(self):
        tracer = Tracer("control")
        ch = tracer.channel("control")
        ch.counter("census.heartbeats").inc(5)
        ch.gauge("fleet.size").set(42)
        ch.histogram("delivery.batch_size").observe(3)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["census.heartbeats"] == 5
        assert snap["gauges"]["fleet.size"] == 42
        assert snap["histograms"]["delivery.batch_size"]["count"] == 1


class TestAmbientInstall:
    def test_channel_is_none_without_tracer(self):
        assert current() is None
        assert channel("control") is None

    def test_install_uninstall(self):
        with active(Tracer("control")) as tracer:
            assert current() is tracer
            assert channel("control") is tracer.channel("control")
            assert channel("backend") is None  # not enabled
        assert channel("control") is None

    def test_active_restores_previous(self):
        outer, inner = Tracer("pna"), Tracer("backend")
        with active(outer):
            assert current() is outer
            with active(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None
