"""The listener index and silent probes keep every side effect of a probe.

The sharded scanner, the dataset providers and the active SSH stage only
connect to endpoints in :meth:`SimulatedInternet.listeners`; every other
target goes to :meth:`SimulatedInternet.silent_probes`.  These tests pin
that nothing observable is lost by that split: against the serial
:meth:`InternetScanner.scan_protocol` oracle, which still probes every
target, the indexed campaign makes the same observer calls, fault-checks
the same flows, fails on the same shard tasks and advances the loss
model's per-flow attempt counters identically.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro.analysis.fingerprint import HoneypotFingerprinter
from repro.core import faults
from repro.core.faults import FaultInjector, FaultPlan
from repro.internet.fabric import SimulatedInternet
from repro.internet.host import SimulatedHost
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.errors import FaultError, TaskFailure
from repro.protocols.telnet import TelnetConfig, TelnetServer
from repro.scanner.records import ScanDatabase
from repro.scanner.shard import ShardPlanner
from repro.scanner.zmap import InternetScanner, ScanConfig

SHARDS = 3


def _world(loss_rate=0.0):
    """A fresh ~230-host world (fresh per run: servers and the loss
    model keep per-instance state)."""
    return PopulationBuilder(
        PopulationConfig(
            seed=7, scale=65_536, honeypot_scale=1024, loss_rate=loss_rate
        )
    ).build()


def _indexed(internet, **config):
    # Thread executor: process workers would probe copies of the world,
    # out of sight of the observers and counters under test.
    scanner = InternetScanner(
        internet, ScanConfig(shards=SHARDS, executor="thread", **config)
    )
    database = scanner.run_campaign()
    database.probes_sent = scanner.probes_sent
    return database


def _reference(internet, **config):
    scanner = InternetScanner(internet, ScanConfig(**config))
    database = ScanDatabase()
    for protocol in scanner.config.protocols:
        database.extend(scanner.scan_protocol(protocol))
    database = database.sorted_canonical()
    database.probes_sent = scanner.probes_sent
    return database


def _observed(run, **world):
    internet = _world(**world).internet
    calls = []
    internet.observers.append(lambda *probe: calls.append(probe))
    database = run(internet)
    return Counter(calls), database, internet


class _KeyRecorder(FaultInjector):
    """An injector that records every ``fabric.connect`` key it checks."""

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__(plan)
        self.keys = set()

    def would_fail(self, site, *key):
        if site == "fabric.connect":
            self.keys.add(key)
        return super().would_fail(site, *key)


def _checked_keys(run, spec):
    recorder = _KeyRecorder(FaultPlan.parse(spec, seed=5))
    internet = _world().internet
    with faults.injected(recorder):
        database = run(internet)
    return recorder.keys, database


class TestListenerIndex:
    def _host(self, address, port=23):
        return SimulatedHost(
            address=address,
            services={port: TelnetServer(TelnetConfig())},
        )

    def test_names_exactly_the_hosts_serving_the_port(self):
        internet = SimulatedInternet(
            [self._host(1), self._host(2, port=2323), self._host(3)]
        )
        assert internet.listeners(23) == {1, 3}
        assert internet.listeners(2323) == {2}
        assert internet.listeners(1883) == frozenset()

    def test_add_and_remove_host_invalidate_the_index(self):
        internet = SimulatedInternet([self._host(1)])
        assert internet.listeners(23) == {1}
        internet.add_host(self._host(2))
        assert internet.listeners(23) == {1, 2}
        internet.remove_host(1)
        assert internet.listeners(23) == {2}
        internet.remove_host(99)  # absent: nothing moves
        assert internet.listeners(23) == {2}

    def test_index_is_not_pickled(self):
        internet = SimulatedInternet([self._host(1)])
        before = len(pickle.dumps(internet))
        internet.listeners(23)
        assert len(pickle.dumps(internet)) == before
        restored = pickle.loads(pickle.dumps(internet))
        assert restored.listeners(23) == {1}

    def test_unarmed_fabric_never_reads_the_silent_flows(self):
        def flows():
            raise AssertionError("silent flows consumed")
            yield  # pragma: no cover

        SimulatedInternet().silent_probes(1, flows(), "tcp", 2)


class TestObserverCalls:
    def test_indexed_campaign_matches_the_oracle(self):
        indexed, database, _ = _observed(_indexed)
        reference, oracle, _ = _observed(_reference)
        assert indexed == reference
        assert database.to_jsonl() == oracle.to_jsonl()
        assert database.probes_sent == oracle.probes_sent
        # The multiset is dominated by silent probes, so this is not
        # vacuous: most of those calls reached no listener.
        assert sum(indexed.values()) > 4 * len(database)

    def test_ssh_stage_observes_every_candidate(self):
        internet = _world().internet
        calls = []
        internet.observers.append(lambda *probe: calls.append(probe))
        candidates = [host.address for host in internet.hosts()]
        report = HoneypotFingerprinter().active_ssh_probe(
            internet, candidates, prober_address=9
        )
        assert Counter(calls) == Counter(
            (9, address, 22, "tcp") for address in candidates
        )
        assert report.count("Kippo") == len(internet.listeners(22)) == 1


class TestFaultChecks:
    def test_same_flows_are_fault_checked(self):
        indexed, database = _checked_keys(_indexed, "fabric.connect:0")
        reference, oracle = _checked_keys(_reference, "fabric.connect:0")
        assert indexed == reference
        assert database.to_jsonl() == oracle.to_jsonl()

    def test_transient_faults_retry_to_the_same_database(self):
        baseline = _indexed(_world().internet).to_jsonl()
        reference, _ = _checked_keys(_reference, "fabric.connect:0")
        indexed, database = _checked_keys(
            lambda internet: _indexed(internet, retries=8),
            "fabric.connect:0.004",
        )
        assert indexed == reference
        assert database.to_jsonl() == baseline

    def test_ssh_stage_checks_every_candidate(self):
        internet = _world().internet
        candidates = [host.address for host in internet.hosts()]
        recorder = _KeyRecorder(FaultPlan.parse("fabric.connect:0", seed=5))
        with faults.injected(recorder):
            HoneypotFingerprinter().active_ssh_probe(
                internet, candidates, prober_address=9
            )
        assert recorder.keys == {
            (9, address, 22, "tcp") for address in candidates
        }

    @pytest.mark.parametrize("rate", ["1", "0.01"])
    def test_fails_on_the_same_shard_tasks(self, rate):
        # Each run is narrowed to one shard's addresses (shard assignment
        # is a pure address function, so the other shards are empty):
        # the campaign then fails exactly when that shard task fails.
        planner = ShardPlanner(SHARDS)
        shards = planner.partition(
            sorted(host.address for host in _world().internet.hosts())
        )
        plan = FaultPlan.parse(f"fabric.connect:{rate}:fatal", seed=5)
        indexed, reference = set(), set()
        tasks = 0
        for protocol in ScanConfig().protocols:
            for shard, addresses in enumerate(shards):
                tasks += 1
                config = ScanConfig(
                    protocols=(protocol,), shards=SHARDS, executor="thread"
                )
                own = frozenset(addresses).__contains__
                with faults.injected(plan):
                    try:
                        InternetScanner(
                            _world().internet, config, host_filter=own
                        ).run_campaign()
                    except TaskFailure as failure:
                        assert failure.ref == planner.refs(str(protocol))[shard]
                        indexed.add((protocol, shard))
                    try:
                        InternetScanner(
                            _world().internet, config, host_filter=own
                        ).scan_protocol(protocol)
                    except FaultError:
                        reference.add((protocol, shard))
        assert indexed == reference
        if rate == "1":
            assert len(indexed) == tasks
        else:
            assert 0 < len(indexed) < tasks


class TestLossCounters:
    def test_indexed_campaign_advances_the_same_flows(self):
        _, database, lossy = _observed(_indexed, loss_rate=0.12)
        _, oracle, reference = _observed(_reference, loss_rate=0.12)
        assert lossy.loss_model._attempts == reference.loss_model._attempts
        assert database.to_jsonl() == oracle.to_jsonl()
        # UDP silence exhausts every retry, so some flows saw two draws.
        assert max(lossy.loss_model._attempts.values()) == 2

    def test_ssh_stage_draws_for_every_candidate(self):
        internet = _world(loss_rate=0.12).internet
        candidates = [host.address for host in internet.hosts()]
        HoneypotFingerprinter().active_ssh_probe(
            internet, candidates, prober_address=9
        )
        assert internet.loss_model._attempts == {
            (9, address, 22, "tcp"): 1 for address in candidates
        }

