"""Differential tests pinning the scan and classify hot paths.

Each fast path is checked against the straightforward loop it replaced:

* the protocol-indexed :class:`TagEngine` against testing every
  signature with :meth:`TagSignature.matches` in table order;
* :class:`CidrBlocklist`'s precomputed masks against ``any(block.contains)``,
  and the once-per-world admitted list against a per-campaign sort;
* the columnar :meth:`ScanDatabase.merge`, ``where`` and
  :meth:`DatasetProvider.snapshot` against row-at-a-time copies;
* the run-copying :func:`strip_iac` against its byte-at-a-time loop.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set

import pytest

from repro import Study, StudyConfig
from repro.analysis.device_type import build_device_signatures
from repro.core.columns import numpy_available
from repro.internet.host import SimulatedHost
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.ipv4 import RESERVED_BLOCKS, CidrBlock, ip_to_int
from repro.net.prng import RandomStream
from repro.protocols.base import ProtocolId
from repro.protocols.telnet import (
    DO,
    DONT,
    IAC,
    SB,
    SE,
    WILL,
    WONT,
    strip_iac,
)
from repro.scanner.blocklist import CidrBlocklist, zmap_default_blocklist
from repro.scanner.datasets import project_sonar, shodan
from repro.scanner.records import ScanDatabase
from repro.scanner.zmap import InternetScanner, ScanConfig, admitted_addresses
from repro.scanner.ztag import TagEngine, TagSignature

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
FIELDS = ("address", "port", "protocol", "transport", "banner",
          "response", "timestamp", "source")


def rows_of(database: ScanDatabase) -> List[tuple]:
    return list(zip(*(database.column(name) for name in FIELDS)))


def build_world(seed: int):
    return PopulationBuilder(
        PopulationConfig(seed=seed, scale=4096, honeypot_scale=512)
    ).build()


@pytest.fixture(scope="module", params=[7, 23])
def merged(request):
    study = Study(StudyConfig.quick(seed=request.param), cache=False)
    study.engine.ensure("merged_db")
    return study.engine.artifact("merged_db")


# -- ZTag matcher ---------------------------------------------------------

#: Signatures beyond the device table, which are all protocol-bound and
#: ``where="any"``: protocol-free ones, each ``where``, a protocol no
#: record carries, an unknown ``where`` (matches nothing), and overlapping
#: namespaces so first-match-wins is exercised across buckets.
EXTRA_SIGNATURES = [
    TagSignature("login", (("auth", "login"), ("device_type", "Banner"))),
    TagSignature("#", (("auth", "shell"),), where="banner"),
    TagSignature("\\x", (("encoding", "binary"),), where="response"),
    TagSignature("HTTP", (("encoding", "http"),), where="any"),
    TagSignature("", (("seen", "yes"),), where="banner"),
    TagSignature("root", (("auth", "root"),), protocol="telnet",
                 where="banner"),
    TagSignature("MQTT", (("device_type", "Broker"),), protocol="mqtt",
                 where="response"),
    TagSignature("x", (("ghost", "x"),), protocol="gopher"),
    TagSignature("a", (("odd", "a"),), where="both"),
]


def reference_tags(signatures: List[TagSignature], record) -> Dict[str, str]:
    tags: Dict[str, str] = {}
    for signature in signatures:
        if signature.matches(record):
            for namespace, value in signature.tags:
                tags.setdefault(namespace, value)
    return tags


class TestTagEngine:
    @pytest.mark.parametrize("order", ["extras_first", "device_first"])
    def test_indexed_engine_equals_linear_reference(self, merged, order):
        device = build_device_signatures()
        table = (EXTRA_SIGNATURES + device if order == "extras_first"
                 else device + EXTRA_SIGNATURES)
        engine = TagEngine(table)
        matched = 0
        for row in merged.iter_rows():
            tags = engine.tag_record(row).tags
            assert tags == reference_tags(table, row), row
            matched += bool(tags)
        assert matched > 0

    def test_add_after_first_use_reindexes(self, merged):
        table = build_device_signatures()
        engine = TagEngine(table)
        rows = list(merged.iter_rows())
        for row in rows[:50]:
            engine.tag_record(row)
        for signature in EXTRA_SIGNATURES:
            engine.add(signature)
            table = table + [signature]
        assert len(engine) == len(table)
        for row in rows:
            assert engine.tag_record(row).tags == reference_tags(table, row)

    def test_empty_engine_tags_nothing(self, merged):
        engine = TagEngine([])
        assert all(not tagged.tags for tagged in engine.tag_database(merged))


# -- admission -------------------------------------------------------------

class TestAdmission:
    BLOCKS = list(RESERVED_BLOCKS) + [
        CidrBlock.parse("203.0.113.7/32"),
        CidrBlock.parse("1.2.3.0/31"),
        CidrBlock.parse("128.0.0.0/1"),
    ]

    def test_masks_equal_any_contains_on_block_edges(self):
        everything = [CidrBlock.parse("0.0.0.0/0")]
        for blocks in (RESERVED_BLOCKS, self.BLOCKS, everything, []):
            blocklist = CidrBlocklist(blocks)
            probes = set()
            for block in self.BLOCKS:
                for address in (block.first, block.last,
                                block.first - 1, block.last + 1):
                    if 0 <= address <= 0xFFFFFFFF:
                        probes.add(address)
            for address in sorted(probes):
                expected = any(block.contains(address) for block in blocks)
                assert blocklist.blocks(address) == expected, address

    def test_equal_lists_share_one_key(self):
        assert zmap_default_blocklist() == zmap_default_blocklist()
        assert (hash(zmap_default_blocklist())
                == hash(zmap_default_blocklist()))
        assert zmap_default_blocklist() != CidrBlocklist(RESERVED_BLOCKS[:3])

    def test_admitted_list_equals_per_campaign_sort(self):
        internet = build_world(7).internet
        blocklist = CidrBlocklist(self.BLOCKS)

        def reference() -> List[int]:
            return sorted(host.address for host in internet.hosts()
                          if not blocklist.blocks(host.address))

        first = admitted_addresses(internet, blocklist)
        assert first == reference()
        assert admitted_addresses(internet, CidrBlocklist(self.BLOCKS)) is first
        # Attaching and detaching hosts invalidates the cached list.
        extra = SimulatedHost(address=ip_to_int("45.33.32.156"))
        internet.add_host(extra)
        assert admitted_addresses(internet, blocklist) == reference()
        assert extra.address in admitted_addresses(internet, blocklist)
        internet.remove_host(extra.address)
        assert admitted_addresses(internet, blocklist) == reference()

    def test_host_filter_narrows_the_sorted_admitted_list(self):
        internet = build_world(23).internet
        stream = RandomStream(23, "test.filter")
        included: Set[int] = {host.address for host in internet.hosts()
                              if stream.bernoulli(0.4)}
        scanner = InternetScanner(internet, ScanConfig(seed=23),
                                  host_filter=included.__contains__)
        blocks = scanner.blocklist.blocks
        assert scanner._allowed_addresses() == sorted(
            host.address for host in internet.hosts()
            if host.address in included and not blocks(host.address)
        )


# -- columnar copies -------------------------------------------------------

def rowwise_merge(first: ScanDatabase, *others: ScanDatabase) -> ScanDatabase:
    """The row-at-a-time first-wins merge the columnar one replaced."""
    seen = set()
    merged = ScanDatabase(backend=first.backend)
    for db in (first,) + others:
        for row in db.iter_rows():
            key = (row.address, row.port, row.protocol)
            if key not in seen:
                seen.add(key)
                merged.add(row)
    return merged


def rowwise_snapshot(provider, internet) -> ScanDatabase:
    """The per-row ``extend`` snapshot the columnar one replaced."""
    database = ScanDatabase()
    for protocol, rate in provider.coverage.items():
        stream = RandomStream(provider.seed,
                              f"dataset.{provider.name}.{protocol}")
        included = {host.address for host in internet.hosts()
                    if stream.bernoulli(min(1.0, rate))}
        blocks = zmap_default_blocklist().blocks
        scanner = InternetScanner(
            internet,
            ScanConfig(scanner_address=provider.scanner_address,
                       protocols=(protocol,), seed=provider.seed),
            host_filter=included.__contains__,
        )
        assert scanner._allowed_addresses() == sorted(
            address for address in included if not blocks(address))
        snapshot = scanner.run_campaign()
        restrictions = (provider.port_restrictions or {}).get(protocol)
        if restrictions is not None:
            snapshot = snapshot.where(port=restrictions)
        snapshot.set_source(provider.name)
        database.extend(snapshot.iter_rows())
    return database


class TestColumnarCopies:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_merge_equals_rowwise_first_wins(self, merged, backend):
        base = ScanDatabase(backend=backend)
        base.append_batch(rows_of(merged))
        # Overlapping inputs with different payloads: the first copy of
        # every key must win, including duplicates inside one input.
        half = ScanDatabase()
        half.append_batch(rows_of(merged)[::2])
        half.set_source("other")
        doubled = ScanDatabase()
        doubled.append_batch(rows_of(merged)[1::3] * 2)
        doubled.set_source("doubled")
        # Same (address, port) under another protocol is a distinct key.
        relabeled = ScanDatabase()
        relabeled.append_batch(
            (row[0], row[1],
             ProtocolId.COAP if row[2] == ProtocolId.UPNP else ProtocolId.UPNP,
             *row[3:])
            for row in rows_of(merged)[::5]
        )
        inputs = (half, base, doubled, relabeled)
        expected = rowwise_merge(*inputs)
        assert len(expected) > len(base)
        assert rows_of(half.merge(*inputs[1:])) == rows_of(expected)
        chained = base.merge(half).merge(doubled).merge(relabeled)
        assert rows_of(chained) == rows_of(
            rowwise_merge(base, half, doubled, relabeled))
        assert rows_of(base.merge(half, doubled, relabeled)) == rows_of(chained)
        assert base.merge(half, doubled).backend == backend

    def test_merge_of_nothing_copies(self, merged):
        copy = merged.merge()
        assert copy is not merged
        assert rows_of(copy) == rows_of(merged)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_where_equals_rowwise_selection(self, merged, backend):
        base = ScanDatabase(backend=backend)
        base.append_batch(rows_of(merged))

        def every_third(row):
            return row.address % 3 == 0

        for filters, keep in (
            ({"port": (23, 2323)}, lambda row: row.port in (23, 2323)),
            ({"protocol": ProtocolId.MQTT},
             lambda row: row.protocol == ProtocolId.MQTT),
            ({"port": 5683, "source": "zmap"},
             lambda row: row.port == 5683 and row.source == "zmap"),
            ({"predicate": every_third}, every_third),
            ({}, lambda row: True),
        ):
            expected = ScanDatabase(backend=backend)
            for row in base.iter_rows():
                if keep(row):
                    expected.add(row)
            selected = base.where(**filters)
            assert selected.backend == backend
            assert rows_of(selected) == rows_of(expected), filters

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_selection_still_grows(self, merged, backend):
        base = ScanDatabase(backend=backend)
        base.append_batch(rows_of(merged))
        for empty in (base.where(port=1), base.where(port=1).sorted_canonical()):
            assert len(empty) == 0
            empty.add(merged.row(0))
            empty.append_batch(rows_of(merged)[:3])
            assert rows_of(empty) == [rows_of(merged)[0]] + rows_of(merged)[:3]

    @pytest.mark.parametrize("make", [project_sonar, shodan])
    @pytest.mark.parametrize("seed", [7, 23])
    def test_snapshot_equals_rowwise_extend(self, make, seed):
        # A fresh world per scan run: servers advance per-session state.
        provider = make(seed)
        expected = rowwise_snapshot(provider, build_world(seed).internet)
        actual = provider.snapshot(build_world(seed).internet)
        assert len(actual) > 0
        assert rows_of(actual) == rows_of(expected)
        assert actual.backend == expected.backend


# -- Telnet IAC stripping --------------------------------------------------

def reference_strip_iac(data: bytes) -> bytes:
    out = bytearray()
    index = 0
    while index < len(data):
        byte = data[index]
        if byte != IAC:
            out.append(byte)
            index += 1
            continue
        if index + 1 >= len(data):
            out.append(byte)
            index += 1
            continue
        command = data[index + 1]
        if command in (DO, DONT, WILL, WONT) and index + 2 < len(data):
            index += 3
        elif command == SB:
            end = data.find(bytes([IAC, SE]), index + 2)
            index = end + 2 if end >= 0 else len(data)
        elif command == IAC:
            out.append(IAC)
            index += 2
        else:
            index += 2
    return bytes(out)


class TestStripIac:
    def test_equals_bytewise_loop(self):
        rng = random.Random(13)
        alphabet = [IAC, IAC, DO, DONT, WILL, WONT, SB, SE, 0x41, 0x0A, 0x18]
        for _ in range(20_000):
            data = bytes(rng.choice(alphabet)
                         for _ in range(rng.randint(0, 14)))
            assert strip_iac(data) == reference_strip_iac(data), data

    def test_equals_bytewise_loop_on_scanned_banners(self, merged):
        for banner in merged.column("banner"):
            assert strip_iac(banner) == reference_strip_iac(banner)
