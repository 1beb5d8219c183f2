"""ZTag-style annotation: enrich raw scan records with metadata tags.

The paper "leverage[s] ZTag, a tool for annotation of raw data with
additional metadata ... The banners and static responses are used as
metadata for tagging the device types" (Section 4.1.2).  Our tag engine is
the same idea: an ordered signature table of (substring, tags) applied to
each record's banner/response text; first match wins within a namespace.

The engine indexes the table by protocol once, and again on each
:meth:`TagEngine.add`: each protocol's bucket holds that protocol's
signatures plus the protocol-free ones, in table order, so a record is
only tested against signatures that can match it.  A record's banner and response are decoded
at most once, and only when a signature looks at them.  Tagging a record
stops early once every namespace the bucket can tag is set, since later
signatures could no longer change it.  The result equals testing every
signature with :meth:`TagSignature.matches` in table order.

The device-type signature set itself lives with the analysis layer
(:mod:`repro.analysis.device_type`) and is compiled from the Table 11
catalog, keeping the engine generic and reusable (the honeypot
fingerprinter uses the same machinery with its own signatures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.scanner.records import ScanDatabase, ScanRecord

__all__ = ["TagSignature", "TagEngine", "TaggedRecord"]

#: One protocol's slice of the table: ``(namespace count, rules)``, a rule
#: being ``(needle, test banner, test response, tags)``.
_Rule = Tuple[str, bool, bool, Tuple[Tuple[str, str], ...]]
_Bucket = Tuple[int, Tuple[_Rule, ...]]


@dataclass(frozen=True)
class TagSignature:
    """One match rule: if ``needle`` appears, apply ``tags``."""

    needle: str
    tags: Tuple[Tuple[str, str], ...]  # ((namespace, value), ...)
    #: Restrict to records of one protocol value ("" = any).
    protocol: str = ""
    #: Match against "banner", "response" or "any".
    where: str = "any"

    def matches(self, record: ScanRecord) -> bool:
        if self.protocol and str(record.protocol) != self.protocol:
            return False
        if self.where in ("banner", "any") and self.needle in record.banner_text:
            return True
        if self.where in ("response", "any") and self.needle in record.response_text:
            return True
        return False


@dataclass
class TaggedRecord:
    """A scan record plus its namespace → value tags."""

    record: ScanRecord
    tags: Dict[str, str] = field(default_factory=dict)

    def tag(self, namespace: str) -> Optional[str]:
        """The value tagged under ``namespace`` (None = untagged)."""
        return self.tags.get(namespace)


class TagEngine:
    """Applies an ordered signature table to scan records."""

    def __init__(self, signatures: Iterable[TagSignature]) -> None:
        self._signatures: List[TagSignature] = list(signatures)
        self._reindex()

    def add(self, signature: TagSignature) -> None:
        """Append one signature (lowest priority)."""
        self._signatures.append(signature)
        self._reindex()

    def _reindex(self) -> None:
        """Bucket the table by protocol, keeping table order in each bucket.

        Protocol-free signatures go into every bucket and make up the
        bucket used for any protocol no signature names.
        """
        def bucket(protocol: Optional[str]) -> _Bucket:
            rules = tuple(
                (
                    signature.needle,
                    signature.where in ("banner", "any"),
                    signature.where in ("response", "any"),
                    signature.tags,
                )
                for signature in self._signatures
                if signature.protocol in ("", protocol)
            )
            namespaces = {name for rule in rules for name, _ in rule[3]}
            return len(namespaces), rules

        protocols = {s.protocol for s in self._signatures if s.protocol}
        self._buckets: Dict[str, _Bucket] = {
            protocol: bucket(protocol) for protocol in protocols
        }
        self._wildcard: _Bucket = bucket(None)

    def tag_record(self, record: ScanRecord) -> TaggedRecord:
        """Tag one record; first matching signature wins per namespace."""
        tagged = TaggedRecord(record=record)
        tags = tagged.tags
        namespaces, rules = self._buckets.get(
            str(record.protocol), self._wildcard
        )
        banner = response = None
        for needle, in_banner, in_response, rule_tags in rules:
            if in_banner:
                if banner is None:
                    banner = record.banner_text
                hit = needle in banner
            else:
                hit = False
            if not hit and in_response:
                if response is None:
                    response = record.response_text
                hit = needle in response
            if hit:
                for namespace, value in rule_tags:
                    tags.setdefault(namespace, value)
                if len(tags) == namespaces:
                    break
        return tagged

    def tag_all(self, records: Iterable[ScanRecord]) -> List[TaggedRecord]:
        """Tag a record collection."""
        return [self.tag_record(record) for record in records]

    def tag_database(self, database: ScanDatabase) -> List[TaggedRecord]:
        """Tag every row of a database (columnar row views, no copies)."""
        return [self.tag_record(row) for row in database.iter_rows()]

    def __len__(self) -> int:
        return len(self._signatures)
