"""Scan blocklists: ZMap defaults and the FireHOL Europe list.

The paper's scans "followed the default blocklist provided by ZMap and the
European blocklist from the FireHOL Project" (Section 3.1.1, Appendix A.3).
We model both:

* :func:`zmap_default_blocklist` — the reserved/special-purpose ranges ZMap
  never probes (we reuse the substrate's reserved blocks);
* :class:`GeoBlocklist` — blocks by registry country, which is how a
  continental list like FireHOL's behaves at our block granularity.

Blocklists compose: a :class:`CompositeBlocklist` blocks when any member
does.  The interplay the benchmarks explore: a ZMap scan behind the Europe
blocklist misses EU devices, and the open-dataset correlation step is what
restores them to the misconfiguration totals.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.net.geo import GeoRegistry
from repro.net.ipv4 import RESERVED_BLOCKS, CidrBlock

__all__ = [
    "Blocklist",
    "CidrBlocklist",
    "GeoBlocklist",
    "CompositeBlocklist",
    "zmap_default_blocklist",
    "EU_COUNTRIES",
]

#: Countries in our registry that a European blocklist covers.
EU_COUNTRIES = frozenset({"DE", "FR", "GB"})


class Blocklist:
    """Interface: does this address get probed?"""

    def blocks(self, address: int) -> bool:
        """True when the address must not be probed."""
        raise NotImplementedError


class CidrBlocklist(Blocklist):
    """Blocks membership in a set of CIDR ranges.

    The ``(netmask, network)`` pair of every block is computed once, so a
    membership test is one mask-and-compare per block.  Lists compare and
    hash by their blocks: every ``zmap_default_blocklist()`` is the same
    key, which lets scanners share one admitted-address list per world
    (see :func:`~repro.scanner.zmap.admitted_addresses`).
    """

    def __init__(self, blocks: Sequence[CidrBlock]) -> None:
        self._blocks: Tuple[CidrBlock, ...] = tuple(blocks)
        self._masks: Tuple[Tuple[int, int], ...] = tuple(
            (block.netmask, block.network) for block in self._blocks
        )

    def blocks(self, address: int) -> bool:
        for mask, network in self._masks:
            if address & mask == network:
                return True
        return False

    def __len__(self) -> int:
        return len(self._blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CidrBlocklist):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash(self._blocks)


class GeoBlocklist(Blocklist):
    """Blocks by registry country (models continental lists like FireHOL EU)."""

    def __init__(self, geo: GeoRegistry, countries: Iterable[str]) -> None:
        self._geo = geo
        self._countries = frozenset(countries)

    def blocks(self, address: int) -> bool:
        return self._geo.country_of(address) in self._countries


class CompositeBlocklist(Blocklist):
    """Blocks when any member blocklist does."""

    def __init__(self, members: Sequence[Blocklist]) -> None:
        self._members = list(members)

    def blocks(self, address: int) -> bool:
        return any(member.blocks(address) for member in self._members)


def zmap_default_blocklist() -> CidrBlocklist:
    """ZMap's stock blocklist: reserved and special-purpose space."""
    return CidrBlocklist(RESERVED_BLOCKS)
