"""Pure helpers shared by ``run.py``, its units and its tests.

Nothing here imports ``repro``: ``run.py`` must be able to load this
module (and refuse to run) in a checkout that has no program in it.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

WORKLOADS = ("study-cold", "stream-serve", "orchestrate-queue")

#: The one line of ``repro run`` output that depends on the clock.
TIMING_LINE = re.compile(r"^study completed in [0-9.]+s$")

#: Campaigns one stream-serve unit runs back to back, and how their seeds
#: derive from the workload seed.  Distinct seeds keep the process-wide
#: phase cache from answering a campaign.
STREAM_CAMPAIGNS = 4

#: Seeds one orchestrate-queue unit computes and then resubmits.
ORCHESTRATE_SEEDS = 2


def campaign_seeds(seed: int, count: int) -> List[int]:
    """``count`` distinct study seeds derived from the workload seed."""
    return [seed * 16 + index + 1 for index in range(count)]


def report_digest(text: str) -> str:
    """sha256 of ``repro run`` output without its ``study completed`` line."""
    kept = [line for line in text.split("\n") if not TIMING_LINE.match(line)]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


def digest_of(document: object) -> str:
    """sha256 of a JSON-able document in canonical form."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- statistics -------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def reconcile(wall: float, busy: Dict[str, float]) -> Dict[str, float]:
    """Attribute a traced wall to layers; the remainder is unattributed.

    The layer busy times plus ``unattributed`` add up to ``wall`` by
    construction; ``share`` is the unattributed part of the wall.
    """
    unattributed = wall - sum(busy.values())
    return {
        "wall": wall,
        "attributed": wall - unattributed,
        "unattributed": unattributed,
        "share": unattributed / wall if wall > 0 else 0.0,
    }


# -- python -X importtime ---------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s?(.*)$")


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Self time in seconds per import group from ``-X importtime`` output.

    Groups are ``repro``, ``numpy`` and ``other`` (every other top-level
    package, the standard library included).
    """
    totals = {"repro": 0.0, "numpy": 0.0, "other": 0.0}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue  # the header line, or unrelated stderr
        top = match.group(3).strip().split(".")[0]
        group = top if top in ("repro", "numpy") else "other"
        totals[group] += int(match.group(1)) / 1e6
    return totals


# -- server-sent events -----------------------------------------------------

def sse_frames(lines: Iterable[str]) -> Iterator[Tuple[str, str]]:
    """(event, data) pairs from the lines of a text/event-stream body."""
    event: Optional[str] = None
    data: List[str] = []
    for raw in lines:
        line = raw.rstrip("\r\n")
        if not line:
            if event is not None:
                yield event, "\n".join(data)
            event, data = None, []
        elif line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data.append(line[len("data:"):].strip())
    if event is not None:
        yield event, "\n".join(data)


# -- the correctness gate ---------------------------------------------------

def unit_failures(
    workload: str, record: Dict[str, object], reference: Optional[str],
) -> List[str]:
    """Why one unit's outputs are wrong (empty when they are right).

    ``reference`` is the digest the unit must reproduce: the pinned one
    for the seed, else the first unit's of the run.
    """
    failures: List[str] = []
    if record.get("exit_code", 0) != 0:
        failures.append(f"exit code {record.get('exit_code')}")
    digest = record.get("digest")
    if reference is not None and digest != reference:
        failures.append(f"digest {digest} != {reference}")
    if workload == "study-cold":
        if record.get("replay_exit_code", 0) != 0:
            failures.append(f"replay exit code {record['replay_exit_code']}")
        if record.get("replay_digest") != digest:
            failures.append("cached re-run digest differs from the cold run")
    campaigns = record.get("campaigns", [])
    for campaign in campaigns:  # type: ignore[union-attr]
        name = f"campaign seed {campaign.get('seed')}"
        if campaign.get("state") != "done":
            failures.append(f"{name} ended {campaign.get('state')!r}")
        if campaign.get("pool_restarts") or campaign.get("quarantined"):
            failures.append(f"{name} restarted a pool or quarantined")
        if workload == "stream-serve":
            if not campaign.get("end"):
                failures.append(f"{name} has no end frame")
            if campaign.get("verify"):
                failures.append(f"{name} differs from batch: "
                                f"{campaign['verify']}")
    if workload == "orchestrate-queue":
        computed = {c["seed"]: c.get("digests") for c in campaigns
                    if c.get("half") == "compute"}
        replayed = [c for c in campaigns if c.get("half") == "replay"]
        if len(computed) != ORCHESTRATE_SEEDS or len(replayed) != len(computed):
            failures.append(f"expected {ORCHESTRATE_SEEDS} computed and "
                            "replayed campaigns")
        for campaign in replayed:
            if campaign.get("digests") != computed.get(campaign["seed"]):
                failures.append(f"replayed seed {campaign['seed']} digests "
                                "differ from the computed ones")
            if not campaign.get("cache_disk_hits"):
                failures.append(f"replayed seed {campaign['seed']} had no "
                                "disk-cache hits")
            if campaign.get("journal_stores"):
                failures.append(f"replayed seed {campaign['seed']} stored "
                                "journals")
    return failures
