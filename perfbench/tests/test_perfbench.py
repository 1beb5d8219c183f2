"""Tests for the benchmark's own code (not the program's).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import (  # noqa: E402
    ORCHESTRATE_SEEDS,
    campaign_seeds,
    parse_importtime,
    quartiles,
    reconcile,
    relative_spread,
    report_digest,
    sse_frames,
    unit_failures,
)

REPORT = "study completed in 4.7s\n\nTable 4\nrow 1\n\nFigure 2\nrow 2\n\n"


def test_timing_line_is_stripped_before_hashing():
    slower = REPORT.replace("4.7s", "12.0s")
    assert report_digest(REPORT) == report_digest(slower)
    body = "\n".join(REPORT.split("\n")[1:])
    assert report_digest(REPORT) == hashlib.sha256(body.encode()).hexdigest()


def test_only_the_timing_line_is_stripped():
    tampered = REPORT.replace("row 2", "row 3")
    assert report_digest(tampered) != report_digest(REPORT)
    # A table row that merely mentions the phrase stays in the digest.
    inner = REPORT.replace("row 1", "row 1 study completed in 1.0s")
    assert report_digest(inner) != report_digest(REPORT)


def test_reconcile_adds_up_to_the_wall():
    busy = {"internet.world": 0.7, "scanner.zmap": 0.5, "core.report": 0.2}
    result = reconcile(2.0, busy)
    assert result["unattributed"] == pytest.approx(0.6)
    assert sum(busy.values()) + result["unattributed"] == pytest.approx(2.0)
    assert result["share"] == pytest.approx(0.3)
    assert result["attributed"] == pytest.approx(1.4)


def test_quartiles_match_statistics_module():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert quartiles(values) == (1.5, 3.0, 4.5)
    assert relative_spread(values) == pytest.approx(1.0)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_parse_importtime_groups_self_time():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:      2000 |       2000 |     numpy.core",
        "import time:       500 |       2500 |   numpy",
        "import time:      3000 |       5600 |   repro.core.engine",
        "import time:        50 |       5650 | repro",
    ])
    assert parse_importtime(stderr) == pytest.approx(
        {"repro": 0.00305, "numpy": 0.0025, "other": 0.0001})


def test_sse_frames():
    body = ("event: event\ndata: {\"a\":1}\n\n"
            "event: lag\ndata: {}\n\n"
            "event: end\ndata: {\"state\":\"done\"}\n\n").splitlines(True)
    assert list(sse_frames(body)) == [
        ("event", '{"a":1}'), ("lag", "{}"), ("end", '{"state":"done"}')]


def test_campaign_seeds_are_distinct_across_workload_seeds():
    seen = set()
    for seed in range(50):
        seeds = campaign_seeds(seed, 4)
        assert len(set(seeds)) == 4 and not seen & set(seeds)
        seen.update(seeds)


# -- the correctness gate ---------------------------------------------------

def study_record(**overrides):
    record = {"exit_code": 0, "digest": "d1", "replay_exit_code": 0,
              "replay_digest": "d1"}
    record.update(overrides)
    return record


def test_study_gate_passes_a_good_unit():
    assert unit_failures("study-cold", study_record(), "d1") == []


@pytest.mark.parametrize("overrides", [
    {"digest": "tampered", "replay_digest": "tampered"},
    {"exit_code": 4},
    {"replay_digest": "other"},
])
def test_study_gate_fails_a_bad_unit(overrides):
    assert unit_failures("study-cold", study_record(**overrides), "d1")


def stream_campaign(**overrides):
    campaign = {"seed": 1, "state": "done", "end": True,
                "verify": [], "pool_restarts": 0, "quarantined": 0}
    campaign.update(overrides)
    return campaign


@pytest.mark.parametrize("overrides,good", [
    ({}, True),
    ({"end": False}, False),
    ({"state": "failed"}, False),
    ({"verify": ["misconfig differs"]}, False),
    ({"pool_restarts": 1}, False),
])
def test_stream_gate(overrides, good):
    record = {"digest": "s", "campaigns": [stream_campaign(),
                                           stream_campaign(**overrides)]}
    assert (unit_failures("stream-serve", record, "s") == []) is good


def orchestrate_record(**replay_overrides):
    campaigns = []
    for seed in campaign_seeds(3, ORCHESTRATE_SEEDS):
        campaigns.append({"seed": seed, "half": "compute", "state": "done",
                          "digests": {"x": str(seed)}, "cache_disk_hits": 0,
                          "journal_stores": 5})
        replay = {"seed": seed, "half": "replay", "state": "done",
                  "digests": {"x": str(seed)}, "cache_disk_hits": 14,
                  "journal_stores": 0}
        replay.update(replay_overrides)
        campaigns.append(replay)
    return {"digest": "o", "campaigns": campaigns}


@pytest.mark.parametrize("overrides,good", [
    ({}, True),
    ({"digests": {"x": "other"}}, False),
    ({"cache_disk_hits": 0}, False),
    ({"journal_stores": 2}, False),
    ({"state": "failed"}, False),
])
def test_orchestrate_gate(overrides, good):
    record = orchestrate_record(**overrides)
    assert (unit_failures("orchestrate-queue", record, "o") == []) is good


def test_fail_ratio_counts_a_tampered_report_and_a_missing_end():
    import run

    good = study_record()
    verdicts = run.check_units(
        "study-cold", 3, [good, study_record(digest="x", replay_digest="x"),
                          good], {})
    assert [bool(v) for v in verdicts] == [False, True, False]
    stream = [{"digest": "s", "campaigns": [stream_campaign()]},
              {"digest": "s", "campaigns": [stream_campaign(end=False)]}]
    verdicts = run.check_units("stream-serve", 3, stream, {})
    assert sum(1 for v in verdicts if v) / len(verdicts) == 0.5


def test_pinned_digest_overrides_the_first_unit():
    import run

    pins = {"study-cold": {"3": {"digest": "pinned"}}}
    verdicts = run.check_units("study-cold", 3, [study_record()], pins)
    assert verdicts[0] and "pinned" in verdicts[0][0]
