"""Absolute digests of the scan plane, pinned in ``tests/golden/scan.json``.

Every other byte-identity test compares a variant with an oracle in the
same process, so a change to a helper both sides share moves them
together and passes.  These digests are absolute: the zmap campaign, the
Sonar and Shodan snapshots and the merged database (as ``to_jsonl()``
sha256), the campaign's ``probes_sent``, and the fingerprint detections,
for seeds 7 and 23 at quick scale, plus one lossy zmap campaign (the only
path where probes to closed ports draw from the loss model).

Regenerate only on purpose, and say so in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import Study, StudyConfig
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.scanner.zmap import InternetScanner, ScanConfig

GOLDEN = Path(__file__).resolve().parent / "golden" / "scan.json"

SEEDS = (7, 23)
LOSSY_SEED = 7
LOSSY_RATE = 0.12


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def study_digests(seed: int) -> dict:
    """The scan-plane digests of a quick-scale study at ``seed``."""
    study = Study(StudyConfig.quick(seed=seed), cache=False)
    study.run_fingerprinting()
    engine = study.engine
    digests = {
        name: _sha256(engine.artifact(f"{name}_db").to_jsonl())
        for name in ("zmap", "sonar", "shodan", "merged")
    }
    digests["probes_sent"] = sum(
        timing.probes for timing in study.metrics.shards
    )
    digests["fingerprints"] = {
        name: sorted(addresses)
        for name, addresses in sorted(
            engine.artifact("fingerprints").detections.items()
        )
    }
    return digests


def lossy_campaign_digests() -> dict:
    """A quick-scale zmap campaign over a world that loses probes."""
    quick = StudyConfig.quick(seed=LOSSY_SEED).population
    world = PopulationBuilder(
        PopulationConfig(
            seed=LOSSY_SEED,
            scale=quick.scale,
            honeypot_scale=quick.honeypot_scale,
            loss_rate=LOSSY_RATE,
        )
    ).build()
    scanner = InternetScanner(world.internet, ScanConfig(seed=LOSSY_SEED))
    database = scanner.run_campaign()
    return {
        "zmap": _sha256(database.to_jsonl()),
        "probes_sent": scanner.probes_sent,
    }


def compute() -> dict:
    return {
        "study": {str(seed): study_digests(seed) for seed in SEEDS},
        "lossy_zmap": lossy_campaign_digests(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("seed", SEEDS)
def test_study_scan_plane_matches_golden(golden, seed):
    assert study_digests(seed) == golden["study"][str(seed)]


def test_lossy_zmap_campaign_matches_golden(golden):
    assert lossy_campaign_digests() == golden["lossy_zmap"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(compute(), handle, indent=1, sort_keys=True)
        handle.write("\n")
