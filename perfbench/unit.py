"""One benchmark unit: a fresh process that runs one workload's unit of work.

    python perfbench/unit.py WORKLOAD --seed S --trace 0|1 --work DIR

Prints one JSON record on its last stdout line.  ``ready`` is the
``time.monotonic()`` reading (a system-wide clock, so the parent can
subtract its spawn time) taken once the workload's entry modules are
imported and its server is bound or its orchestrator opened.  Every
other timing is taken here, around calls to the program's public
functions; with ``--trace 1`` the unit also times each layer's calls.
"""

from __future__ import annotations

import argparse
import http.client
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402  (after the path fix above)
    ORCHESTRATE_SEEDS,
    STREAM_CAMPAIGNS,
    campaign_seeds,
    digest_of,
    reconcile,
    report_digest,
    sse_frames,
)

now = time.monotonic


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class FirstWrite(io.StringIO):
    """A text buffer that remembers when its first write arrived."""

    first = None

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = now()
        return super().write(text)


# -- the study layers, timed from outside ------------------------------------

#: Layer name → the artifacts whose ``engine.ensure`` call is that layer,
#: in the DAG's serial order.
LAYERS = (
    ("internet.world", ("population", "geo", "asn")),
    ("scanner.zmap", ("zmap_db",)),
    ("scanner.sonar", ("sonar_db",)),
    ("scanner.shodan", ("shodan_db",)),
    ("scanner.merge", ("merged_db",)),
    ("analysis.fingerprint", ("fingerprints",)),
    ("classify", ("misconfig", "device_types", "countries")),
    ("attacks", ("deployment", "schedule")),
    ("telescope", ("telescope",)),
    ("intel", ("greynoise", "virustotal", "censys_iot", "exonerator")),
    ("joins", ("multistage", "infected")),
)


def traced_study(config, cache=None):
    """Run a study layer by layer, then render the ``repro run`` report.

    Returns ``(text, busy, counts, wall, results)``: the report text as
    ``repro run`` prints it, busy seconds per layer (``core.report`` is
    the 12 renderers), layer counts, and the wall of the whole call.
    """
    from repro import Study
    from repro.core import report

    renderers = (
        report.render_table4, report.render_table5, report.render_table6,
        report.render_table10, report.render_figure2, report.render_table7,
        report.render_figure7, report.render_figure8, report.render_figure9,
        report.render_table8, report.render_case_studies,
        report.render_intersection,
    )
    started = now()
    study = Study(config, cache=cache)
    busy = {}
    for layer, artifacts in LAYERS:
        begin = now()
        study.engine.ensure(*artifacts)
        busy[layer] = now() - begin
    results = study.run()  # every artifact is materialized: only syncs
    text = f"study completed in {now() - started:.1f}s\n\n"
    begin = now()
    parts = [renderer(results) for renderer in renderers]
    busy["core.report"] = now() - begin
    text += "".join(part + "\n\n" for part in parts)
    wall = now() - started
    counts = {
        "internet.world.hosts": len(results.population.hosts),
        "scanner.zmap.rows": len(results.zmap_db),
        "scanner.sonar.rows": len(results.sonar_db),
        "scanner.shodan.rows": len(results.shodan_db),
        "scanner.merge.rows": len(results.merged_db),
        "analysis.fingerprint.honeypots": results.fingerprints.total,
        "attacks.events": len(results.schedule.log),
        "telescope.records": len(results.telescope.writer),
        "core.report.bytes": len(text.encode("utf-8")),
    }
    return text, busy, counts, wall, results


def layer_metrics(busy, counts, wall) -> dict:
    """Flat per-layer metrics of one traced study; see ``reconcile``."""
    layers = {f"{layer}.busy_s": seconds for layer, seconds in busy.items()}
    layers.update(counts)
    layers["classify.rows_per_s"] = (counts["scanner.merge.rows"]
                                     / busy["classify"])
    layers["study.unattributed_s"] = reconcile(wall, busy)["unattributed"]
    return layers


def study_layers_record(config, cache=None) -> dict:
    """The per-layer part of a traced record for one study config."""
    _, busy, counts, wall, _ = traced_study(config, cache=cache)
    return {"layers": layer_metrics(busy, counts, wall),
            "unattributed_share": reconcile(wall, busy)["share"]}


# -- study-cold ---------------------------------------------------------------

def study_cold(seed: int, trace: bool, work: str) -> dict:
    from repro.cli import main

    ready = now()
    record = {"ready": ready}
    if trace:
        from repro import StudyConfig
        from repro.core.fidelity import score_study

        text, busy, counts, wall, results = traced_study(
            StudyConfig.paper_scale(seed=seed)
        )
        score = score_study(results)
        record.update(
            wall_s=wall, digest=report_digest(text),
            layers=layer_metrics(busy, counts, wall),
            unattributed_share=reconcile(wall, busy)["share"],
            fidelity={"mean": score.mean_relative_error(),
                      "max": score.max_relative_error()},
        )
        # The traced report must be the one `repro run` prints; in this
        # process the phase cache answers every phase of that run.
        replay = io.StringIO()
        begin = now()
        record["replay_exit_code"] = main(["run", "--seed", str(seed)],
                                          out=replay)
        record["layers"]["core.engine.cached_rerun_s"] = now() - begin
        record["replay_digest"] = report_digest(replay.getvalue())
    else:
        out = FirstWrite()
        begin = now()
        record["exit_code"] = main(["run", "--seed", str(seed)], out=out)
        end = now()
        record.update(wall_s=end - begin, first_result_s=out.first - begin,
                      digest=report_digest(out.getvalue()))
        # The same request again, answered by the in-process phase cache,
        # must print the same report.
        replay = io.StringIO()
        record["replay_exit_code"] = main(["run", "--seed", str(seed)],
                                          out=replay)
        record["replay_digest"] = report_digest(replay.getvalue())
    record["peak_rss_mb"] = peak_rss_mb()
    return record


# -- stream-serve -------------------------------------------------------------

def _request(port: int, method: str, path: str, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"{method} {path} -> {response.status}: "
                               f"{data[:200]!r}")
        return json.loads(data)
    finally:
        connection.close()


def _tail(port: int, campaign: str) -> dict:
    """Read a campaign's SSE tail to its end; time the first event and end."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    summary = {"first_event": None, "end_at": None, "end": None}
    try:
        connection.request("GET", f"/campaigns/{campaign}/tail")
        response = connection.getresponse()

        def lines():
            while True:
                line = response.readline()
                if not line:
                    return
                yield line.decode("utf-8")

        for event, data in sse_frames(lines()):
            if event == "event" and summary["first_event"] is None:
                summary["first_event"] = now()
            elif event == "end":
                summary["end_at"] = now()
                summary["end"] = json.loads(data)
                break
    finally:
        connection.close()
    return summary


def stream_serve(seed: int, trace: bool, work: str) -> dict:
    from repro.stream import ControlServer

    server = ControlServer(port=0).start()
    ready = now()
    campaigns = []
    try:
        for campaign_seed in campaign_seeds(seed, STREAM_CAMPAIGNS):
            begin = now()
            started = _request(server.port, "POST", "/sim/start",
                               {"seed": campaign_seed})
            tail = _tail(server.port, started["campaign"])
            status = _request(server.port, "GET",
                              f"/campaigns/{started['campaign']}/status")
            service = server.campaigns[started["campaign"]]
            campaigns.append({
                "seed": campaign_seed,
                "state": status["state"],
                "end": tail["end"] is not None,
                "wall_s": (tail["end_at"] or now()) - begin,
                "first_event_s": (tail["first_event"] or now()) - begin,
                "digests": status.get("final_digests"),
                "pool_restarts": status["metrics"]["supervisor"][
                    "pool_restarts"],
                "quarantined": status["metrics"]["quarantined"],
                "verify": (service.verify_against_batch()
                           if status["state"] == "done" else ["not done"]),
            })
    finally:
        server.shutdown()
    record = {
        "ready": ready,
        "campaigns": campaigns,
        "wall_s": sum(c["wall_s"] for c in campaigns),
        "first_result_s": statistics.median(
            c["first_event_s"] for c in campaigns),
        "digest": digest_of([c["digests"] for c in campaigns]),
    }
    if trace:
        # The study layers a served campaign generates, at its own
        # (quick) profile, timed from outside on a private cache.
        from repro.stream.server import default_config_factory

        config = default_config_factory({"seed": campaigns[0]["seed"]})
        record.update(study_layers_record(config, cache=False))
    record["peak_rss_mb"] = peak_rss_mb()
    return record


# -- orchestrate-queue --------------------------------------------------------

def orchestrate_queue(seed: int, trace: bool, work: str) -> dict:
    from repro.orchestrator import CampaignSpec, Orchestrator

    state_dir = os.path.join(work, f"orchestrate-{os.getpid()}")
    shutil.rmtree(state_dir, ignore_errors=True)
    # The `repro orchestrate` defaults, for two seeds.
    orchestrator = Orchestrator(state_dir, max_active=2, max_campaigns=8)
    ready = now()
    seeds = campaign_seeds(seed, ORCHESTRATE_SEEDS)
    submit_ms = []

    def submit(campaign_seed: int, reuse: bool) -> str:
        begin = now()
        campaign_id = orchestrator.submit(CampaignSpec(seed=campaign_seed),
                                          reuse=reuse)
        submit_ms.append((now() - begin) * 1e3)
        return campaign_id

    try:
        begin = now()
        computed = [submit(s, reuse=True) for s in seeds]
        first_done = None
        while first_done is None:
            states = [orchestrator.status(cid)["state"] for cid in computed]
            if "done" in states or all(
                    state in ("failed", "cancelled") for state in states):
                first_done = now()
            else:
                time.sleep(0.005)
        orchestrator.drain()
        compute_end = now()
        # POST /campaigns submits with reuse=False: new campaigns whose
        # phases the shared disk store answers.
        replayed = [submit(s, reuse=False) for s in seeds]
        orchestrator.drain()
        end = now()
        campaigns = []
        for half, ids in (("compute", computed), ("replay", replayed)):
            for campaign_seed, campaign_id in zip(seeds, ids):
                status = orchestrator.status(campaign_id)
                metrics = status["metrics"]
                campaigns.append({
                    "seed": campaign_seed, "half": half,
                    "state": status["state"], "digests": status["digests"],
                    "study_s": metrics.get("wall_seconds", 0.0),
                    "cache_disk_hits": metrics.get("cache_disk_hits", 0),
                    "cache_misses": metrics.get("cache_misses", 0),
                    "journal_stores": metrics.get("journal_stores", 0),
                    "pool_restarts": metrics.get("pool_restarts", 0),
                    "quarantined": metrics.get("quarantined", 0),
                })
        ledger_records = orchestrator.queue()["ledger_records"]
    finally:
        orchestrator.shutdown()
    record = {
        "ready": ready,
        "campaigns": campaigns,
        "wall_s": end - begin,
        "first_result_s": first_done - begin,
        "digest": digest_of([c["digests"] for c in campaigns
                             if c["half"] == "compute"]),
    }
    if trace:
        journal_dir = os.path.join(state_dir, "traced-journal")
        config = CampaignSpec(seed=seeds[0]).to_config(journal_dir)
        record.update(study_layers_record(config, cache=False))
        replay_s = end - compute_end
        study_s = sum(c["study_s"] for c in campaigns
                      if c["half"] == "replay")

        def total(key):
            return sum(c[key] for c in campaigns)

        record["layers"].update({
            "orchestrator.ledger.submit_ms": statistics.median(submit_ms),
            "orchestrator.ledger.records": ledger_records,
            "orchestrator.compute_s": compute_end - begin,
            "orchestrator.replay_s": replay_s,
            "orchestrator.campaign_study_s": study_s,
            # The replay's wall beyond its campaigns' own study walls:
            # scheduling, leases, ledger and store reads.
            "orchestrator.overhead_s": replay_s - study_s,
            "core.engine.cache_disk_hits": total("cache_disk_hits"),
            "core.engine.cache_misses": total("cache_misses"),
            "core.tasks.journal_stores": total("journal_stores"),
            "core.tasks.pool_restarts": total("pool_restarts"),
            "core.tasks.quarantined": total("quarantined"),
        })
    shutil.rmtree(state_dir, ignore_errors=True)
    record["peak_rss_mb"] = peak_rss_mb()
    return record


UNITS = {
    "study-cold": study_cold,
    "stream-serve": stream_serve,
    "orchestrate-queue": orchestrate_queue,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    record = UNITS[args.workload](args.seed, bool(args.trace), args.work)
    record["workload"] = args.workload
    record["traced"] = bool(args.trace)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
