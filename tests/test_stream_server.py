"""The HTTP control surface, exercised over real sockets with urllib."""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.net.errors import ServeError
from repro.stream import ControlServer, StreamConfig


@pytest.fixture(scope="module")
def server():
    server = ControlServer(port=0).start()
    yield server
    server.shutdown()


def url(server, path):
    return f"http://127.0.0.1:{server.port}{path}"


def get(server, path):
    with urllib.request.urlopen(url(server, path), timeout=30) as response:
        return response.status, json.loads(response.read())


def post(server, path, body=None, raw=None):
    data = raw if raw is not None else json.dumps(body or {}).encode()
    request = urllib.request.Request(
        url(server, path), data=data, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def wait_done(server, campaign_id, timeout=180):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = get(server, f"/campaigns/{campaign_id}/status")
        if status["state"] in ("done", "failed", "stopped"):
            return status
        time.sleep(0.1)
    raise AssertionError(f"campaign {campaign_id} never finished")


class TestControlApi:
    def test_start_status_tail_roundtrip(self, server):
        code, started = post(server, "/sim/start",
                             {"seed": 7, "scale": 16384})
        assert code == 200
        campaign_id = started["campaign"]
        assert started["seed"] == 7
        status = wait_done(server, campaign_id)
        assert status["state"] == "done", status
        assert set(status["final_digests"]) == {
            "misconfig", "device_type", "country", "attack_origins",
            "recurrence", "rsdos",
        }
        assert status["events_streamed"] > 0

        with urllib.request.urlopen(
            url(server, f"/campaigns/{campaign_id}/tail"), timeout=30
        ) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            body = response.read().decode()
        kinds = {line for line in body.splitlines()
                 if line.startswith("event: ")}
        assert kinds == {"event: event", "event: alert", "event: end"}
        end_payload = json.loads(
            body.split("event: end\ndata: ", 1)[1].split("\n", 1)[0]
        )
        assert end_payload["state"] == "done"

    def test_tail_cursor_resume(self, server):
        code, started = post(server, "/sim/start",
                             {"seed": 11, "scale": 16384})
        campaign_id = started["campaign"]
        status = wait_done(server, campaign_id)
        events_total = status["events_streamed"]
        assert events_total > 0
        # A cursor past everything sees only the end event.
        with urllib.request.urlopen(
            url(server, f"/campaigns/{campaign_id}/tail"
                        "?events=999999999&alerts=999999999"),
            timeout=30,
        ) as response:
            body = response.read().decode()
        assert "event: end" in body
        assert "event: event\n" not in body

    def test_stop_route(self, server):
        code, started = post(
            server, "/sim/start",
            {"seed": 7, "scale": 16384, "events_per_second": 10,
             "batch_size": 8},
        )
        campaign_id = started["campaign"]
        code, stopped = post(server, "/sim/stop",
                             {"campaign": campaign_id})
        assert code == 200
        status = wait_done(server, campaign_id)
        assert status["state"] in ("stopped", "done")

    def test_unknown_campaign_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/campaigns/nope/status")
        assert excinfo.value.code == 404

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/what/is/this")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/sim/launch")
        assert excinfo.value.code == 404

    def test_bad_json_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/sim/start", raw=b"{not json")
        assert excinfo.value.code == 400

    def test_non_object_body_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/sim/start", raw=b"[1, 2]")
        assert excinfo.value.code == 400

    def test_bad_config_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/sim/start", {"seed": -5})
        assert excinfo.value.code == 400


class TestServerLifecycle:
    def test_ephemeral_port_bound(self):
        server = ControlServer(port=0)
        try:
            assert server.port > 0
            assert server.host == "127.0.0.1"
        finally:
            server.shutdown()

    def test_bind_conflict_raises_serve_error(self):
        first = ControlServer(port=0)
        try:
            with pytest.raises(ServeError):
                ControlServer(port=first.port)
        finally:
            first.shutdown()

    def test_stream_defaults_flow_into_campaigns(self):
        server = ControlServer(
            port=0, stream_defaults=StreamConfig(batch_size=64)
        ).start()
        try:
            code, started = post(server, "/sim/start",
                                 {"seed": 7, "scale": 16384})
            campaign_id = started["campaign"]
            status = wait_done(server, campaign_id)
            assert status["batch_size"] == 64
            assert status["state"] == "done"
        finally:
            server.shutdown()


def read_tail(server, campaign_id, query=""):
    """(event, data) frames of one SSE tail, read until the server closes
    it; a tail cut off mid-stream simply ends without its ``end`` frame."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=120)
    frames = []
    try:
        connection.request("GET", f"/campaigns/{campaign_id}/tail{query}")
        response = connection.getresponse()
        event = None
        while True:
            try:
                line = response.readline().decode()
            except http.client.IncompleteRead:
                break
            if not line:
                break
            if line.startswith("event: "):
                event = line[len("event: "):].strip()
            elif line.startswith("data: "):
                frames.append((event, json.loads(line[len("data: "):])))
    finally:
        connection.close()
    return frames


class TestTailLag:
    def test_tiny_ring_unpaced_tails_end_without_duplicates(self):
        """Unpaced campaigns evict a two-item ring faster than a tail can
        resume, repeatedly.  Every tail must still end with its ``end``
        frame, and every event is either delivered once or counted in a
        ``lag`` frame: delivered + dropped covers sequences 1..total-1."""
        server = ControlServer(
            port=0,
            stream_defaults=StreamConfig(event_capacity=2, alert_capacity=2),
        ).start()
        try:
            for seed in (7, 8, 9):
                code, started = post(server, "/sim/start", {"seed": seed})
                campaign_id = started["campaign"]
                deadline = time.monotonic() + 60
                while get(server, f"/campaigns/{campaign_id}/status")[1][
                        "events_streamed"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                # Cursor 1 (not 0, "from the oldest retained") makes the
                # accounting exact from the first read on.
                frames = read_tail(server, campaign_id, "?events=1")
                assert frames and frames[-1][0] == "end", frames[-3:]
                end = frames[-1][1]
                delivered = sum(1 for kind, _ in frames if kind == "event")
                dropped = sum(data["dropped"] for kind, data in frames
                              if kind == "lag" and data["stream"] == "events")
                assert delivered + dropped == end["events_total"] - 1
                assert wait_done(server, campaign_id)["state"] == "done"
        finally:
            server.shutdown()
