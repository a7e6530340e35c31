"""The service error contract and ``/metrics``, route by route.

Every error path of the live daemon, pinned down: each digest-taking
route (``/update``, ``/query_sites``, ``/explain``, ``/stats``)
answers the same one-line 404 on an unknown digest; a *known* digest
with bad arguments (unknown function, missing field, a field of a
removed knob) is a 400; unknown routes are 404 on both GET and POST.
A rejected update leaves every session as it was, and a malformed
request body cannot wedge the single-threaded server.  ``GET /metrics``
must return parseable Prometheus text whose request counters reflect
the traffic this suite just generated.
"""

import os
import re
import socket
import subprocess
import sys
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.obs.metrics import parse_prometheus_text
from repro.service import ServiceClient
from repro.service.server import ServiceError

REPO = Path(__file__).resolve().parents[2]

SOURCE = """
def classify(v) {
  var bin;
  if (v < 5) { bin = 0; }
  return bin;
}
def main() {
  var b = classify(9);
  if (b) { output(1); }
  return 0;
}
"""


@pytest.fixture(scope="module")
def server():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline().strip()
        match = re.search(r"http://([\d.]+):(\d+)$", banner)
        assert match, f"no listening banner, got {banner!r}"
        client = ServiceClient(f"http://{match.group(1)}:{match.group(2)}")
        client.server_pid = proc.pid
        yield client
    finally:
        proc.terminate()
        proc.wait(timeout=10)


@pytest.fixture(scope="module")
def opened(server):
    return server.open(source=SOURCE, name="classify")


def _children(pid):
    """Live child processes of ``pid``, read from ``/proc``."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (after the parenthesized command name) is the ppid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry.name))
    return children


def _expect(status, call, *args, **kwargs):
    with pytest.raises(ServiceError) as err:
        call(*args, **kwargs)
    assert err.value.status == status
    message = err.value.message
    assert "\n" not in message, f"error not one line: {message!r}"
    return message


class TestUnknownDigestIs404Everywhere:
    """The uniform contract: same status, same one-line shape."""

    def test_update(self, server):
        message = _expect(
            404, server.update, "feedfacecafebeef", "main", "main:\n  ret 0"
        )
        assert "feedfacecafebeef" in message

    def test_query_sites(self, server):
        message = _expect(404, server.query_sites, "feedfacecafebeef")
        assert "feedfacecafebeef" in message

    def test_explain(self, server):
        message = _expect(404, server.explain, "feedfacecafebeef", 1)
        assert "feedfacecafebeef" in message

    def test_stats(self, server):
        message = _expect(404, server.stats, "feedfacecafebeef")
        assert "feedfacecafebeef" in message

    def test_all_four_share_one_message_shape(self, server):
        messages = {
            _expect(404, server.update, "00", "f", "x"),
            _expect(404, server.query_sites, "00"),
            _expect(404, server.explain, "00", 1),
            _expect(404, server.stats, "00"),
        }
        assert len(messages) == 1  # identical text on every route


class TestKnownDigestBadInputIs400:
    def test_unknown_function_on_known_digest(self, server, opened):
        message = _expect(
            400, server.update, opened["digest"], "no_such_fn", "x:\n  ret 0"
        )
        assert "no_such_fn" in message

    def test_update_missing_body(self, server, opened):
        _expect(400, server.update, opened["digest"], "main", None)

    def test_explain_missing_uid(self, server, opened):
        _expect(400, server.explain, opened["digest"], None)

    def test_open_with_both_source_and_ir(self, server):
        _expect(400, server.open, source=SOURCE, ir="def main:\n  ret 0")

    def test_open_with_neither(self, server):
        _expect(400, server.open)

    def test_parse_error_is_one_line_400(self, server):
        message = _expect(400, server.open, source="def main( {")
        assert "\n" not in message

    @pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
    def test_query_sites_with_jobs_is_400_and_forks_nothing(
        self, server, opened
    ):
        before = _children(server.server_pid)
        message = _expect(
            400,
            server._call,
            "/query_sites",
            {"digest": opened["digest"], "jobs": 64},
        )
        assert message == "unknown query_sites field(s): jobs"
        assert _children(server.server_pid) == before == []

    def test_open_with_tier_option_is_400(self, server):
        message = _expect(
            400, server.open, source=SOURCE, options={"tier": "full"}
        )
        assert message == "unknown analysis option(s): tier"


class TestUnknownRouteIs404:
    def test_post(self, server):
        _expect(404, server._call, "/no_such_route", {})

    def test_get(self, server):
        _expect(404, server._call, "/no_such_route")


class TestMetricsEndpoint:
    def test_parseable_prometheus_text(self, server, opened):
        server.ping()
        parsed = parse_prometheus_text(server.metrics())
        assert parsed["repro_sessions"][()] >= 1
        ping_ok = parsed["repro_requests_total"][
            (("route", "/ping"), ("status", "200"))
        ]
        assert ping_ok >= 1

    def test_latency_histogram_present(self, server, opened):
        parsed = parse_prometheus_text(server.metrics())
        buckets = parsed["repro_request_seconds_bucket"]
        open_buckets = {
            labels: value
            for labels, value in buckets.items()
            if ("route", "/open") in labels
        }
        assert open_buckets, "no latency series for /open"
        assert any(("le", "+Inf") in labels for labels in open_buckets)
        assert parsed["repro_request_seconds_count"][
            (("route", "/open"),)
        ] >= 1

    def test_error_traffic_is_counted(self, server, opened):
        _expect(404, server.stats, "feedfacecafebeef")
        parsed = parse_prometheus_text(server.metrics())
        assert parsed["repro_requests_total"][
            (("route", "/stats"), ("status", "404"))
        ] >= 1

    def test_update_publishes_session_gauges(self, server, opened):
        """Accepted and rejected updates are both counted, by status."""
        digest = opened["digest"]
        server.update(digest, "main", _const_edit())
        _expect(400, server.update, digest, "main", _bad_edit())
        parsed = parse_prometheus_text(server.metrics())
        requests = parsed["repro_requests_total"]
        for status in ("200", "400"):
            assert requests[(("route", "/update"), ("status", status))] >= 1
        assert not any(
            name.startswith("repro_session_") for name in parsed
        ), sorted(parsed)


class TestRejectedUpdateIsAtomic:
    def test_rejected_update_changes_no_session(self, server):
        mine = server.open(source=SOURCE, name="atomic-a")["digest"]
        other = server.open(source=SOURCE, name="atomic-b")["digest"]
        server.update(other, "main", _const_edit())
        before = {d: server.query_sites(d) for d in (mine, other)}
        generation = server.stats(mine)["generation"]
        for body in (_bad_edit(), _bad_edit("    %__bad := ??")):
            message = _expect(400, server.update, mine, "main", body)
            assert "__bad" in message or "__no_such_function" in message
            assert server.stats(mine)["generation"] == generation
            assert {d: server.query_sites(d) for d in (mine, other)} == before
        # The next update, to another function, is not wedged by the
        # rejected body.
        stats = server.update(
            mine, "classify", _const_edit(function="classify")
        )
        assert stats["generation"] == generation + 1
        assert server.query_sites(mine) == before[mine]
        assert server.query_sites(other) == before[other]


def _raw_request(client, head: bytes) -> socket.socket:
    """Open a raw connection to the server and send ``head`` on it,
    leaving the connection open."""
    url = urlsplit(client.base_url)
    conn = socket.create_connection((url.hostname, url.port), timeout=10)
    conn.sendall(head)
    return conn


def _status_of(conn: socket.socket) -> int:
    reply = b""
    while b"\r\n" not in reply:
        chunk = conn.recv(4096)
        if not chunk:
            break
        reply += chunk
    return int(reply.split(b" ", 2)[1])


class TestRequestBodyLimits:
    @pytest.mark.parametrize(
        "length, status",
        [("-1", 400), ("ten", 400), (str(64 * 1024 * 1024), 413)],
    )
    def test_bad_length_answers_before_reading(self, server, length, status):
        """A body the server will not read is refused at once, on a
        connection the client keeps open, and a concurrent request is
        still served."""
        conn = _raw_request(
            server,
            b"POST /open HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + length.encode() + b"\r\n\r\n",
        )
        try:
            quick = ServiceClient(server.base_url, timeout=5)
            assert "repro_requests_total" in quick.metrics()
            assert _status_of(conn) == status
        finally:
            conn.close()


def _const_edit(line="    %__m0 := 0", function="main"):
    """``function``'s text with ``line`` inserted after its entry
    label; by default a semantics-preserving edit (dead constant copy).

    The service has no function_text route, so reconstruct main's
    printed IR through an in-process session over the same source.
    """
    from repro.options import AnalysisOptions
    from repro.service import AnalysisSession

    session = AnalysisSession.from_source(
        SOURCE, name="classify", options=AnalysisOptions()
    )
    lines = session.function_text(function).splitlines()
    for index, current in enumerate(lines):
        if current.rstrip().endswith(":"):
            lines.insert(index + 1, line)
            break
    return "\n".join(lines)


def _bad_edit(line="    %__bad := __no_such_function(1)"):
    """An edit of main that parses but fails verification (by
    default), or with ``line`` one that does not parse."""
    return _const_edit(line)
