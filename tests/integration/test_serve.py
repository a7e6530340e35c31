"""Live ``repro serve`` lane: a real daemon process, a real client.

Boots ``python -m repro serve --port 0`` as a subprocess, parses the
printed port, and drives it with :class:`ServiceClient`: verdict
parity against an in-process session, digest caching, function
updates, explain traces, and the error contract (404 for unknown
digests, 400 with a one-line message for malformed requests — never a
hung connection or an HTML traceback).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.options import AnalysisOptions
from repro.service import AnalysisSession, ServiceClient
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
        yield ServiceClient(f"http://{match.group(1)}:{match.group(2)}")
    finally:
        proc.terminate()
        proc.wait(timeout=10)


@pytest.fixture(scope="module")
def opened(server):
    return server.open(source=SOURCE, name="classify")


def _const_edit(text):
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line.rstrip().endswith(":"):
            lines.insert(index + 1, "    %__e0 := 0")
            break
    return "\n".join(lines)


class TestServeParity:
    def test_ping(self, server):
        assert server.ping()["ok"] is True

    def test_open_reports_shape(self, opened):
        assert opened["cached"] is False
        assert opened["generation"] == 0
        assert opened["functions"] == ["classify", "main"]
        assert opened["check_sites"] > 0

    def test_reopen_hits_the_digest_cache(self, server, opened):
        again = server.open(source=SOURCE, name="classify")
        assert again["digest"] == opened["digest"]
        assert again["cached"] is True

    def test_query_parity_with_in_process_session(self, server, opened):
        local = AnalysisSession.from_source(SOURCE, name="classify")
        assert server.query_sites(opened["digest"]) == local.query_sites()

    def test_update_then_parity(self, server, opened):
        local = AnalysisSession.from_source(SOURCE, name="classify")
        body = _const_edit(local.function_text("classify"))
        stats = server.update(opened["digest"], "classify", body)
        assert stats["function"] == "classify"
        assert stats["generation"] >= 1
        local.update("classify", body)
        assert server.query_sites(opened["digest"]) == local.query_sites()

    def test_explain_and_stats(self, server, opened):
        verdicts = server.query_sites(opened["digest"])
        undefined = [uid for uid, ok in verdicts.items() if not ok]
        assert undefined, "the classify program must warn"
        steps = server.explain(opened["digest"], undefined[0])
        assert steps, "an undefined site must have a flow trace"
        assert all(isinstance(step, str) for step in steps)
        stats = server.stats(opened["digest"])
        assert stats["generation"] >= 1

    def test_distinct_options_get_distinct_sessions(self, server, opened):
        other = server.open(
            source=SOURCE,
            name="classify",
            options=AnalysisOptions(demand=False).as_dict(),
        )
        assert other["digest"] != opened["digest"]
        assert server.query_sites(other["digest"]) == server.query_sites(
            opened["digest"]
        )


class TestServeErrors:
    def test_unknown_digest_is_404(self, server):
        with pytest.raises(ServiceError) as exc:
            server.query_sites("feedfacedeadbeef")
        assert exc.value.status == 404

    def test_source_and_ir_together_is_400(self, server):
        with pytest.raises(ServiceError) as exc:
            server.open(source=SOURCE, ir="def main() {\n}")
        assert exc.value.status == 400

    def test_unknown_option_is_400(self, server):
        with pytest.raises(ServiceError) as exc:
            server.open(source=SOURCE, options={"turbo": True})
        assert exc.value.status == 400
        assert "turbo" in exc.value.message

    def test_parse_error_is_400_one_line(self, server):
        with pytest.raises(ServiceError) as exc:
            server.open(source="def main( {")
        assert exc.value.status == 400
        assert "\n" not in exc.value.message

    def test_unknown_route_is_404(self, server):
        with pytest.raises(ServiceError) as exc:
            server._call("/teapot", {})
        assert exc.value.status == 404
