"""Benchmark: the static-warner foil (§1's motivation, quantified).

Runs the purely static uninitialized-use warner over the workloads and
measures its false-positive rate against the dynamic ground truth —
the high-FP problem the paper cites as the reason static analysis alone
is not used for this bug class, and the reason Usher exists (prune the
dynamic tool instead of replacing it).
"""

import pytest

from repro.api import analyze
from repro.core.static_warner import false_positive_report
from repro.workloads import WORKLOADS


def prepared_analysis(w, scale):
    """The warner needs only the prepared module; MSan is the cheapest
    configuration to carry along."""
    return analyze(source=w.source(scale), name=w.name, configs=["msan"])


@pytest.fixture(scope="module")
def reports(scale):
    rows = []
    for w in WORKLOADS:
        analysis = prepared_analysis(w, min(scale, 0.3))
        rows.append(
            false_positive_report(
                w.name,
                analysis.prepared,
                analysis.run_native().true_bug_set(),
            )
        )
    return rows


class TestStaticWarner:
    def test_soundness_no_missed_bugs(self, reports):
        """Every true dynamic bug is statically warned (the analysis is
        sound — §3's claim, restated for the static client)."""
        for report in reports:
            assert report.missed_bugs == 0, report.benchmark

    def test_parser_bug_is_warned(self, reports):
        parser = next(r for r in reports if r.benchmark == "197.parser")
        assert parser.true_bug_sites >= 1
        assert parser.static_warning_sites >= 1

    def test_high_false_positive_rate(self, reports):
        """§1: static-only detection drowns in false positives on
        realistic code — here, every fogged (dynamically-initialized)
        site is warned."""
        warned = [r for r in reports if r.static_warning_sites > 0]
        avg_fp = sum(r.false_positive_rate for r in warned) / len(warned)
        assert avg_fp > 0.5

    def test_clean_benchmark_produces_no_warnings(self, reports):
        mcf = next(r for r in reports if r.benchmark == "181.mcf")
        assert mcf.static_warning_sites == 0

    def test_print_table(self, reports, record_table):
        lines = [
            f"{'benchmark':14s}{'warnings':>10s}{'true bugs':>11s}"
            f"{'FP rate':>9s}"
        ]
        for r in reports:
            lines.append(
                f"{r.benchmark:14s}{r.static_warning_sites:>10d}"
                f"{r.true_bug_sites:>11d}{r.false_positive_rate:>8.0%}"
            )
        text = "\n".join(lines)
        record_table("static_warner", text)
        print()
        print("=== Static warner (§1 foil): warnings vs ground truth ===")
        print(text)


class TestStaticWarnerBenchmarks:
    def test_warner_speed(self, benchmark):
        from repro.core.static_warner import static_warnings
        from repro.workloads import workload

        analysis = prepared_analysis(workload("253.perlbmk"), 0.2)
        warnings = benchmark(static_warnings, analysis.prepared)
        assert isinstance(warnings, list)
