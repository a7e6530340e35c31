"""One-shot experiment report: every table and figure, as markdown.

``python -m repro report -o results.md --scale 1.0`` regenerates the
full evaluation (Table 1, Figures 10/11, §4.6, ablations, the static
warner foil and the array-init extension) into a single document —
the artifact EXPERIMENTS.md's numbers come from.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.api import analyze
from repro.core.static_warner import false_positive_report
from repro.harness.ablation import build_ablation, format_ablation
from repro.harness.figure10 import build_figure10, format_figure10
from repro.harness.figure11 import build_figure11, format_figure11
from repro.harness.opt_levels import build_opt_levels, format_opt_levels
from repro.harness.runner import run_workload
from repro.harness.table1 import build_table1, format_table1
from repro.workloads import WORKLOADS

ABLATION_DEFAULT = ("181.mcf", "188.ammp", "300.twolf", "254.gap")


def _block(text: str) -> str:
    return f"```\n{text}\n```"


def build_report(
    scale: float = 1.0,
    sections: Optional[List[str]] = None,
) -> str:
    """Build the full markdown report.

    ``sections`` may restrict to a subset of
    ``{"table1", "figure10", "figure11", "opt_levels", "ablation",
    "warner", "extension", "solver", "trace"}`` ("trace" is opt-in
    only — it never appears in the default set).
    """
    wanted = set(
        sections
        or (
            "table1",
            "figure10",
            "figure11",
            "opt_levels",
            "ablation",
            "warner",
            "extension",
            "solver",
        )
    )
    # "trace" is opt-in: it re-runs an analysis with tracing enabled,
    # so it only appears when asked for via --sections.
    started = time.perf_counter()
    parts: List[str] = [
        "# Usher reproduction — experiment report",
        "",
        f"Workload scale: {scale} (1.0 = reference inputs).",
        "",
    ]

    if "table1" in wanted:
        parts += [
            "## Table 1 — benchmark statistics (O0+IM)",
            "",
            _block(format_table1(build_table1(scale=scale))),
            "",
        ]
    if "figure10" in wanted:
        figure = build_figure10(scale=scale)
        averages = figure.averages()
        reduction = 100 * (1 - averages["usher"] / averages["msan"])
        parts += [
            "## Figure 10 — slowdown vs native (O0+IM)",
            "",
            _block(format_figure10(figure)),
            "",
            f"Usher reduces MSan's average overhead by {reduction:.1f}% "
            f"(paper: 59.3%).",
            "",
        ]
    if "figure11" in wanted:
        parts += [
            "## Figure 11 — static propagations/checks vs MSan",
            "",
            _block(format_figure11(build_figure11(scale=scale))),
            "",
        ]
    if "opt_levels" in wanted:
        parts += [
            "## §4.6 — optimization levels",
            "",
            _block(format_opt_levels(build_opt_levels(scale=scale))),
            "",
        ]
    if "ablation" in wanted:
        parts += [
            "## Ablations (beyond the paper)",
            "",
            _block(
                format_ablation(
                    build_ablation(
                        scale=min(scale, 0.3),
                        workload_names=ABLATION_DEFAULT,
                    )
                )
            ),
            "",
        ]
    if "solver" in wanted:
        parts += [
            "## Constraint solver profile (delta vs reference)",
            "",
            _solver_table(scale),
            "",
        ]
    if "warner" in wanted:
        parts += ["## Static warner foil (§1)", "", _warner_table(scale), ""]
    if "extension" in wanted:
        parts += [
            "## Array-init extension (paper's future work)",
            "",
            _extension_table(scale),
            "",
        ]
    if "trace" in wanted:
        parts += [
            "## Phase trace (one traced run of the first workload)",
            "",
            _trace_tree(scale),
            "",
        ]

    parts.append(
        f"_Generated in {time.perf_counter() - started:.1f}s by "
        f"`repro.harness.report`._"
    )
    return "\n".join(parts)


def _warner_table(scale: float) -> str:
    lines = [
        f"{'benchmark':14s}{'warnings':>10s}{'true bugs':>11s}{'FP rate':>9s}"
    ]
    for w in WORKLOADS:
        run = run_workload(w, scale=min(scale, 0.3))
        report = false_positive_report(
            w.name, run.analysis.prepared, run.native().true_bug_set()
        )
        lines.append(
            f"{w.name:14s}{report.static_warning_sites:>10d}"
            f"{report.true_bug_sites:>11d}{report.false_positive_rate:>8.0%}"
        )
    return _block("\n".join(lines))


def _solver_table(scale: float) -> str:
    """Per-workload work profile of both constraint solvers."""
    from repro.analysis.andersen import analyze_pointers
    from repro.tinyc import compile_source

    lines = [
        f"{'benchmark':14s}{'solver':>10s}{'pops':>9s}{'facts':>10s}"
        f"{'added':>9s}{'SCCs':>6s}{'solve(s)':>10s}"
    ]
    for w in WORKLOADS:
        module = compile_source(w.source(min(scale, 0.3)), w.name)
        for label, use_reference in (("delta", False), ("reference", True)):
            stats = analyze_pointers(
                module, use_reference=use_reference
            ).solver_stats
            lines.append(
                f"{w.name:14s}{label:>10s}{stats.pops:>9d}"
                f"{stats.facts_propagated:>10d}{stats.facts_added:>9d}"
                f"{stats.sccs_collapsed:>6d}"
                f"{stats.phase_seconds.get('solve', 0.0):>10.4f}"
            )
    return _block("\n".join(lines))


def _trace_tree(scale: float) -> str:
    """Span tree of one traced end-to-end analysis.

    Captures every phase span — parse, constraint solving (per wave),
    VFG construction, Opt I/II, instrumentation — for the first
    workload at a small scale, and renders the hierarchy with wall
    times.  Spans under 1% of the root are folded away.
    """
    from repro.obs.trace import TRACE

    w = WORKLOADS[0]
    with TRACE.capture():
        analyze(source=w.source(min(scale, 0.3)), name=w.name)
        tree = TRACE.render_tree(min_fraction=0.01)
    return _block(tree or "(no spans recorded)")


def _extension_table(scale: float) -> str:
    lines = [f"{'benchmark':14s}{'usher':>10s}{'usher_ext':>11s}{'cuts':>6s}"]
    for w in WORKLOADS:
        analysis = analyze(
            source=w.source(min(scale, 0.3)),
            name=w.name,
            configs=["usher", "usher_ext"],
        )
        lines.append(
            f"{w.name:14s}{analysis.slowdown('usher'):>9.1f}%"
            f"{analysis.slowdown('usher_ext'):>10.1f}%"
            f"{analysis.results['usher_ext'].vfg.stats.array_init_cuts:>6d}"
        )
    return _block("\n".join(lines))
