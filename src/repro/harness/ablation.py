"""Ablation studies for the design choices DESIGN.md calls out.

Not in the paper's evaluation, but each knob corresponds to a design
decision the paper motivates:

- **semi-strong updates** (§3.2, Figure 6): off → weak updates at every
  non-strong store;
- **context sensitivity depth** (§3.3): 0 (context-insensitive), 1 (the
  paper's setting), 2, and the fully context-sensitive summary-based
  tabulation (``summary``);
- **heap cloning** (§4.1): off → one abstract object per allocation
  site regardless of call site.

Reported metric: static shadow propagations + checks of the full Usher
configuration (smaller = the knob helped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.api import analyze
from repro.options import AnalysisOptions
from repro.workloads import WORKLOADS

VARIANTS = (
    "baseline",
    "no_semi_strong",
    "ctx0",
    "ctx2",
    "summary",
    "no_heap_cloning",
)


@dataclass
class AblationRow:
    benchmark: str
    #: variant -> (static propagations, static checks)
    metrics: Dict[str, "tuple[int, int]"] = field(default_factory=dict)


def _analyze(source: str, name: str, variant: str):
    kwargs = {"configs": ["usher"]}
    if variant == "no_semi_strong":
        kwargs["semi_strong"] = False
    elif variant == "ctx0":
        kwargs["options"] = AnalysisOptions(context_depth=0)
    elif variant == "ctx2":
        kwargs["options"] = AnalysisOptions(context_depth=2)
    elif variant == "summary":
        kwargs["options"] = AnalysisOptions(resolver="summary")
    elif variant == "no_heap_cloning":
        kwargs["heap_cloning"] = False
    return analyze(source=source, name=name, **kwargs)


def build_ablation(scale: float = 0.3, workload_names=None) -> List[AblationRow]:
    rows: List[AblationRow] = []
    selected = [
        w for w in WORKLOADS if workload_names is None or w.name in workload_names
    ]
    for workload in selected:
        row = AblationRow(benchmark=workload.name)
        for variant in VARIANTS:
            analysis = _analyze(workload.source(scale), workload.name, variant)
            row.metrics[variant] = (
                analysis.static_propagations("usher"),
                analysis.static_checks("usher"),
            )
        rows.append(row)
    return rows


def format_ablation(rows: List[AblationRow]) -> str:
    header = f"{'benchmark':14s}" + "".join(f"{v:>22s}" for v in VARIANTS)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = "".join(
            f"{p:>14d}p/{c:>4d}c" for p, c in (row.metrics[v] for v in VARIANTS)
        )
        lines.append(f"{row.benchmark:14s}{cells}")
    return "\n".join(lines)
