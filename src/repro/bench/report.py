"""Markdown renderings of bench rows: the paper's evaluation (§4).

One run's ok rows — one per (workload, config) cell — hold every number
the evaluation reports, and this module only arranges them:

- **Figure 10**: slowdown vs native per workload and configuration,
  the average row and Usher's reduction of MSan's average overhead;
- **Figure 11**: each Usher configuration's static propagations and
  checks as a fraction of the same workload's ``msan`` row (rendered
  when the run has ``msan`` rows);
- **Table 1**: benchmark statistics, the VFG columns and %B from the
  ``tl_at`` row, Opt I's simplified MFCs from the ``opt_i`` row, and
  Opt II's redirected nodes and the analysis time from the ``full``
  row;
- **cell wall-clock**: mean per-cell seconds for each configuration.

Rows carry their pipeline level, and a log holding several levels —
§4.6 is three ``repro bench --level`` runs into one log — renders each
level's views under its own headings.  Should a log repeat a cell, the
views take its first row.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.matrix import CONFIG_SPECS, DEFAULT_LEVEL

#: Configurations Figure 11 normalizes to the ``msan`` row.
FIGURE11_CONFIGS = ("tl", "tl_at", "opt_i", "full", "ext")

#: Table 1's columns: (row field, heading, format, config the value
#: comes from).  The program-level columns are the same in every row
#: of a workload; they are read from the ``tl_at`` row.
TABLE1_COLUMNS = (
    ("source_lines", "Lines", "d", "tl_at"),
    ("analysis_seconds", "Time(s)", ".2f", "full"),
    ("var_tl", "VarTL", "d", "tl_at"),
    ("var_at_stack", "Stack", "d", "tl_at"),
    ("var_at_heap", "Heap", "d", "tl_at"),
    ("var_at_global", "Global", "d", "tl_at"),
    ("pct_uninit_allocs", "%F", ".0f", "tl_at"),
    ("semi_strong_per_heap_site", "S/site", ".1f", "tl_at"),
    ("pct_strong_stores", "%SU", ".0f", "tl_at"),
    ("pct_singleton_weak_stores", "%WU", ".0f", "tl_at"),
    ("vfg_nodes", "Nodes", "d", "tl_at"),
    ("pct_reaching_checks", "%B", ".0f", "tl_at"),
    ("mfcs_simplified", "S(OptI)", "d", "opt_i"),
    ("redirected_nodes", "R(OptII)", "d", "full"),
)

Cells = Dict[Tuple[str, str], Dict]


def _cells(rows: List[Dict]) -> Cells:
    """(workload, config) -> the first ok row of that cell."""
    first: Cells = {}
    for row in rows:
        if row.get("status") == "ok":
            first.setdefault((row["workload"], row["config"]), row)
    return first


def _axes(cells: Cells) -> Tuple[List[str], List[str]]:
    workloads = sorted({workload for workload, _ in cells})
    present = {config for _, config in cells}
    return workloads, [spec for spec in CONFIG_SPECS if spec in present]


def by_level(rows: List[Dict]) -> Dict[str, List[Dict]]:
    """A log's rows grouped by pipeline level, in first-seen order
    (rows written before rows carried a level ran at O0+IM)."""
    groups: Dict[str, List[Dict]] = {}
    for row in rows:
        groups.setdefault(row.get("level", DEFAULT_LEVEL), []).append(row)
    return groups


def figure10(rows: List[Dict]) -> Dict[str, Dict[str, float]]:
    """workload -> config -> slowdown percent, over one level's rows."""
    table: Dict[str, Dict[str, float]] = {}
    for (workload, config), row in sorted(_cells(rows).items()):
        table.setdefault(workload, {})[config] = row["slowdown_percent"]
    return table


def average_slowdowns(rows: List[Dict]) -> Dict[str, float]:
    """config -> mean slowdown over the workloads that ran it."""
    sums: Dict[str, List[float]] = {}
    for slowdowns in figure10(rows).values():
        for config, value in slowdowns.items():
            sums.setdefault(config, []).append(value)
    return {config: sum(v) / len(v) for config, v in sums.items()}


def msan_reduction(averages: Dict[str, float]) -> Optional[float]:
    """Usher's reduction of MSan's average overhead, in percent."""
    if not averages.get("msan") or "full" not in averages:
        return None
    return 100.0 * (1 - averages["full"] / averages["msan"])


def figure11(rows: List[Dict]) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """workload -> Usher config -> (propagations, checks) as fractions
    of the workload's ``msan`` row; workloads without one are left
    out."""
    cells = _cells(rows)
    table: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for (workload, config), row in sorted(cells.items()):
        msan = cells.get((workload, "msan"))
        if msan is None or config not in FIGURE11_CONFIGS:
            continue
        table.setdefault(workload, {})[config] = (
            row["propagations"] / max(msan["propagations"], 1),
            row["checks"] / max(msan["checks"], 1),
        )
    return table


def table1(rows: List[Dict]) -> Dict[str, Dict[str, object]]:
    """workload -> Table 1 column -> value (``None`` when the run has
    no row of the column's configuration)."""
    cells = _cells(rows)
    workloads, _ = _axes(cells)
    table: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        columns = {
            name: cells.get((workload, config), {}).get(name)
            for name, _, _, config in TABLE1_COLUMNS
        }
        if any(value is not None for value in columns.values()):
            table[workload] = columns
    return table


def _markdown(header: List[str], body: List[List[str]]) -> List[str]:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    lines.extend("| " + " | ".join(cells) + " |" for cells in body)
    return lines + [""]


def format_figure10(rows: List[Dict], level: str) -> List[str]:
    """Figure 10's markdown lines for one level's rows."""
    cells = _cells(rows)
    workloads, configs = _axes(cells)
    averages = average_slowdowns(rows)

    def slowdown(workload: str, config: str) -> str:
        row = cells.get((workload, config))
        return "—" if row is None else f"{row['slowdown_percent']:.1f}"

    body = [[w] + [slowdown(w, c) for c in configs] for w in workloads]
    body.append(["**average**"] + [f"{averages[c]:.1f}" for c in configs])
    lines = [f"## Figure 10 — slowdown vs native, % ({level})", ""]
    lines += _markdown(["workload"] + configs, body)
    reduction = msan_reduction(averages)
    if reduction is not None:
        lines += [
            f"Usher reduces MSan's average overhead by {reduction:.1f}% "
            "(paper: 59.3% at O0+IM).",
            "",
        ]
    # Detection (§4.5): every workload with a warning or a true bug.
    detected = []
    for workload in workloads:
        ran = [cells[(workload, c)] for c in configs if (workload, c) in cells]
        bugs = max(len(row.get("true_bug_uids", ())) for row in ran)
        if bugs or any(row["warnings"] for row in ran):
            warned = ", ".join(
                f"{row['config']} {row['warnings']}" for row in ran
            )
            detected.append(
                f"- `{workload}`: {bugs} true bug(s); warnings: {warned}"
            )
    return lines + (detected + [""] if detected else [])


def format_figure11(rows: List[Dict], level: str) -> List[str]:
    """Figure 11's markdown lines (none without ``msan`` rows)."""
    table = figure11(rows)
    if not table:
        return []
    configs = [
        c for c in FIGURE11_CONFIGS
        if any(c in ratios for ratios in table.values())
    ]
    header = ["workload"] + [f"{c} prop / chk" for c in configs]

    def cell(pair) -> str:
        return f"{pair[0] * 100:.0f}% / {pair[1] * 100:.0f}%"

    body = [
        [workload] + [
            cell(ratios[c]) if c in ratios else "—" for c in configs
        ]
        for workload, ratios in sorted(table.items())
    ]
    averages = []
    for c in configs:
        props, checks = zip(
            *(ratios[c] for ratios in table.values() if c in ratios)
        )
        averages.append(
            cell((sum(props) / len(props), sum(checks) / len(checks)))
        )
    body.append(["**average**"] + averages)
    return [
        f"## Figure 11 — static propagations / checks vs MSan ({level})",
        "",
    ] + _markdown(header, body)


def format_table1(rows: List[Dict], level: str) -> List[str]:
    """Table 1's markdown lines (none without tl_at/opt_i/full rows)."""
    table = table1(rows)
    if not table:
        return []
    body = [
        [workload] + [
            "—" if cols[name] is None else format(cols[name], fmt)
            for name, _, fmt, _ in TABLE1_COLUMNS
        ]
        for workload, cols in sorted(table.items())
    ]
    header = ["workload"] + [title for _, title, _, _ in TABLE1_COLUMNS]
    return [
        f"## Table 1 — benchmark statistics ({level})",
        "",
    ] + _markdown(header, body)


def format_bench_report(rows: List[Dict]) -> str:
    """The full markdown report for one log's rows."""
    ok = [row for row in rows if row.get("status") == "ok"]
    errors = [row for row in rows if row.get("status") != "ok"]
    lines = [
        "# Bench matrix report",
        "",
        f"{len(rows)} cell(s): {len(ok)} ok, {len(errors)} error(s).",
        "",
    ]
    for level, level_rows in by_level(ok).items():
        lines += format_figure10(level_rows, level)
        lines += format_figure11(level_rows, level)
        lines += format_table1(level_rows, level)
    if ok:
        lines += ["## Mean cell wall-clock (s)", ""]
        _, configs = _axes(_cells(ok))
        body = []
        for spec in configs:
            sample = [row["elapsed"] for row in ok if row["config"] == spec]
            body.append([spec, f"{sum(sample) / len(sample):.3f}"])
        lines += _markdown(["config", "seconds"], body)
    if errors:
        lines += ["## Errors", ""]
        lines += [
            f"- `{row['cell']}`: {row.get('error', 'unknown')}"
            for row in errors
        ]
        lines.append("")
    return "\n".join(lines)


__all__ = [
    "FIGURE11_CONFIGS",
    "TABLE1_COLUMNS",
    "average_slowdowns",
    "by_level",
    "figure10",
    "figure11",
    "format_bench_report",
    "format_figure10",
    "format_figure11",
    "format_table1",
    "msan_reduction",
    "table1",
]
