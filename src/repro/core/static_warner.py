"""A purely static uninitialized-use warner (the §1/§5.1 foil).

The paper motivates hybrid static+dynamic detection by the weakness of
each side alone: "Static analysis tools can warn for the presence of
uninitialized variables but usually suffer from a high false positive
rate" (§1).  This client demonstrates the point *on Usher's own
machinery*: it reports every critical use whose VFG node resolves to ⊥
— exactly the sites Usher would instrument — as a compile-time warning,
with no run-time component.

Because Γ is sound, the warner misses no bug (every true undefined use
is warned); because Γ is approximate (weak updates, collapsed arrays,
merged contexts), most warnings on realistic code never fire — the
false-positive rate ``benchmarks/test_static_warner.py`` measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.usher import PreparedModule, UsherConfig, run_usher


@dataclass(frozen=True)
class StaticWarning:
    """One compile-time warning: a critical use of a maybe-⊥ value."""

    instr_uid: int
    function: str
    line: Optional[int]
    operand: str
    description: str

    def __str__(self) -> str:
        where = f"line {self.line}" if self.line is not None else "<?>"
        return (
            f"{where}, in {self.function}(): value {self.operand!r} may be "
            f"uninitialized at `{self.description}`"
        )


def static_warnings(
    prepared: PreparedModule, config: Optional[UsherConfig] = None
) -> List[StaticWarning]:
    """All critical uses the static analysis cannot prove defined."""
    result = run_usher(
        prepared, config or UsherConfig.tl_at().with_name("static_warner")
    )
    by_uid = prepared.module.instr_by_uid()
    warnings: List[StaticWarning] = []
    for site in result.vfg.check_sites:
        if site.node is None or result.gamma.is_defined(site.node):
            continue
        instr = by_uid[site.instr_uid]
        warnings.append(
            StaticWarning(
                instr_uid=site.instr_uid,
                function=site.func,
                line=instr.line,
                operand=site.operand,
                description=str(instr),
            )
        )
    return warnings


@dataclass
class FalsePositiveReport:
    """Static warnings vs dynamic ground truth for one program."""

    benchmark: str
    static_warning_sites: int
    true_bug_sites: int
    missed_bugs: int  # must be 0: the analysis is sound

    @property
    def false_positives(self) -> int:
        return self.static_warning_sites - (
            self.true_bug_sites - self.missed_bugs
        )

    @property
    def false_positive_rate(self) -> float:
        if self.static_warning_sites == 0:
            return 0.0
        return self.false_positives / self.static_warning_sites


def false_positive_report(
    benchmark: str, prepared: PreparedModule, true_bug_uids: "set[int]"
) -> FalsePositiveReport:
    """Compare the warner against one execution's ground truth."""
    warned = {w.instr_uid for w in static_warnings(prepared)}
    return FalsePositiveReport(
        benchmark=benchmark,
        static_warning_sites=len(warned),
        true_bug_sites=len(true_bug_uids),
        missed_bugs=len(true_bug_uids - warned),
    )
