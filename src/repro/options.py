"""The consolidated analysis-options surface: one frozen record.

:class:`AnalysisOptions` is the one way analysis knobs reach every entry
point that takes them: ``analyze(options=...)``,
``build_report(options=...)``, ``run_campaign(..., options=...)``, the
CLI via a shared argparse group and
:class:`repro.service.session.AnalysisSession` (``repro serve`` sends it
as JSON).  A field left ``None`` keeps the entry point's default.

The pointer analysis itself has no knobs: every entry point runs the
paper's configuration (offset-based, field-sensitive Andersen with
1-callsite heap cloning) through one solver path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

#: Definedness resolvers accepted by ``AnalysisOptions.resolver``.
RESOLVERS = ("callstring", "summary")


@dataclass(frozen=True)
class AnalysisOptions:
    """Every analysis knob in one immutable record.

    All fields default to ``None`` — "keep the entry point's default".
    Construction validates eagerly, so a typo'd resolver or depth fails
    where it was written, not mid-analysis.

    Attributes:
        demand: Resolve Γ demand-driven (backward VFG slicing) instead
            of whole-program reachability; ``None`` keeps each entry
            point's default (``False`` everywhere except sessions).
        resolver: ``"callstring"`` or ``"summary"``.
        config: A configuration name (``usher``, ``usher_tl``, ...) for
            entry points that analyze one configuration — ``repro
            serve`` sessions and ``analyze()`` when ``configs=`` is not
            given.
        context_depth: Call-string depth for definedness resolution.
    """

    demand: Optional[bool] = None
    resolver: Optional[str] = None
    config: Optional[str] = None
    context_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.demand is not None and not isinstance(self.demand, bool):
            raise ValueError(f"demand must be a bool or None, got {self.demand!r}")
        if self.resolver is not None and self.resolver not in RESOLVERS:
            known = ", ".join(RESOLVERS)
            raise ValueError(
                f"resolver must be one of {known}; got {self.resolver!r}"
            )
        if self.context_depth is not None and (
            not isinstance(self.context_depth, int) or self.context_depth < 0
        ):
            raise ValueError(
                f"context_depth must be a non-negative integer, "
                f"got {self.context_depth!r}"
            )

    def merged(self, **overrides) -> "AnalysisOptions":
        """A copy with the non-``None`` ``overrides`` applied."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **updates) if updates else self

    def as_dict(self) -> dict:
        """The non-``None`` fields, for JSON round-trips (``repro
        serve`` requests) and stats records."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "AnalysisOptions":
        """Validated construction from a JSON-ish mapping; unknown keys
        are rejected (a typo'd knob must not silently default)."""
        if not data:
            return cls()
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            names = ", ".join(sorted(unknown))
            raise ValueError(f"unknown analysis option(s): {names}")
        return cls(**data)


# ----------------------------------------------------------------------
# CLI integration: one shared argparse group.
# ----------------------------------------------------------------------
def add_analysis_options(parser) -> None:
    """Add the shared ``--demand`` analysis-options group to an
    argparse (sub)parser (``repro check`` and ``repro serve``)."""
    group = parser.add_argument_group("analysis options")
    group.add_argument(
        "--demand",
        action="store_true",
        help="resolve definedness demand-driven (backward VFG "
        "slicing) instead of whole-program reachability; identical "
        "verdicts",
    )


def options_from_args(args) -> AnalysisOptions:
    """Build a validated :class:`AnalysisOptions` from parsed CLI args."""
    return AnalysisOptions(
        demand=True if getattr(args, "demand", None) else None,
        config=getattr(args, "config", None),
    )


__all__ = [
    "RESOLVERS",
    "AnalysisOptions",
    "add_analysis_options",
    "options_from_args",
]
