"""Plan goldens for the ``pointer_heavy`` module, checked on demand.

``generate_program(11, GeneratorParams().scaled(16).pointer_heavy())``
is analyzed through :func:`repro.api.analyze` to all five plans, and
each plan's static checks, propagations and a digest of
:func:`repro.service.plan_signature` are compared with
``goldens/pointer_heavy.json``.  Program seed 11 is the seed of the
committed solver and query rows.  Run it before and after a change
that must not move any plan (the Opt II rewrite)::

    PYTHONPATH=src python3 perfbench/pointer_heavy.py --check

It exits 1 and names each drifted plan.  Regenerate the goldens only
before a deliberate plan change::

    PYTHONPATH=src python3 perfbench/pointer_heavy.py --capture "commit <sha>"

The note names the commit the goldens were captured at.  This module
was a timed workload once; it is not one, because its single 11 s
analysis cannot be timed steadily on a shared host (see ``LEDGER.md``).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro import api
from repro.service import plan_signature
from repro.workloads import GeneratorParams, generate_program

PROGRAM_SEED = 11
FACTOR = 16
GOLDENS = Path(__file__).resolve().parent / "goldens" / "pointer_heavy.json"


def program_source() -> str:
    return generate_program(PROGRAM_SEED, GeneratorParams().scaled(FACTOR).pointer_heavy())


def plan_digest(plan) -> str:
    """sha256 of :func:`repro.service.plan_signature`, with both maps
    in key order so that emitting the same ops in another order is not
    drift."""
    entry, ops = plan_signature(plan)
    canonical = repr((sorted(entry.items()), sorted(ops.items())))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def plan_record(plan) -> Dict[str, object]:
    return {
        "checks": plan.count_checks(),
        "propagations": plan.count_propagations(),
        "signature_sha256": plan_digest(plan),
    }


def capture(provenance: str) -> Dict[str, object]:
    analysis = api.analyze(source=program_source(), name="pointer_heavy", level="O0+IM")
    return {
        "captured_from": provenance,
        "program": f"generate_program({PROGRAM_SEED}, GeneratorParams().scaled({FACTOR}).pointer_heavy())",
        "level": "O0+IM",
        "plans": {config: plan_record(analysis.plans[config]) for config in api.CONFIG_ORDER},
    }


def drifted() -> List[str]:
    """One line per plan whose record differs from the goldens."""
    goldens = json.loads(GOLDENS.read_text())["plans"]
    plans = capture("")["plans"]
    return [
        f"{config}: {plans.get(config)} != golden {goldens[config]}"
        for config in goldens
        if plans.get(config) != goldens[config]
    ]


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        lines = drifted()
        print("\n".join(lines) or "all plans match the goldens")
        sys.exit(1 if lines else 0)
    if len(sys.argv) != 3 or sys.argv[1] != "--capture":
        sys.exit('usage: PYTHONPATH=src python3 perfbench/pointer_heavy.py '
                 '--check | --capture "commit <sha>"')
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(capture(sys.argv[2]), indent=2, sort_keys=True) + "\n")
