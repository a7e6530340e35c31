"""The interpreter's reports against pinned goldens.

``tests/data/interp_golden.json`` holds one sha256 per run — of the
report of a completed run, or of the exception type and message of a
failed one — written by ``tools/capture_interp_golden.py``.  Any change
to outputs, exit values, native ops, steps, true uses, warnings, events
or error messages shows up here as a mismatch naming the run.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "capture_interp_golden.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("capture_interp_golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_tool()

#: group name -> (workload and corpus groups?, random seeds)
GROUPS = {
    "programs": (True, range(0)),
    **{
        f"seeds{start}-{start + 49}": (False, range(start, start + 50))
        for start in range(0, golden.RANDOM_SEEDS, 50)
    },
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_reports_match_goldens(group):
    programs, seeds = GROUPS[group]
    got = golden.capture(golden.iter_cases(programs, seeds))
    expected = {key: d for key, d in golden.load().items() if key in got}
    assert len(expected) == len(got), "runs missing from the golden file"
    assert golden.mismatches(expected, got) == []


def test_groups_cover_the_golden_file():
    keys = golden.load().keys()
    pattern = re.compile(r"(?:seed|drop)/(\d+)/")
    seeds = {int(m.group(1)) for m in map(pattern.match, keys) if m}
    assert seeds == set(range(golden.RANDOM_SEEDS))
    programs = [k for k in keys if k.startswith(("workload/", "corpus/"))]
    per_program = 2 * (1 + 5)  # two limits x (native + CONFIG_ORDER)
    assert len(programs) % per_program == 0 and len(programs) >= 22 * per_program
    drops = [k for k in keys if k.startswith("drop/")]
    variants = len(golden.DROP_CONFIGS) * golden.DROP_VARIANTS
    assert len(drops) == golden.DROP_SEEDS * variants


def test_capture_is_deterministic(tmp_path):
    """Two captures of the same tree are byte-identical, whatever the
    hash seed, so goldens only change when the interpreter does."""
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"golden{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        subprocess.run(
            [sys.executable, str(TOOL), "--seeds", "3", "--no-programs",
             "--out", str(out)],
            check=True,
            env=env,
            capture_output=True,
            timeout=300,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    runs = golden.load(tmp_path / "golden1.json")
    assert {k: d for k, d in golden.load().items() if k in runs} == runs
