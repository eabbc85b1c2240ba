"""The committed mutation sweep (``python tools/mutate.py``) leaves no mutant unresolved."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the latest sweep: the highest-numbered MUTATION_<n>.json, so a new file name needs no edit here
LATEST = max(ROOT.glob("MUTATION_*.json"), key=lambda path: int(path.stem.partition("_")[2]))
SWEEP = json.loads(LATEST.read_text(encoding="utf-8"))
# each resolved status and the field that must say why
RESOLVED = {"killed": "killed_by", "equivalent": "reason", "deleted": "reason"}


def test_every_mutant_is_killed_equivalent_or_deleted():
    unresolved = [m for m in SWEEP["mutants"] if not m.get(RESOLVED.get(m["status"], "status?"))]
    assert not unresolved, unresolved


def test_the_sweep_covers_every_module_of_the_package():
    # __init__.py holds only names, so no operator applies to it
    modules = {path.stem for path in (ROOT / "src" / "dimercorr").glob("*.py")} - {"__init__"}
    assert set(SWEEP["modules"]) == {m["module"] for m in SWEEP["mutants"]} == modules
