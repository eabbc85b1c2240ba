"""The committed mutation sweep (``python tools/mutate.py``) leaves no mutant unresolved."""

import importlib.util
import json
from collections import Counter
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


def test_the_sweep_is_of_todays_source():
    # the sites tools/mutate.py makes of the source as it stands must be the ones the file swept: an operator added,
    # removed or moved to another scope without a rerun fails here (a body edit that keeps every name does not)
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    made = Counter((site.module, site.name) for module in mutate.MODULES for site in mutate._sites(module))
    swept = Counter((m["module"], m["mutant"]) for m in SWEEP["mutants"] if m["status"] != "deleted")
    assert made == swept, {"not swept": sorted(made - swept), "no longer made": sorted(swept - made)}
