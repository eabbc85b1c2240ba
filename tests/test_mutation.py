"""The committed mutation sweep (``python tools/mutate.py``) leaves no mutant unresolved."""

import ast
import importlib.util
import pickle
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate)
SWEEP = mutate.latest()
# each resolved status and the field that must say why
RESOLVED = {"killed": "killed_by", "equivalent": "reason"}


def test_every_mutant_is_killed_or_equivalent():
    unresolved = [m for m in SWEEP["mutants"] if not m.get(RESOLVED.get(m["status"], "status?"))]
    assert not unresolved, unresolved


def test_the_sweep_covers_every_module_of_the_package():
    # __init__.py holds only names, so no operator applies to it
    modules = {path.stem for path in (ROOT / "src" / "dimercorr").glob("*.py")} - {"__init__"}
    assert set(SWEEP["modules"]) == {m["module"] for m in SWEEP["mutants"]} == modules


def test_the_sweep_is_of_todays_source():
    # the sites tools/mutate.py makes of the source as it stands must be the ones the file swept (an operator added,
    # removed or moved to another scope without a rerun fails here), and each module's syntax tree must be the one
    # swept (a body edit that keeps every site name fails here too; a comment or docstring edit does not); and every
    # reason in the script's EQUIVALENT must be the one the file records, with no other mutant recorded equivalent
    # (an EQUIVALENT edit without a rerun fails here; the sweep deselects this test, so its own runs do not)
    made = Counter((site.module, site.name) for module in mutate.MODULES for site in mutate._sites(module))
    swept = Counter((m["module"], m["mutant"]) for m in SWEEP["mutants"])
    assert made == swept, {"not swept": sorted(made - swept), "no longer made": sorted(swept - made)}
    assert {module: mutate._fingerprint(module) for module in mutate.MODULES} == SWEEP["fingerprints"]
    recorded = {(m["module"], m["mutant"]): m["reason"] for m in SWEEP["mutants"] if m["status"] == "equivalent"}
    assert recorded == mutate.EQUIVALENT


def test_each_mutant_is_written_from_the_tree():
    # every mutant of one module parses to another syntax tree, and making it leaves the tree its sites share as it
    # was (pickled, positions and all)
    sites = mutate._sites("threshold")
    original, tree = ast.dump(sites[0].tree), pickle.dumps(sites[0].tree)
    for site in sites:
        assert ast.dump(ast.parse(site.source())) != original, site.name
        assert pickle.dumps(site.tree) == tree, site.name


def test_a_killer_pytest_cannot_find_is_no_kill(monkeypatch):
    # a recorded killed_by that no longer names a test makes pytest exit 4 ("ERROR: not found"): that run is no kill,
    # and the mutant goes on to all of tier-1, whose run is stood in for here to keep this test fast
    missing, real, runs = "tests/test_mutation.py::test_that_was_renamed", mutate._run, []

    def run(copy, env, tests):
        runs.append((tests, real(copy, env, tests) if tests == [missing] else ("passed", "")))
        return runs[-1][1]

    monkeypatch.setattr(mutate, "_run", run)
    assert mutate._kill(ROOT, mutate._environment(ROOT), missing) == ("passed", "")
    assert runs == [([missing], ("unfound", "")), (["tests"], ("passed", ""))]
