"""The committed mutation sweep (``python tools/mutate.py``) leaves no mutant unresolved."""

import ast
import importlib.util
import pickle
import subprocess
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


def test_the_sweep_is_of_todays_source():
    # every file the sweep read, each module of the package and tools/mutate.py with its operators, names and
    # EQUIVALENT, must still have the syntax tree it swept: any edit but one to comments, layout or docstrings, and a
    # module added or deleted, needs a rerun
    assert mutate._fingerprints() == SWEEP["fingerprints"]
    # a sweep that exits 1 on a stale EQUIVALENT key still writes the file, with the tool's fingerprint
    recorded = {(m["module"], m["mutant"]): m["reason"] for m in SWEEP["mutants"] if m["status"] == "equivalent"}
    assert recorded == mutate.EQUIVALENT


def test_the_sweep_leaves_this_file_out_of_its_runs():
    # so neither an edit the sweep is to record nor an unresolved entry of the last sweep fails its unmutated run
    proc = subprocess.run(mutate.PYTEST + ["--collect-only", "-q", "tests"], cwd=ROOT, env=mutate._environment(ROOT),
                          capture_output=True, text=True, check=True)
    assert "tests/test_mutation.py" not in proc.stdout


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
