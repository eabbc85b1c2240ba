"""Mutation sweep: each small change to the package must fail the tier-1 suite.

Run from anywhere, with no arguments:

    python tools/mutate.py

For each module of the package the sweep makes every mutant the operators
below give, one at a time, by changing the module's parsed tree and writing
it back with ``ast.unparse`` (the file loses its comments and layout, not
its meaning) into a private copy of the repository.  There pytest (``-x``,
under a time limit, no third-party plugin, tests/test_mutation.py left out)
runs the test that killed the mutant in the latest sweep alone, then all of
tier-1 (``tests``, in collection order) unless that test failed: one that
passes, hangs or is not found (pytest's exit 4 or 5) is no kill.  Any
failing test is a kill, as the unmutated copy passes them all: the mutant
is ``killed``.  One that passes is ``equivalent`` when EQUIVALENT gives the
reason it cannot change any result, and ``survived`` otherwise; one that
outruns the limit is ``hung``, and one whose run finds no test ``unfound``.

The operators: + and - swapped, * and / swapped (both also in augmented
assignments), < and <=, > and >=, == and != swapped, min and max (and
numpy's minimum and maximum) swapped, expm1 -> exp, log1p -> log, a numeric
constant plus 1, and a unary minus dropped.  Docstrings and annotations are
left alone.

The result goes to OUTPUT, one entry per mutant, with the fingerprint (a
SHA-256 of the syntax tree without docstrings) of each file the sweep
reads: every module of the package and this script, keyed by path.  The
sweep is current exactly when each still has it; tests/test_mutation.py
checks that, and that EQUIVALENT is the file's ``equivalent`` entries.  A
mutant is named by where it sits (the function, or the module-level name
it assigns) and its text before and after, so the name outlives edits
elsewhere in its module.  The exit status is 1 if a mutant is neither
``killed`` nor ``equivalent``, if an EQUIVALENT key is not a mutant this
sweep recorded ``equivalent``, or if the unmutated copy (every module
written back by ``ast.unparse``) fails the suite.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dimercorr"
OUTPUT = ROOT / "MUTATION.json"
TIMEOUT = 120  # seconds per pytest run; tier-1 takes about 11
WORKERS = 2
# tests/test_mutation.py checks the sweep's file against the source and EQUIVALENT: a mutant's copy holds a mutated
# source, an edit waits for this sweep to reach the file, and the last sweep may have left a mutant unresolved, so
# it would fail for every mutant (or the unmutated run).  --ignore skips its import too, which --deselect does not
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--ignore=tests/test_mutation.py"]

_ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_COMPARISON = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
_NAMES = {"min": "max", "max": "min", "minimum": "maximum", "maximum": "minimum", "expm1": "exp", "log1p": "log"}
_SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
           ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}

# Mutants that pass the suite because they cannot change any result, by
# (module, name): the reason, written into OUTPUT.
_TOLERANCE = "a tolerance comparison: no input the suite or the package meets sits exactly on the bound"
_NEGATIVE_SIZE = "numpy reads any negative size in reshape as the one size it infers"
EQUIVALENT: dict[tuple[str, str], str] = {
    ("cli", "_PARAMETERS: 4 -> 5"): "only the JSON writer reads it: a fifth parameter column is the total, which "
    "_tokens writes as _json_number, the token that the output path's shortcut and _json_token give it too",
    ("cli", "_fill: columns[0] -> columns[1]"): "every record column has the same length",
    ("correlations", "_SUB_BATCH: 256 -> 257"): "each draw's average is computed on its own, and the minimum "
    "over all draws does not depend on how they are batched",
    ("correlations", "_xlog2x: x > 0.0 -> x >= 0.0"): "at x = 0 both branches give 0 (0 * log2(1))",
    ("correlations", "_xlog2x: np.where(x > 0.0, x, 1.0) -> np.where(x > 0.0, x, 2.0)"): "the outer np.where "
    "discards the inner value wherever x <= 0",
    ("correlations", "_sigma_yy_form: rows[..., ::-1] * _SIGMA_YY_SIGNS -> rows[..., ::-1] / _SIGMA_YY_SIGNS"): "the "
    "signs are +-1, and x / +-1 == x * +-1 exactly",
    ("correlations", "_separable_ppt: np.linalg.eigvalsh(_partial_transpose(rho))[..., 0] >= -1e-10 -> "
     "np.linalg.eigvalsh(_partial_transpose(rho))[..., 0] > -1e-10"): _TOLERANCE,
    ("correlations", "_orthonormal_columns: range(2) -> range(3)"): "a third Gram-Schmidt pass moves Q by rounding "
    "only, since two passes already make it orthonormal to roundoff; no output holds those bits (verify prints "
    "4 digits of the ensemble gap, the sampler's oracle test holds 1e-14)",
    ("correlations", "_weighted_eigenrows: values > 1e-10 -> values >= 1e-10"): _TOLERANCE,
    ("correlations", "_least_averages: (u.real * u.real + u.imag * u.imag).reshape(len(u), -1) -> "
     "(u.real * u.real + u.imag * u.imag).reshape(len(u), -2)"): _NEGATIVE_SIZE,
    ("correlations", "_least_averages: products.reshape(len(first), -1) -> products.reshape(len(first), -2)"):
    _NEGATIVE_SIZE,
    ("correlations", "_least_averages: (probs * _formation(c)).reshape(len(norms), u.shape[1], -1) -> "
     "(probs * _formation(c)).reshape(len(norms), u.shape[1], -2)"): _NEGATIVE_SIZE,
    ("correlations", "sample_decomposition_average: basis.reshape(-1, rank, 4) -> basis.reshape(-2, rank, 4)"):
    _NEGATIVE_SIZE,
    ("correlations", "_least_averages: probs > 0.0 -> probs >= 0.0"): "a member's weight is 0 only where its Haar "
    "amplitudes vanish on the whole support, which a Gaussian draw gives with probability 0",
    ("correlations", "_least_averages: np.where(probs > 0.0, probs, 1.0) -> np.where(probs > 0.0, probs, 2.0)"):
    "where a member's weight is 0 its |u^T tau u| is 0 too, so any placeholder gives C = 0",
    ("matkernel", "_hermitian_mask: np.abs(m - _adjoint(m)).max(axis=(-2, -1)) <= HERMITIAN_TOL -> "
     "np.abs(m - _adjoint(m)).max(axis=(-2, -1)) < HERMITIAN_TOL"): _TOLERANCE,
    ("matkernel", "_density_eigh: np.abs(trace - 1.0) <= TRACE_TOL -> np.abs(trace - 1.0) < TRACE_TOL"): _TOLERANCE,
    ("matkernel", "_density_eigh: values[..., 0] >= -PSD_TOL -> values[..., 0] > -PSD_TOL"): _TOLERANCE,
    ("models", "_x_form: r if r > 0.0 else 1.0 -> r if r > 0.0 else 2.0"): "r = 0 only at gamma = 1 and b1 = b2, "
    "where every numerator r_safe divides (delta^2 and gap) is 0",
    ("models", "_x_form: delta >= 0.0 -> delta > 0.0"): "at delta = 0 both sides are equal: 1 - |cos| is 1 for "
    "gamma < 1, and p_hi = p_lo at gamma = 1",
    ("models", "_map_kernel: arrays[0] -> arrays[1]"): "np.broadcast_arrays gives every array the same shape",
    ("sweep", "detect_quantum_exceeds_classical: q > c + 1e-12 -> q >= c + 1e-12"): _TOLERANCE,
    ("sweep", "detect_zero_plateau: v <= 1e-10 -> v < 1e-10"): _TOLERANCE,
    ("sweep", "count_peaks: i - 1 -> i + 1"): "it takes each top at its right end instead of its left, and the "
    "prominence walk crosses a flat top both ways, so the same tops count",
    ("verify", "check_gibbs_equivalence: worst < GIBBS_TOL -> worst <= GIBBS_TOL"): _TOLERANCE,
    ("verify", "check_wootters_closed_form: float(part.max()) < WOOTTERS_TOL -> float(part.max()) <= WOOTTERS_TOL"):
    _TOLERANCE,
    ("verify", "check_ppt_agreement: _concurrence(values, vectors) > 1e-09 -> _concurrence(values, vectors) >= 1e-09"):
    _TOLERANCE,
    ("verify", "check_ensemble_bound: worst_gap >= -ENSEMBLE_TOL -> worst_gap > -ENSEMBLE_TOL"): _TOLERANCE,
    ("threshold", "_NEWTON_LIMIT: 32 -> 33"): "a bound that only decides when a solver gone wrong raises; the "
    "test panel needs at most 8 steps",
    ("threshold", "_WALK_LIMIT: 64 -> 65"): "a bound that only decides when a solver gone wrong raises; the "
    "test panel needs at most 4 floats",
}


class _Site:
    """One mutant: where it is, how to name it, and the change to its module's tree that makes it."""

    def __init__(self, module, scope, node, operator, before, after, tree, apply, undo):
        self.module, self.line, self.operator = module, node.lineno, operator
        self.name = f"{scope}: {before} -> {after}"
        self.order = (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset, operator)
        self.tree, self._apply, self._undo = tree, apply, undo

    def source(self) -> str:
        """The module's source with this mutant in it, written from the tree; the tree is left as it was."""
        self._apply()
        try:
            return ast.unparse(self.tree)
        finally:
            self._undo()


def _docstring(node) -> bool:
    """Whether ``node``'s body opens with a string statement (a docstring)."""
    body = getattr(node, "body", None)
    first = body[0] if isinstance(body, list) and body else None
    return isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str)


def _skipped(tree: ast.Module) -> set[int]:
    """ids of the nodes no operator touches: docstrings, annotations and ``__all__``."""
    skip = []
    for node in ast.walk(tree):
        if _docstring(node):
            skip.append(node.body[0])
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            skip.append(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            skip.append(node.returns)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skip.append(node)
    return {id(n) for root in skip for n in ast.walk(root)}


def _fingerprints() -> dict[str, str]:
    """Each file the sweep reads, by its path: a SHA-256 of its syntax tree without docstrings (or comments)."""
    fingerprints = {}
    for path in [*sorted(PACKAGE.glob("*.py")), Path(__file__).resolve()]:
        tree = ast.parse(path.read_bytes())
        for node in ast.walk(tree):
            if _docstring(node):
                node.body = node.body[1:]
        fingerprints[path.relative_to(ROOT).as_posix()] = hashlib.sha256(ast.dump(tree).encode()).hexdigest()
    return fingerprints


def _scopes(tree: ast.Module) -> dict[int, str]:
    """Each node's scope: the qualified function or class name, or the module-level name it assigns."""
    scope = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            elif not name and isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                inner = ",".join(ast.unparse(t) for t in targets)
            elif not name and isinstance(child, ast.stmt):
                inner = "<module>"
            scope[id(child)] = inner
            visit(child, inner)

    visit(tree, "")
    return scope


def _changes(node, parent):
    """(operator, apply, undo) for each mutant of ``node`` alone; ``parent`` is the node that holds it."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _ARITHMETIC:
        old = node.op
        new = _ARITHMETIC[type(old)]()
        name = f"{_SYMBOL[type(old)]} -> {_SYMBOL[type(new)]}"
        yield name, lambda: setattr(node, "op", new), lambda: setattr(node, "op", old)
    if isinstance(node, ast.Compare):
        for k, old in enumerate(node.ops):
            if type(old) in _COMPARISON:
                new = _COMPARISON[type(old)]()
                yield (
                    f"{_SYMBOL[type(old)]} -> {_SYMBOL[type(new)]}",
                    lambda k=k, new=new: node.ops.__setitem__(k, new),
                    lambda k=k, old=old: node.ops.__setitem__(k, old),
                )
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in _NAMES:
        old = node.id
        yield f"{old} -> {_NAMES[old]}", lambda: setattr(node, "id", _NAMES[old]), lambda: setattr(node, "id", old)
    if isinstance(node, ast.Attribute) and node.attr in _NAMES:
        old = node.attr
        yield f"{old} -> {_NAMES[old]}", lambda: setattr(node, "attr", _NAMES[old]), lambda: setattr(node, "attr", old)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        old = node.value
        yield "constant + 1", lambda: setattr(node, "value", old + 1), lambda: setattr(node, "value", old)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):  # point the parent's field at the operand
        for field, value in ast.iter_fields(parent):
            if value is node or isinstance(value, list) and node in value:
                holder, key = (vars(parent), field) if value is node else (value, value.index(node))
                yield (
                    "drop unary -",
                    lambda h=holder, k=key: h.__setitem__(k, node.operand),
                    lambda h=holder, k=key: h.__setitem__(k, node),
                )


def _sites(module: str) -> list[_Site]:
    """Every mutant of one module, in source order; they share one parsed tree."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_bytes())
    skip, scope = _skipped(tree), _scopes(tree)
    parent = {id(c): p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}

    def context(node):  # the expression a mutant is named by: climb out of names, constants and signs
        while isinstance(node, (ast.Constant, ast.Name, ast.Attribute, ast.UnaryOp)):
            up = parent.get(id(node))
            if not isinstance(up, ast.expr):
                break
            node = up
        return node

    sites = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        for operator, apply, undo in _changes(node, parent.get(id(node))):
            named = context(node)
            before = ast.unparse(named)
            apply()
            # a dropped minus leaves the node out of the tree: a node named by itself is shown by its operand
            after = ast.unparse(node.operand if named is node and isinstance(node, ast.UnaryOp) else named)
            undo()
            sites.append(_Site(module, scope[id(node)], node, operator, before, after, tree, apply, undo))
    sites.sort(key=lambda s: s.order)
    seen: dict[str, int] = {}
    for s in sites:  # the same text twice in one scope: number the later ones
        seen[s.name] = seen.get(s.name, 0) + 1
        if seen[s.name] > 1:
            s.name += f" #{seen[s.name]}"
    return sites


def latest() -> dict:
    """The latest sweep, OUTPUT ({} if there is none)."""
    return json.loads(OUTPUT.read_text(encoding="utf-8")) if OUTPUT.exists() else {}


def _run(copy: Path, env: dict, tests: list[str]) -> tuple[str, str]:
    """(status, first failing test) of one pytest run of ``tests`` in ``copy``."""
    proc = subprocess.Popen(PYTEST + tests, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "hung", ""
    status = {0: "passed", 4: "unfound", 5: "unfound"}.get(proc.returncode)  # 4 is "ERROR: not found: <id>"
    if status:
        return status, ""
    for line in out.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return "killed", line.split(" ", 1)[1].split(" - ", 1)[0]
    return "killed", f"pytest exit code {proc.returncode}"


def _kill(copy: Path, env: dict, killer: str | None) -> tuple[str, str]:
    """(status, first failing test) of the mutant in ``copy``: its recorded killer alone, else all of tier-1."""
    status, test = _run(copy, env, [killer]) if killer else ("", "")
    return (status, test) if status == "killed" else _run(copy, env, ["tests"])


def _environment(root: Path) -> dict:
    """A pytest run's environment in ``root``: its package first, no plugin autoloaded, no bytecode written."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1", PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")


def _worker_copy() -> tuple[Path, dict]:
    """A private copy of the repository (without .git) and the environment that tests it."""
    copy = Path(tempfile.mkdtemp(prefix="mutate-")) / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
    return copy, _environment(copy)


def main() -> int:
    sources = {path.stem: path.read_bytes() for path in sorted(PACKAGE.glob("*.py"))}
    sites = [s for module in sources for s in _sites(module)]
    killers = {(e["module"], e["mutant"]): e.get("killed_by") for e in latest().get("mutants", [])}
    mutants = [site.source() for site in sites]  # all before the pool starts: a module's sites share one tree
    trees = {site.module: site.tree for site in sites}
    fingerprints = _fingerprints()
    copies = [_worker_copy() for _ in range(WORKERS)]
    free = queue.Queue()  # the copies no run is using
    for copy in copies:
        free.put(copy)
    started = time.monotonic()
    try:
        # the unmutated run tests each module as the mutants' writer gives it back (no comments, other line
        # numbers), so a test that reads the source text fails here, not for every mutant of its module
        copy, env = copies[0]
        for module, tree in trees.items():
            (copy / "src" / "dimercorr" / f"{module}.py").write_text(ast.unparse(tree), encoding="utf-8")
        status, test = _run(copy, env, ["tests"])
        for module in trees:
            (copy / "src" / "dimercorr" / f"{module}.py").write_bytes(sources[module])
        if status != "passed":
            print(f"the unmutated package fails tier-1 ({status}: {test})", file=sys.stderr)
            return 1

        def test_one(site: _Site, mutant: str) -> dict:
            copy, env = free.get()
            path = copy / "src" / "dimercorr" / f"{site.module}.py"
            try:
                path.write_text(mutant, encoding="utf-8")
                status, test = _kill(copy, env, killers.get((site.module, site.name)))
            finally:
                path.write_bytes(sources[site.module])
                free.put((copy, env))
            entry = {"module": site.module, "line": site.line, "operator": site.operator, "mutant": site.name}
            reason = EQUIVALENT.get((site.module, site.name))
            if status == "killed":
                entry.update(status="killed", killed_by=test)
            elif status == "passed" and reason:
                entry.update(status="equivalent", reason=reason)
            else:
                entry["status"] = "survived" if status == "passed" else status
            print(f"{entry['status']:10s} {site.module}:{site.line} {site.name}", file=sys.stderr, flush=True)
            return entry

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            entries = list(pool.map(test_one, sites, mutants))
    finally:
        for copy, _ in copies:
            shutil.rmtree(copy.parent, ignore_errors=True)
    # every EQUIVALENT key must be a mutant this sweep made and the suite let pass: one a test now kills is stale too
    stale = sorted(set(EQUIVALENT) - {(e["module"], e["mutant"]) for e in entries if e["status"] == "equivalent"})
    record = {"command": "python tools/mutate.py", "fingerprints": fingerprints,
              "seconds": round(time.monotonic() - started), "mutants": entries}
    OUTPUT.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    for module, name in stale:
        print(f"EQUIVALENT names a mutant this sweep did not record equivalent: {module}: {name}", file=sys.stderr)
    counts = Counter(e["status"] for e in entries)
    print(f"{len(entries)} mutants ({dict(counts)}); written to {OUTPUT.name}", file=sys.stderr)
    return 1 if counts.keys() - {"killed", "equivalent"} or stale else 0


if __name__ == "__main__":
    sys.exit(main())
