"""Command-line interface: point, sweep, threshold, verify.

Exit codes: 0 on success, 2 for usage errors, 3 for domain or validation
errors, 4 when a verification suite fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .exceptions import DomainError, ValidationError
from .models import ModelParams, closed_form_correlations
from .sweep import AXIS_NAMES, RECORD_COLUMNS, Axis, SweepSpec, SweepTable, run_sweep
from .threshold import threshold_curve
from .verify import SUITES, run_suites

__all__ = ["build_parser", "entry", "main"]

CSV_HEADER = ",".join(RECORD_COLUMNS)  # T,gamma,b1,b2,total,quantum,classical,concurrence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".12g")  # + 0.0 folds -0.0 into 0


def _parse_axis(text: str) -> Axis:
    """Parse ``name=start:stop:points`` into an Axis."""
    name, sep, rest = text.partition("=")
    parts = rest.split(":")
    if not sep or len(parts) != 3:
        raise ValueError(f"axis must look like name=start:stop:points, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise ValueError(f"could not parse axis numbers in {text!r}") from None
    return Axis(name=name, start=start, stop=stop, points=points)


def _parse_range(text: str) -> np.ndarray:
    """Parse ``start:stop:points``; a single value needs start == stop, points 1."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like start:stop:points, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise ValueError(f"could not parse range numbers in {text!r}") from None
    if points < 1:
        raise ValueError(f"range needs at least 1 point, got {points}")
    if points == 1 and start != stop:
        raise ValueError("a single-point range needs start == stop")
    if points > 1 and not start < stop:
        raise ValueError(f"range needs start < stop, got {text!r}")
    return np.linspace(start, stop, points)


def _base_params(model: str, gamma: float | None, b1: float, b2: float) -> ModelParams:
    if model == "heisenberg":
        if b1 != 0.0 or b2 != 0.0:
            raise DomainError("model 'heisenberg' requires b1 = b2 = 0")
        return ModelParams(gamma=gamma if gamma is not None else 0.0)
    if gamma is not None and gamma != -1.0:
        raise DomainError("model 'xy' fixes gamma = -1")
    return ModelParams(gamma=-1.0, b1=b1, b2=b2)


_MODEL_AXES = {
    "heisenberg": {"T", "gamma"},
    "xy": {"T", "b1", "b2", "b_uniform", "b_anti"},
}


def _records(columns: dict) -> list[tuple[float, ...]]:
    """Rows of the record columns, each a tuple in RECORD_COLUMNS order."""
    arrays = np.broadcast_arrays(*(np.asarray(columns[name], dtype=float) for name in RECORD_COLUMNS))
    return list(zip(*(a.ravel().tolist() for a in arrays)))


def _to_csv(columns: dict) -> str:
    lines = [CSV_HEADER] + [",".join(_fmt(v) for v in rec) for rec in _records(columns)]
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_point(args: argparse.Namespace) -> int:
    params = _base_params(args.model, args.gamma, args.b1, args.b2)
    columns = {"T": args.temp, "gamma": params.gamma, "b1": params.b1, "b2": params.b2}
    columns.update(closed_form_correlations(params.gamma, params.b1, params.b2, args.temp, params.j))
    _write_output(_to_csv(columns), args.output)
    return EXIT_OK


def _table_to_json(table: SweepTable) -> str:
    spec = table.spec
    axes = [
        {"name": a.name, "start": a.start, "stop": a.stop, "points": a.points}
        for a in (spec.axis1, spec.axis2)
        if a is not None
    ]
    payload = {
        "spec": {
            "gamma": spec.base.gamma,
            "b1": spec.base.b1,
            "b2": spec.base.b2,
            "j": spec.base.j,
            "temp": spec.temp,
            "axes": axes,
        },
        "records": [
            {name: float(_fmt(v)) for name, v in zip(RECORD_COLUMNS, rec)}
            for rec in _records(table.columns)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_sweep(args: argparse.Namespace) -> int:
    params = _base_params(args.model, args.gamma, args.b1, args.b2)
    axes = [_parse_axis(text) for text in args.axis]
    if not 1 <= len(axes) <= 2:
        raise ValueError("sweep takes one or two --axis options")
    allowed = _MODEL_AXES[args.model]
    for axis in axes:
        if axis.name not in allowed:
            raise DomainError(
                f"axis {axis.name!r} is not valid for model {args.model!r}; "
                f"choose from {', '.join(sorted(allowed))}"
            )
    spec = SweepSpec(
        base=params,
        axis1=axes[0],
        axis2=axes[1] if len(axes) == 2 else None,
        temp=args.temp,
    )
    table = run_sweep(spec, threads=args.threads)
    text = _table_to_json(table) if args.format == "json" else _to_csv(table.columns)
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_threshold(args: argparse.Namespace) -> int:
    gammas = _parse_range(args.gamma)
    points = threshold_curve(gammas)
    lines = ["gamma,t_th,degenerate"]
    for pt in points:
        lines.append(f"{_fmt(pt.gamma)},{_fmt(pt.t_th)},{str(pt.degenerate).lower()}")
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites(args.suite, seed=args.seed, samples=args.samples)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{r.suite:8s}] {r.name:<{width}s}  residual {r.residual:.3e}  {status}  ({r.detail})")
    failed = [r for r in results if not r.passed]
    if failed:
        worst = max(failed, key=lambda r: abs(r.residual))
        print(
            f"verification failed: {len(failed)} check(s); worst residual "
            f"{worst.residual:.3e} from {worst.suite}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimercorr",
        description=(
            "Total, quantum, and classical correlations of two-qubit "
            "Heisenberg/XY thermal states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate the correlation report at one point")
    point.add_argument("--model", choices=["heisenberg", "xy"], required=True)
    point.add_argument("--gamma", type=float, default=None, help="anisotropy in [-1, 1]")
    point.add_argument("--b1", type=float, default=0.0, help="field on qubit 1 (units of J)")
    point.add_argument("--b2", type=float, default=0.0, help="field on qubit 2 (units of J)")
    point.add_argument("--temp", type=float, required=True, help="temperature (units of J)")
    point.add_argument("--output", default=None, help="write to this file instead of stdout")
    point.set_defaults(func=_cmd_point)

    sweep = sub.add_parser("sweep", help="evaluate the report over a 1D or 2D grid")
    sweep.add_argument("--model", choices=["heisenberg", "xy"], required=True)
    sweep.add_argument("--gamma", type=float, default=None)
    sweep.add_argument("--b1", type=float, default=0.0)
    sweep.add_argument("--b2", type=float, default=0.0)
    sweep.add_argument("--temp", type=float, default=None, help="fixed T when no T axis is given")
    sweep.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="NAME=START:STOP:POINTS",
        help=f"sweep axis (repeat for a second axis); names: {', '.join(AXIS_NAMES)}",
    )
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep.add_argument("--output", default=None)
    sweep.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility and ignored: the grid is one vectorised pass (must be >= 1)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    thr = sub.add_parser("threshold", help="zero-field threshold temperatures over a gamma range")
    thr.add_argument("--gamma", required=True, metavar="START:STOP:POINTS")
    thr.add_argument("--output", default=None)
    thr.set_defaults(func=_cmd_threshold)

    ver = sub.add_parser("verify", help="run the closed-form/numeric cross-check suites")
    ver.add_argument("--suite", choices=["all", *SUITES], default="all")
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument("--samples", type=int, default=None, help="override per-suite sample counts")
    ver.set_defaults(func=_cmd_verify)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -1:...`` as ``--flag=-1:...``.

    argparse only recognizes bare negative numbers, so a range like
    -1:0.99:100 after a flag would otherwise be read as an option string.
    """
    merged: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (
            tok.startswith("--")
            and "=" not in tok
            and len(nxt) > 1
            and nxt[0] == "-"
            and (nxt[1].isdigit() or nxt[1] == ".")
        ):
            merged.append(f"{tok}={nxt}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(list(argv)))
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
