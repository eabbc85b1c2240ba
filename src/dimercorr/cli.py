"""Command-line interface: point, sweep, threshold, verify.

Exit codes: 0 on success, 2 for usage errors (an oversized grid that does
not fit in memory included), 3 for domain or validation errors, 4 when a
verification suite fails, and 1, with no traceback, when the reader of
stdout goes away.

The module loads per subcommand: at import it needs only domain, the
numpy-free boundary that holds the parser's name tables, the grid rules and
the exceptions behind the exit codes, and each subcommand imports the
modules it runs when it runs.  So ``point`` and ``sweep`` (the pure-``math``
closed-form kernel) and ``threshold`` (a pure-``math`` root finder) never
load numpy; ``verify`` does.  ``entry``, the process entry point, defaults
OPENBLAS_NUM_THREADS to 1 before numpy loads, so verify's BLAS runs
single-threaded unless the caller's environment says otherwise; ``main``
leaves the environment alone.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING

from .domain import AXIS_NAMES, RECORD_COLUMNS, SEED, SUITES, DomainError, ValidationError
from .domain import check_grid, linspace, parse_grid

if TYPE_CHECKING:
    from .sweep import Axis, SweepTable

__all__ = ["build_parser", "entry", "main"]

CSV_HEADER = ",".join(RECORD_COLUMNS)  # T,gamma,b1,b2,total,quantum,classical,concurrence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


# --model is a preset that only supplies the default gamma; --gamma wins.
_PRESET_GAMMA = {"heisenberg": 0.0, "xy": -1.0}


def _gamma(args: argparse.Namespace) -> float:
    return args.gamma if args.gamma is not None else _PRESET_GAMMA[args.model]


def _parse_axis(text: str) -> Axis:
    """Parse ``name=start:stop:points`` into an Axis."""
    name, sep, rest = text.partition("=")
    if not sep:
        raise ValueError(f"axis must look like name=start:stop:points, got {text!r}")
    from .sweep import Axis

    return Axis(name, *parse_grid(rest, f"axis {name!r}"))


def _parse_range(text: str) -> list[float]:
    """Parse ``start:stop:points`` into the grid np.linspace would give, bit for bit."""
    start, stop, points = parse_grid(text)
    check_grid(start, stop, points)
    return linspace(start, stop, points)


# One record writer serves point, sweep (CSV and JSON) and threshold.  A
# whole table is formatted by one "%" over a repeated record template, with
# no Python call per output value: "%.12g" is the C routine behind
# format(x, ".12g"), and every number gets + 0.0 first, which folds -0.0
# into 0.  A CSV record is all "%.12g".
#
# A JSON record holds the number json.dumps prints for the float of its CSV
# digits, float(d), which is repr(float(d)).  For a normal float the digits
# d of "%.12g" are already the shortest that read back as float(d), so a
# positional d needs no float parse (_json_token):
# - a plain integer gets ".0", as repr writes it;
# - inf, -inf and nan are spelled Infinity, -Infinity and NaN;
# - a d with a fraction is the token as it stands;
# - a d with an exponent is repr(float(d)), which also covers the exponents
#   where repr writes positional (12 to 15) or fewer digits (a subnormal).
# The parameter columns (T, gamma, b1, b2) repeat a few values over a grid,
# so each distinct value is folded and its token worked out once (_tokens),
# and its string goes into the template's "%s".  A b1 x b2 map over one grid
# holds each output value at (i, j) and at (j, i) (sweep._mirror_size), so
# its output tokens are made at the points i <= j and mirrored: a 61 x 61 map
# makes 7,564 output tokens and 124 parameter tokens, not 14,884 of each.
#
# A JSON sweep is one template in the layout of json.dumps(payload,
# indent=2): each record is _JSON_RECORD, each axis _JSON_AXIS over the Axis
# tuple itself, and the records list is "[]" for an empty table.  The spec's
# numbers go in by "%r", which writes what json.dumps does only for Python
# floats and ints, as the parser gives them (a numpy float64 reprs otherwise).
_NUMBER = "%.12g"
_PARAMETERS = 4  # T, gamma, b1 and b2 lead each record; the outputs follow
_OUTPUT_NUMBERS = ",".join([_NUMBER] * (len(RECORD_COLUMNS) - _PARAMETERS))  # one record's output values
_CSV_RECORD = ",".join([_NUMBER] * len(RECORD_COLUMNS)) + "\n"
_JSON_RECORD = "    {\n" + ",\n".join(f'      "{name}": %s' for name in RECORD_COLUMNS) + "\n    }"
_JSON_AXIS = '      {\n        "name": "%s",\n        "start": %r,\n        "stop": %r,\n        "points": %r\n      }'
_JSON_DOCUMENT = (  # "j": J is the unit of energy, kept so the spec's bytes stay the same
    '{\n  "spec": {\n    "gamma": %r,\n    "b1": %r,\n    "b2": %r,\n    "j": 1.0,\n    "temp": %s,\n'
    '    "axes": [\n%s\n    ]\n  },\n  "records": %s\n}\n'
)
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_token(digits: str) -> str:
    """The JSON number json.dumps prints for float(digits), where ``digits`` come from "%.12g"."""
    if "e" in digits:
        return repr(float(digits))
    if "." in digits:
        return digits
    return _JSON_NON_FINITE.get(digits, digits + ".0")  # plain integers and non-finite values


def _json_number(value: float) -> str:
    """The JSON token of one value, from its "%.12g" digits."""
    return _json_token(_NUMBER % value)


def _tokens(column: list[float]) -> list[str]:
    """_json_number(v + 0.0) for each value of ``column``, called once per distinct value.

    One pass, each value looked up with memo.get: a NaN never equals
    itself, so a NaN not seen before simply gets its own entry.  -0.0 and
    0.0 share one key, and + 0.0 folds -0.0 into 0 whichever comes first.
    """
    memo = {}
    out = []
    for v in column:
        text = memo.get(v)
        if text is None:
            text = memo[v] = _json_number(v + 0.0)
        out.append(text)
    return out


def _record_columns(columns: dict) -> list[list[float]]:
    """The equal-length record columns in RECORD_COLUMNS order as lists, -0.0 folded into 0."""
    return [[v + 0.0 for v in columns[name]] for name in RECORD_COLUMNS]


def _fill(record: str, columns: list[list], sep: str = "") -> str:
    """``record`` repeated once per row of the equal-length columns, filled in by a single "%"."""
    width, count = len(columns), len(columns[0])
    values = [None] * (width * count)
    for k, column in enumerate(columns):
        values[k::width] = column  # record order: row 0's values, then row 1's, ...
    return sep.join([record] * count) % tuple(values)


def _to_csv(columns: dict) -> str:
    return CSV_HEADER + "\n" + _fill(_CSV_RECORD, _record_columns(columns))


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_point(args: argparse.Namespace) -> int:
    from .models import closed_form_correlations

    gamma = _gamma(args)
    columns = {"T": args.temp, "gamma": gamma, "b1": args.b1, "b2": args.b2}
    columns.update(closed_form_correlations(gamma, args.b1, args.b2, args.temp))
    _write_output(_to_csv({name: [value] for name, value in columns.items()}), args.output)
    return EXIT_OK


def _table_to_json(table: SweepTable) -> str:
    from .sweep import _mirror_size, _mirrored, _upper

    spec = table.spec
    axes = ",\n".join(_JSON_AXIS % axis for axis in (spec.axis1, spec.axis2) if axis is not None)
    records = "[]"
    if len(table.columns["T"]):
        m = _mirror_size(spec)
        params = [_tokens(table.columns[name]) for name in RECORD_COLUMNS[:_PARAMETERS]]
        outputs = [table.columns[name] for name in RECORD_COLUMNS[_PARAMETERS:]]
        if m:  # a map over one grid: format its points i <= j and mirror their tokens
            outputs = [_upper(column, m) for column in outputs]
        digits = _fill(_OUTPUT_NUMBERS, [[v + 0.0 for v in column] for column in outputs], ",").split(",")
        # a positional number with a fraction is its own token: skip the call
        tokens = [d if "." in d and "e" not in d else _json_token(d) for d in digits]
        width = len(outputs)
        outputs = [tokens[k::width] for k in range(width)]
        if m:
            outputs = [_mirrored(column, m) for column in outputs]
        records = "[\n" + _fill(_JSON_RECORD, params + outputs, ",\n") + "\n  ]"
    temp = "null" if spec.temp is None else repr(spec.temp)
    return _JSON_DOCUMENT % (*spec.base, temp, axes, records)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .domain import ModelParams
    from .sweep import SweepSpec, run_sweep

    axes = [_parse_axis(text) for text in args.axis]
    if not 1 <= len(axes) <= 2:
        raise ValueError("sweep takes one or two --axis options")
    spec = SweepSpec(
        base=ModelParams(gamma=_gamma(args), b1=args.b1, b2=args.b2),
        axis1=axes[0],
        axis2=axes[1] if len(axes) == 2 else None,
        temp=args.temp,
    )
    table = run_sweep(spec)
    text = _table_to_json(table) if args.format == "json" else _to_csv(table.columns)
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_threshold(args: argparse.Namespace) -> int:
    from .threshold import threshold_curve

    points = threshold_curve(_parse_range(args.gamma))
    columns = [
        [pt.gamma + 0.0 for pt in points],
        [pt.t_th for pt in points],  # a positive midpoint or 0.0, never -0.0
        ["true" if pt.degenerate else "false" for pt in points],
    ]
    _write_output("gamma,t_th,degenerate\n" + _fill(f"{_NUMBER},{_NUMBER},%s\n", columns), args.output)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites

    results = run_suites(args.suite, seed=args.seed, samples=args.samples)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"[{r.suite:8s}] {r.name:<{width}s}  residual {r.residual:.3e}  bound {r.bound:.1e}"
            f"  {status}  ({r.detail})"
        )
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

    params = argparse.ArgumentParser(add_help=False)  # the parameter flags of point and sweep
    params.add_argument(
        "--model",
        choices=list(_PRESET_GAMMA),
        default="heisenberg",
        help="preset that only sets the default gamma: heisenberg 0, xy -1",
    )
    params.add_argument("--gamma", type=float, default=None, help="anisotropy in [-1, 1]; overrides --model")
    params.add_argument("--b1", type=float, default=0.0, help="field on qubit 1 (units of J)")
    params.add_argument("--b2", type=float, default=0.0, help="field on qubit 2 (units of J)")
    output = argparse.ArgumentParser(add_help=False)  # the flag of every subcommand that writes a table
    output.add_argument("--output", default=None, help="write to this file instead of stdout")

    point = sub.add_parser("point", parents=[params, output], help="evaluate the correlation report at one point")
    point.add_argument("--temp", type=float, required=True, help="temperature (units of J)")
    point.set_defaults(func=_cmd_point)

    sweep = sub.add_parser("sweep", parents=[params, output], help="evaluate the report over a 1D or 2D grid")
    sweep.add_argument("--temp", type=float, default=None, help="fixed T when no T axis is given")
    sweep.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="NAME=START:STOP:POINTS",
        help=f"sweep axis (repeat for a second axis); names: {', '.join(AXIS_NAMES)}",
    )
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep.set_defaults(func=_cmd_sweep)

    thr = sub.add_parser("threshold", parents=[output], help="zero-field threshold temperatures over a gamma range")
    thr.add_argument("--gamma", required=True, metavar="START:STOP:POINTS")
    thr.set_defaults(func=_cmd_threshold)

    ver = sub.add_parser("verify", help="run the closed-form/numeric cross-check suites")
    ver.add_argument("--suite", choices=["all", *SUITES], default="all")
    ver.add_argument("--seed", type=int, default=SEED, help="seed of the random suites; the wootters panel is fixed")
    ver.add_argument(
        "--samples", type=int, default=None, help="override per-suite sample counts; the wootters panel is fixed"
    )
    ver.set_defaults(func=_cmd_verify)
    return parser


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -1:...`` as ``--flag=-1:...``.

    argparse only recognizes bare negative numbers, so a range like
    -1:0.99:100, or a value like -inf, after a flag would otherwise be read
    as an option string.  A token is joined when its first ``:``-field
    parses as a float.
    """
    merged: list[str] = []
    for tok in argv:
        flag = merged[-1] if merged else ""  # once joined, it holds "=" and takes no second value
        if flag.startswith("--") and "=" not in flag and tok.startswith("-") and _is_number(tok.split(":")[0]):
            merged[-1] = f"{flag}={tok}"
        else:
            merged.append(tok)
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
    except MemoryError as exc:  # a grid or sample count too large to allocate
        print(f"error: not enough memory: {str(exc) or 'the request is too large'}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    # verify's 4x4 BLAS work never splits across threads, and starting OpenBLAS's worker costs about what its suites do
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader of stdout went away
        # the interpreter flushes stdout again at shutdown: send that flush nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # at shutdown the interpreter runs a full collection over every object the run loaded (argparse, and
    # numpy for verify), which costs several ms and frees nothing the exiting process needs freed; frozen
    # objects are left out of it.  os._exit would skip more, but it would also end a caller running entry()
    gc.freeze()
    sys.exit(code)
