"""Command-line interface.

Subcommands::

    classify    print the singularity class of a curve at t = 0
    invariants  write the invariant report of a curve as JSON
    profile     sample a normalized curvature profile to CSV (tau,f)
    synthesize  build a curve from prescribed normalized curvature
                (CSV tau,x,y and optional SVG)
    render      convert a samples CSV to an SVG polyline
    verify      run the built-in verification suite

Curves are given either as a catalog name (with ``--param name=value``) or
as a DSL definition like ``"(t^2, t^3)"``.  ``invariants`` prints the report
of ``cuspkit.invariants(curve)``.  Relative output paths are resolved
against ``$CUSPKIT_OUTPUT_DIR`` when it is set.  Numbers are serialized with
shortest round-trip precision, so repeated runs are byte-identical.

``main()`` reuses one argument parser per process: ``build_parser`` is
cached, and every call parses into a fresh namespace, so repeated in-process
calls pay for the parser once and share no option values.  Likewise
``dsl.parse_curve`` parses each curve text once per process, and each call
binds its own ``--param`` values.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import affine, euclidean, svg, synthesis, verification
from .dsl import CATALOG_NAMES, CurveSpec, ParseError, catalog_lookup, parse_curve, parse_expression
from .profiles import Profiler

_KINDS = {k.name: k for k in (euclidean.EUCLID_CUSP, affine.AFFINE_CUSP, affine.INFLECTION)}


def _parse_params(pairs) -> dict[str, float]:
    params: dict[str, float] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"bad --param {pair!r}; expected name=value")
        try:
            params[name] = float(value)
        except ValueError:
            raise ValueError(f"bad --param {pair!r}; value is not a number") from None
    return params


def _resolve_curve(text: str, params: dict[str, float]) -> CurveSpec:
    if text in CATALOG_NAMES:
        return catalog_lookup(text, params)
    return parse_curve(text, params)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad --grid {spec!r}; expected start:stop:count")
    values = []
    for name, text, convert in zip(("start", "stop", "count"), parts, (float, float, int)):
        try:
            values.append(convert(text))
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ValueError(f"bad --grid {spec!r}; {name} must be {kind}, got {text!r}") from None
        if not math.isfinite(values[-1]):
            raise ValueError(f"bad --grid {spec!r}; {name} must be finite, got {values[-1]!r}")
    start, stop, count = values
    if not math.isfinite(stop - start):
        raise ValueError(f"bad --grid {spec!r}; stop - start = {stop - start!r} overflows a float")
    if count < 1:
        raise ValueError(f"bad --grid {spec!r}; count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


def _out_path(path: str) -> str:
    base = os.environ.get("CUSPKIT_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(_out_path(path), "w") as fh:
        fh.write(text)


def _write_outputs(*outputs: tuple[str | None, str]) -> None:
    """Write each (path, text) with ``_write_text``, the files before stdout,
    so that a path that cannot be opened leaves stdout empty."""
    for path, text in sorted(outputs, key=lambda out: out[0] in (None, "-")):
        _write_text(path, text)


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- subcommand implementations --------------------------------------------------


def _cmd_classify(args) -> int:
    curve = _resolve_curve(args.curve, _parse_params(args.param))
    cls = euclidean.classify(curve.jet(args.at, 5))
    print(cls)
    return 0


def _cmd_invariants(args) -> int:
    curve = _resolve_curve(args.curve, _parse_params(args.param))
    _write_text(args.out, _json_text(affine.invariants(curve)))
    return 0


def _cmd_profile(args) -> int:
    curve = _resolve_curve(args.curve, _parse_params(args.param))
    grid = _parse_grid(args.grid)
    prof = Profiler(curve, _KINDS[args.kind]).profile(grid)
    _write_text(args.out, _csv_text(["tau", "f"], zip(prof.grid, prof.values)))
    return 0


def _cmd_synthesize(args) -> int:
    if args.kind == "affine-cusp":
        if args.h is None:
            raise ValueError("affine-cusp synthesis needs --h (the tau^2-coefficient function)")
        fn = parse_expression(args.h)
    else:
        if args.f is None:
            raise ValueError(f"{args.kind} synthesis needs --f (the profile function)")
        fn = parse_expression(args.f)
    spec = _render_spec(args)
    # Only tau, x, y are written; step_error is never read, so its rerun never runs.
    result = synthesis.synthesize(args.kind, fn, args.tau_max, step=args.step, method=args.method)
    rows = zip(result.taus, result.positions[:, 0], result.positions[:, 1])
    outputs = [(args.out, _csv_text(["tau", "x", "y"], rows))]
    if args.svg:
        outputs.append((args.svg, svg.render_svg(result.positions, spec)))
    _write_outputs(*outputs)
    return 0


def _render_spec(args) -> svg.RenderSpec:
    """The SVG options, checked before any work or output."""
    return svg.RenderSpec(
        width=args.width, height=args.height, stroke_width=args.stroke_width, axes=args.axes
    )


def _read_samples_csv(path: str) -> np.ndarray:
    """The (x, y) columns of a samples CSV; a row that is not one number per
    header field is a ``ValueError`` naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] == ["tau", "x", "y"]:
            columns = slice(1, 3)
        elif header[:2] == ["tau", "f"]:
            columns = slice(0, 2)
        else:
            raise ValueError(f"unrecognized CSV header {header!r}; expected tau,x,y or tau,f")
        rows = []
        for row in reader:
            if not row:
                continue
            try:
                values = [float(v) for v in row]
            except ValueError:
                values = []
            if len(values) != len(header):
                raise ValueError(
                    f"{path} line {reader.line_num} holds {','.join(row)!r}; its header "
                    f"{','.join(header)} expects {len(header)} numbers"
                )
            rows.append(values)
    if not rows:  # render_svg reports the missing samples
        return np.empty((0, 2))
    return np.asarray(rows)[:, columns]


def _cmd_render(args) -> int:
    spec = _render_spec(args)
    points = _read_samples_csv(args.samples)
    _write_text(args.svg, svg.render_svg(points, spec))
    return 0


def _cmd_verify(args) -> int:
    report = verification.run_all(args.seed)
    lines = [
        f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}: error {check['error']:.3e} "
        f"(tolerance {check['tolerance']:.0e}) - {check['detail']}\n"
        for check in report["checks"]
    ]
    lines.append(f"seed {report['seed']}: {'all checks passed' if report['passed'] else 'FAILURES'}\n")
    outputs = [("-", "".join(lines))]
    if args.json:
        outputs.append((args.json, _json_text(report)))
    _write_outputs(*outputs)
    return 0 if report["passed"] else 1


# -- argument parsing -------------------------------------------------------------


def _add_curve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--curve", required=True, help="catalog name or DSL definition")
    p.add_argument(
        "--param", action="append", metavar="NAME=VALUE", help="curve parameter (repeatable)"
    )


_SVG_PRECISION = (
    f"polyline coordinates in pixels to {svg.DECIMALS} decimals; the CSV keeps full precision"
)


def _add_svg_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--stroke-width", type=float, default=1.5)
    p.add_argument("--axes", action="store_true", help="draw coordinate axes")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspkit",
        description="Curvature invariants of plane curves at cusps and inflection points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="singularity class of the curve at t = 0")
    _add_curve_args(p)
    p.add_argument("--at", type=float, default=0.0, help="base parameter value (default 0)")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("invariants", help="invariant report as JSON")
    _add_curve_args(p)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("profile", help="normalized curvature profile as CSV")
    _add_curve_args(p)
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--grid", required=True, help="tau grid start:stop:count (inclusive)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("synthesize", help="curve from prescribed normalized curvature")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--f", help="profile expression in t (euclid-cusp, inflection)")
    p.add_argument("--h", help="tau^2-coefficient expression in t (affine-cusp)")
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--step", type=float, default=synthesis.DEFAULT_STEP)
    routes = dict.fromkeys(route for system in synthesis.SYSTEMS.values() for route in system.routes)
    p.add_argument("--method", choices=list(routes), default="frame")
    p.add_argument("--out", help="samples CSV (default stdout)")
    p.add_argument(
        "--svg", help=f"also render the curve to this SVG file ({_SVG_PRECISION})"
    )
    _add_svg_args(p)
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("render", help="samples CSV to SVG polyline")
    p.add_argument("--samples", required=True, help="CSV with header tau,x,y or tau,f")
    p.add_argument(
        "--svg", required=True, help=f"output SVG file ('-' for stdout; {_SVG_PRECISION})"
    )
    _add_svg_args(p)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    p.add_argument("--json", help="also write the JSON report to this file")
    p.set_defaults(fn=_cmd_verify)

    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join '--option -1e-3' into '--option=-1e-3' for argparse.

    argparse reads a token that starts with '-' as an option unless it looks
    like -1 or -1.5, so values such as -1e-3, -inf, -cos(t), -5/16+t or the
    grid -0.5:0.5:101 have to be attached to their option.  Every cuspkit
    option but -h is long, so any other token that starts with a single '-'
    after an option without '=' is that option's value.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok.startswith("--")
            and "=" not in tok
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and not argv[i + 1].startswith("--")
            and argv[i + 1] != "-h"
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    """Every command exits 0 with finite numbers, or 1 with one error line on
    stderr and nothing on stdout; ``verify`` also exits 1, after its report,
    when a check fails, and argparse's own usage errors exit 2.  ``CONTRACT``
    in ``tests/contract.py`` is the one list of commands that probe this.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_dash_values(list(argv)))
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"curve syntax error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a path to read or write that cannot be opened
        reason = exc.strerror or str(exc)
        where = "" if exc.filename is None else f"cannot open {exc.filename!r}: "
        print(f"error [{args.command}]: {where}{reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
