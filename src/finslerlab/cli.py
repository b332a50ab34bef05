"""Command line entry point: list checks, run the suite, evaluate objects.

``finslerlab check`` emits one JSON record per (check, fixture) line on
stdout, sorted by (check id, fixture id); identical configurations produce
byte-identical reports.  Exit status is 0 exactly when every cell passes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import list_checks, run_checks
from .config import RunConfig, load_config
from .core import TangentPoint, grid_coords, sample_slit_points
from .errors import BadConfig, FinslerLabError
from .finsler import finsler_fixture, fixture_ids
from .registry import build_object


def _cmd_list(args) -> int:
    only = args.only.split(",") if args.only else None
    for spec in list_checks(only):
        print(f"{spec.id}  tol={spec.tolerance:g}  {spec.description}")
    return 0


def _records(results):
    for r in results:
        yield json.dumps(r.record(), separators=(", ", ": "))


def _cmd_check(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.samples is not None:
        cfg.samples = args.samples
    if args.only is not None:
        cfg.checks = [c.strip() for c in args.only.split(",") if c.strip()]
    if args.out:
        cfg.out = args.out

    results, exit_code = run_checks(cfg)
    lines = list(_records(results))
    for line in lines:
        print(line)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return exit_code


def _cmd_eval(args) -> int:
    coords = [float(c) for c in args.point.split(",")]
    if len(coords) % 2:
        raise BadConfig("point needs an even number of coordinates x..,y..")
    n = len(coords) // 2
    grid = sample_slit_points(n, args.samples, args.seed)
    F = finsler_fixture(args.fixture, grid, n=n)
    z = grid_coords([TangentPoint(tuple(coords[:n]), tuple(coords[n:]))])
    kind, obj = build_object(F, args.object)
    value = obj(z) if kind == "field" else obj.matrix(z)
    print(json.dumps({"fixture": args.fixture, "object": args.object,
                      "kind": kind, "point": coords, "value": value},
                     separators=(", ", ": ")))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finslerlab",
        description="Residual verification suite for tangent-bundle connection identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered checks")
    p_list.add_argument("--only", help="comma-separated check ids to show")
    p_list.set_defaults(fn=_cmd_list)

    p_check = sub.add_parser("check", help="run the check suite")
    p_check.add_argument("--config", help="path to a key=value config file")
    p_check.add_argument("--seed", type=int, help="sampling seed override")
    p_check.add_argument("--samples", type=int, help="sample count override")
    p_check.add_argument("--only", help="comma-separated check ids to run")
    p_check.add_argument("--out", help="also write the report to this path")
    p_check.set_defaults(fn=_cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate a registry object at a point")
    p_eval.add_argument("--fixture", required=True, choices=fixture_ids())
    p_eval.add_argument("--object", required=True,
                        help="registry id, e.g. C, S0, jv:E-dy1, wagner:x1, l:zero")
    p_eval.add_argument("--point", required=True,
                        help="comma-separated coordinates x1,..,xn,y1,..,yn")
    p_eval.add_argument("--seed", type=int, default=42)
    p_eval.add_argument("--samples", type=int, default=32)
    p_eval.set_defaults(fn=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BadConfig as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FinslerLabError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
