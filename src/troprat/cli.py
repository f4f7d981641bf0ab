"""Command-line front end: parse inputs, dispatch, emit JSON or SVG.

Every verb prints a JSON report with schema_version "1" on stdout (or an SVG
document with --svg / the render verb) and exits 0; malformed input exits 2
with a diagnostic on stderr.  Output is byte-deterministic for a given argv.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import rep, svg
from .core import TropRational, as_q
from .curve import (
    Divisor,
    curve_to_divisor,
    divisor_sub,
    duality_samples,
    graph_duality_check,
    hypersurface_member,
    plane_curve,
)
from .errors import ParseError, TropError
from .geom import hull2, lattice_points
from .parse import DEFAULT_VARS, format_poly, parse_poly
from .subdiv import dual_subdivision, mcomp

SCHEMA_VERSION = "1"
# check-duality draws and checks --count samples, 45-75 per millisecond for
# univariate and small bivariate pairs (Xeon, Python 3.11): the cap is 1-3 s
MAX_DUALITY_COUNT = 100_000


def _q(x: Fraction) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def _point(p) -> list:
    return [_q(x) for x in p]


def _infer_vars(sources) -> tuple:
    letters = set()
    for s in sources:
        letters.update(c for c in s.replace("-inf", "").replace("inf", "") if c.isalpha())
    for arity in (1, 2, 3):
        if letters <= set(DEFAULT_VARS[arity]):
            return DEFAULT_VARS[arity]
    raise ParseError(
        f"cannot infer variables for letters {sorted(letters)}; pass --vars", 0
    )


def _vars_of(args, *sources) -> tuple:
    if args.vars:
        names = tuple(v.strip() for v in args.vars.split(","))
        if not all(names) or len(set(names)) != len(names):
            raise ParseError("--vars must be distinct nonempty names", 0)
        return names
    return _infer_vars([s for s in sources if s])


def _parse_point(text: str) -> tuple:
    try:
        return tuple(as_q(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad point {text!r}: {exc}", 0) from None


def _divisor_json(D: Divisor) -> list:
    out = []
    for piece in D.pieces():
        kind = piece[0]
        if kind == "segment":
            out.append(
                {"kind": kind, "a": _point(piece[1]), "b": _point(piece[2]), "weight": piece[3]}
            )
        else:
            out.append(
                {
                    "kind": kind,
                    "base": _point(piece[1]),
                    "direction": list(piece[2]),
                    "weight": piece[3],
                }
            )
    out.sort(key=lambda d: json.dumps(d, sort_keys=True))
    return out


def _curve_payload(C) -> dict:
    return {
        "vertices": [_point(v) for v in C.vertices],
        "edges": [
            {"a": _point(e.a), "b": _point(e.b), "weight": e.weight} for e in C.edges
        ],
        "rays": [
            {"base": _point(r.base), "direction": list(r.direction), "weight": r.weight}
            for r in C.rays
        ],
        "lines": [
            {"base": _point(L.base), "direction": list(L.direction), "weight": L.weight}
            for L in C.lines
        ],
    }


def _subdiv_payload(S) -> dict:
    return {
        "cells": sorted(sorted(list(p) for p in cell) for cell in S.cells),
        "points": [
            {"exponent": list(e), "lift": _q(c)} for e, c in S.lifted
        ],
    }


def _report(verb: str, inputs: dict, result: dict) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "verb": verb,
        "inputs": inputs,
        "result": result,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def _cmd_eval(args) -> str:
    vars = _vars_of(args, args.poly)
    f = parse_poly(args.poly, vars)
    point = _parse_point(args.at)
    value = f(point)
    result = {"value": "-inf" if value.is_bottom else _q(value.value)}
    if args.member:
        result["on_hypersurface"] = hypersurface_member(f, point)
    return _report(
        "eval",
        {"poly": format_poly(f, vars), "at": [str(x) for x in point], "vars": list(vars)},
        result,
    )


def _cmd_newt(args) -> str:
    vars = _vars_of(args, args.poly)
    f = parse_poly(args.poly, vars)
    if f.is_bottom:
        raise TropError("the -inf polynomial has no Newton polytope")
    if len(vars) == 1:
        exps = [e[0] for e in f.support]
        result = {"min": min(exps), "max": max(exps)}
    else:
        newt = hull2(f.support)
        result = {
            "vertices": [list(v) for v in newt.vertices],
            "lattice_points": [list(p) for p in lattice_points(newt)],
        }
    return _report("newt", {"poly": format_poly(f, vars), "vars": list(vars)}, result)


def _cmd_subdiv(args) -> str:
    vars = _vars_of(args, args.poly)
    f = parse_poly(args.poly, vars)
    S = dual_subdivision(f)
    if args.svg:
        return svg.render_svg(S)
    result = _subdiv_payload(S)
    result["mcomp"] = mcomp(f)
    return _report("subdiv", {"poly": format_poly(f, vars), "vars": list(vars)}, result)


def _cmd_curve(args) -> str:
    vars = _vars_of(args, args.poly)
    f = parse_poly(args.poly, vars)
    C = plane_curve(f)
    if args.svg:
        return svg.render_svg(C)
    return _report("curve", {"poly": format_poly(f, vars), "vars": list(vars)}, _curve_payload(C))


def _parse_pair(args):
    vars = _vars_of(args, args.num, args.den)
    return parse_poly(args.num, vars), parse_poly(args.den, vars), vars


def _cmd_vol(args) -> str:
    f, g, vars = _parse_pair(args)
    v = rep.vol_pair(f, g)
    return _report(
        "vol",
        {"num": format_poly(f, vars), "den": format_poly(g, vars), "vars": list(vars)},
        {"volume": _q(v)},
    )


def _cmd_minrep(args) -> str:
    f, g, vars = _parse_pair(args)
    pair = rep.minrep_uni(TropRational(f, g))
    return _report(
        "minrep",
        {"num": format_poly(f, vars), "den": format_poly(g, vars), "vars": list(vars)},
        {
            "num": format_poly(pair.num, vars),
            "den": format_poly(pair.den, vars),
            "volume": _q(pair.volume),
        },
    )


def _cmd_comp(args) -> str:
    sources = args.poly
    vars = _vars_of(args, *sources)
    polys = [parse_poly(s, vars) for s in sources]
    values = [mcomp(p) for p in polys]
    return _report(
        "comp",
        {"factors": [format_poly(p, vars) for p in polys], "vars": list(vars)},
        {"mcomp": values, "fcomp": rep.fcomp(polys)},
    )


def _cmd_divide(args) -> str:
    f, g, vars = _parse_pair(args)
    h = rep.try_divide(f, g)
    return _report(
        "divide",
        {"num": format_poly(f, vars), "den": format_poly(g, vars), "vars": list(vars)},
        {"quotient": None if h is None else format_poly(h, vars)},
    )


def _cmd_factor(args) -> str:
    vars = _vars_of(args, args.poly)
    f = parse_poly(args.poly, vars)
    factorizations = rep.enumerate_factorizations(f)
    return _report(
        "factor",
        {"poly": format_poly(f, vars), "vars": list(vars)},
        {
            "complete_for_general_coefficients": False,
            "factorizations": [
                [format_poly(p, vars) for p in fs] for fs in factorizations
            ],
        },
    )


def _cmd_divisor(args) -> str:
    f, g, vars = _parse_pair(args)
    D = divisor_sub(curve_to_divisor(plane_curve(f)), curve_to_divisor(plane_curve(g)))
    if args.svg:
        return svg.render_svg(D)
    return _report(
        "divisor",
        {"num": format_poly(f, vars), "den": format_poly(g, vars), "vars": list(vars)},
        {"pieces": _divisor_json(D)},
    )


def _cmd_check_duality(args) -> str:
    if args.count < 1:
        raise TropError(f"--count must be at least 1, got {args.count}")
    if args.count > MAX_DUALITY_COUNT:
        raise TropError(f"--count must be at most {MAX_DUALITY_COUNT}, got {args.count}")
    f, g, vars = _parse_pair(args)
    samples = duality_samples(f, g, args.count, args.seed)
    report = graph_duality_check(f, g, samples)
    return _report(
        "check-duality",
        {
            "num": format_poly(f, vars),
            "den": format_poly(g, vars),
            "vars": list(vars),
            "count": args.count,
            "seed": args.seed,
        },
        {
            "total": report.total,
            "graph_points": report.graph_hits,
            "below_on_num_locus": report.below_hits,
            "above_on_den_locus": report.above_hits,
            "members": report.member_hits,
            "violations": [
                [str(x) for x in v[0]] for v in report.violations
            ],
            "ok": report.ok,
        },
    )


def _cmd_render(args) -> str:
    handler, needed = {
        "subdiv": (_cmd_subdiv, ("poly",)),
        "curve": (_cmd_curve, ("poly",)),
        "divisor": (_cmd_divisor, ("num", "den")),
    }[args.kind]
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        raise TropError(f"render --kind {args.kind} needs {' and '.join(missing)}")
    args.svg = True
    return handler(args)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="troprat",
        description="Exact tropical polynomial algebra: subdivisions, curves, "
        "pair volumes, minimal representations and complexity measures.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--vars", help="comma-separated variable names")
        return p

    p = add("eval", _cmd_eval, help="evaluate a polynomial at a point")
    p.add_argument("--poly", required=True)
    p.add_argument("--at", required=True, help="comma-separated rational point")
    p.add_argument("--member", action="store_true", help="also test hypersurface membership")

    p = add("newt", _cmd_newt, help="Newton polytope")
    p.add_argument("--poly", required=True)

    p = add("subdiv", _cmd_subdiv, help="dual subdivision")
    p.add_argument("--poly", required=True)
    p.add_argument("--svg", action="store_true")

    p = add("curve", _cmd_curve, help="tropical plane curve")
    p.add_argument("--poly", required=True)
    p.add_argument("--svg", action="store_true")

    p = add("vol", _cmd_vol, help="volume of a pair")
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)

    p = add("minrep", _cmd_minrep, help="minimum-volume univariate representation")
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)

    p = add("comp", _cmd_comp, help="monomial/factorization complexity")
    p.add_argument("--poly", action="append", required=True, help="repeatable factor")

    p = add("divide", _cmd_divide, help="exact tropical division")
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)

    p = add(
        "factor",
        _cmd_factor,
        help="factorization search (segments in closed form, polygons up to edge sum 24)",
    )
    p.add_argument("--poly", required=True)

    p = add("divisor", _cmd_divisor, help="curve divisor difference")
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    p.add_argument("--svg", action="store_true")

    p = add("check-duality", _cmd_check_duality, help="sampled graph membership check")
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)

    p = add("render", _cmd_render, help="render SVG")
    p.add_argument("--kind", choices=("subdiv", "curve", "divisor"), required=True)
    p.add_argument("--poly")
    p.add_argument("--num")
    p.add_argument("--den")

    return top


_VALUE_FLAGS = {
    "--poly", "--at", "--num", "--den", "--vars", "--kind", "--count", "--seed",
}


def _merge_values(argv):
    """Join value flags with their argument so values like "-inf" survive
    argparse's option detection."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        sys.stdout.write(args.handler(args) + "\n")
        return 0
    except TropError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
