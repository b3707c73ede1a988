"""Command-line frontend.

Subcommands: ``construct`` a code family and serialize it, ``verify`` (or
``report``) every claim for a parameter set, ``spectrum`` the multiset of
pairwise flag distances, and ``distance`` between two serialized flags.

Exit codes: 0 all good / all claims pass, 1 some claim failed, 2 input or
parameter validation failed, 3 a construction guarantee broke or a resource
budget ran out.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from itertools import product
from pathlib import Path

from .construct import (
    ConstructionParams,
    VerificationReport,
    _longer_type,
    build_full_flag_code,
    build_generator_set,
    build_longer_type_code,
    build_optimum_code,
    run_claim_suite,
)
from .errors import FieldMismatch, FlagCodesError, ResourceBudgetExceeded, TheoremViolated
from .field import DEFAULT_FACTOR_BUDGET, factorize, field_make, field_name, poly_from_text
from .flags import (
    FlagCode,
    TypeVector,
    dump_flag_code,
    flag_distance,
    load_flag,
    load_flag_code,
)
from .subspace import SubspaceCode

__all__ = ["main"]

FAMILIES = ("full", "optimum", "longer")
# the spectrum options that describe a code to construct, not one to load;
# none has a default, so an option given is one that is not None
_CODE_EXCLUDES = (
    "q", "k", "h", "s", "type", "family", "modulus", "sweep", "factor_cap", "poly_choice",
)


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcodes",
        description="Construct and exhaustively verify flag codes over GF(q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--q", help="field size (prime power); comma list with --sweep", required=required)
        p.add_argument("--k", help="block dimension k; comma list with --sweep", required=required)
        p.add_argument("--h", help="remainder h with 0 <= h < k; comma list with --sweep", required=required)
        p.add_argument("--s", help="number of blocks s >= 2; comma list with --sweep", required=required)
        p.add_argument("--type", help="comma-separated type vector, e.g. 1,2,5,6")
        p.add_argument("--modulus",
                       help="extension-field modulus as 'x^2+x+1 over GF(2)' or '[1,1,1] @ GF(2)'")
        p.add_argument("--sweep", action="store_true", default=None,
                       help="treat --q/--k/--h/--s as comma lists")
        p.add_argument("--factor-cap", type=int,
                       help="largest trial divisor when factoring q and q^d - 1 "
                            f"(default {DEFAULT_FACTOR_BUDGET})")
        p.add_argument("--poly-choice", type=int,
                       help="use the n-th smallest primitive polynomials (default 0 = smallest)")

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write output to this path instead of stdout")

    pc = sub.add_parser("construct", help="build a code family and serialize it")
    add_params(pc)
    pc.add_argument("--family", choices=FAMILIES, default="full")
    add_out(pc)

    for name, default_fmt in (("verify", "text"), ("report", "json")):
        pv = sub.add_parser(name, help="run the claim suite and report pass/fail")
        add_params(pv)
        pv.add_argument("--code", help="also verify this serialized flag code file")
        fmts = ("json", "text", "csv") if default_fmt == "json" else ("text", "json", "csv")
        pv.add_argument("--format", choices=fmts, default=default_fmt)
        add_out(pv)

    ps = sub.add_parser("spectrum", help="histogram of pairwise flag distances")
    add_params(ps, required=False)
    # no default, so that --family given with --code is refused
    ps.add_argument("--family", choices=FAMILIES, help="default: full")
    ps.add_argument("--code", help="load a serialized flag code instead of constructing")
    add_out(ps)

    pd = sub.add_parser("distance", help="flag distance between two serialized flags")
    pd.add_argument("flag_a")
    pd.add_argument("flag_b")
    add_out(pd)
    return parser


def _param_grid(args: argparse.Namespace) -> list[tuple[int, int, int, int]]:
    """Every (q, k, h, s) combination named by --q/--k/--h/--s."""
    if args.q is None:
        return []
    if None in (args.k, args.h, args.s):
        raise ValueError("--q, --k, --h and --s go together")
    lists = [_int_list(getattr(args, name)) for name in "qkhs"]
    for name, values in zip("qkhs", lists):
        if not values:
            raise ValueError(f"--{name} names no value")
    if not args.sweep and any(len(v) != 1 for v in lists):
        raise ValueError("comma lists need --sweep")
    return list(product(*lists))


def _type_dims(args: argparse.Namespace) -> tuple[int, ...]:
    return tuple(_int_list(args.type)) if args.type else ()


def _params_for(args: argparse.Namespace, q: int, k: int, h: int, s: int) -> ConstructionParams:
    factor_cap = DEFAULT_FACTOR_BUDGET if args.factor_cap is None else args.factor_cap
    if factor_cap < 1:
        # before q is factored with it on the --modulus path
        raise ValueError(f"--factor-cap must be >= 1, got {factor_cap}")
    kwargs = dict(poly_choice=args.poly_choice or 0, factor_budget=factor_cap)
    if args.modulus is None:
        return ConstructionParams.make(q, k, h, s, **kwargs)
    factors = factorize(q, factor_cap)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, e),) = factors.items()
    field = field_make(p, e, poly_from_text(args.modulus))
    return ConstructionParams(field, k, h, s, **kwargs)


def _single_params(args: argparse.Namespace) -> ConstructionParams:
    grid = _param_grid(args)
    if len(grid) != 1:
        raise ValueError("exactly one (q, k, h, s) combination expected here")
    return _params_for(args, *grid[0])


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")


def _construct_family(args: argparse.Namespace, params: ConstructionParams) -> FlagCode:
    dims = _type_dims(args)
    if args.family == "longer":
        # a type the family refuses is refused before the set is built
        tv = _longer_type(params, TypeVector(params.n, dims) if dims else None)
        return build_longer_type_code(build_generator_set(params), tv)
    if dims:
        raise ValueError("--type applies to the longer family only")
    gen = build_generator_set(params)
    if args.family == "optimum":
        return build_optimum_code(gen)
    return build_full_flag_code(gen)


def _cmd_construct(args: argparse.Namespace) -> int:
    params = _single_params(args)
    code = _construct_family(args, params)
    serialized = dump_flag_code(code)
    dims = ",".join(str(d) for d in code.type.dims)
    summary = f"{len(code)} flags, n = {params.n}, type ({dims})\n"
    if args.out:
        Path(args.out).write_text(serialized)
        sys.stdout.write(summary)
    else:
        sys.stdout.write(serialized)
        sys.stderr.write(summary)
    return 0


def _reports_text(reports: list[VerificationReport]) -> str:
    chunks = []
    for rep in reports:
        p = rep.params
        chunks.append(f"# params q={p['q']} k={p['k']} h={p['h']} s={p['s']} n={p['n']}")
        chunks.append(rep.to_text())
    return "\n".join(chunks) + "\n"


def _reports_csv(reports: list[VerificationReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["q", "k", "h", "s", "claim_id", "expected", "computed", "pass", "seconds"])
    for rep in reports:
        p = rep.params
        for c in rep.claims:
            writer.writerow([
                p["q"], p["k"], p["h"], p["s"], c.claim_id,
                repr(c.expected), repr(c.computed), c.passed, f"{c.seconds:.6f}",
            ])
    return out.getvalue()


def _cmd_verify(args: argparse.Namespace) -> int:
    grid = _param_grid(args)
    loaded = None
    if args.code:
        if args.sweep:
            raise ValueError("--code cannot be combined with --sweep")
        loaded = load_flag_code(Path(args.code).read_text())
    dims = _type_dims(args)
    reports: list[VerificationReport] = []
    for q, k, h, s in grid:
        params = _params_for(args, q, k, h, s)
        if loaded is not None and len(loaded) and loaded.flags[0].field != params.field:
            # the file names its field's modulus unless it is the default one
            raise FieldMismatch(
                f"{args.code} is over {field_name(loaded.flags[0].field)}, "
                f"but the parameters give {field_name(params.field)}"
            )
        tv = TypeVector(params.n, dims) if dims else None
        reports.append(run_claim_suite(params, tv, loaded=loaded))
    if args.format == "json":
        payload = reports[0].to_json_obj() if len(reports) == 1 else {
            "reports": [r.to_json_obj() for r in reports]
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    elif args.format == "csv":
        _emit(args, _reports_csv(reports))
    else:
        _emit(args, _reports_text(reports))
    return 0 if all(r.all_pass for r in reports) else 1


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.code:
        given = [
            f"--{name.replace('_', '-')}" for name in _CODE_EXCLUDES if getattr(args, name) is not None
        ]
        if given:
            raise ValueError(f"--code cannot be combined with {', '.join(given)}")
        text = Path(args.code).read_text()
        head = next((ln for ln in text.splitlines() if ln.strip()), "")
        if head.startswith("flagcode"):
            code = load_flag_code(text)
        else:
            code = SubspaceCode.load(text)
    else:
        if args.q is None:
            raise ValueError("spectrum needs either --code or --q/--k/--h/--s")
        code = _construct_family(args, _single_params(args))
    if isinstance(code, SubspaceCode):
        counts = code.spectrum()
    else:
        counts = Counter()
        for vec, pairs in code.distance_profile().items():
            counts[sum(vec)] += pairs
    lines = [f"{d},{counts[d]}" for d in sorted(counts)]
    _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    fa = load_flag(Path(args.flag_a).read_text())
    fb = load_flag(Path(args.flag_b).read_text())
    _emit(args, f"{flag_distance(fa, fb)}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command in ("verify", "report"):
            return _cmd_verify(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "distance":
            return _cmd_distance(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (TheoremViolated, ResourceBudgetExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (FlagCodesError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
