"""Command-line frontend.

Subcommands: ``construct`` a code family and serialize it, ``verify`` every
claim for one instance (q, k, h, s), ``spectrum`` the multiset of pairwise
flag distances, and ``distance`` between two serialized flags.
``scripts/run_verification_sweep.py`` runs the claim suite over many
instances.

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
from functools import cache
from pathlib import Path

from .construct import (
    ConstructionParams,
    VerificationReport,
    _check_size,
    _longer_type,
    build_full_flag_code,
    build_generator_set,
    build_longer_type_code,
    build_optimum_code,
    run_claim_suite,
)
from .errors import AmbientMismatch, FieldMismatch, FlagCodesError, ResourceBudgetExceeded, TheoremViolated
from .field import _poly_from_text, _prime_power, _shown, field_make, field_name
from .flags import (
    FlagCode,
    TypeVector,
    dump_flag_code,
    flag_distance,
    load_flag,
    load_flag_code,
)
from .subspace import SubspaceCode, _check_kernel_prime

__all__ = ["main"]

FAMILIES = ("full", "optimum", "longer")
# the spectrum options that describe a code to construct, not one to load;
# none has a default, so an option given is one that is not None
_CODE_EXCLUDES = (
    "q", "k", "h", "s", "type", "family", "modulus", "poly_choice",
)


def _int(text: str) -> int:
    """int(text), also for more than the 4,300 digits int() reads."""
    if len(text) > 4300 and text.removeprefix("-").isdecimal():
        from decimal import Decimal  # not imported on the common path

        return int(Decimal(text))
    return int(text)


_int.__name__ = "int"  # argparse names it in its messages


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: parsing changes none of it, and each
    parse_args makes its own Namespace."""
    parser = argparse.ArgumentParser(
        prog="flagcodes",
        description="Construct and exhaustively verify flag codes over GF(q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--q", type=_int, help="field size (prime power)", required=required)
        p.add_argument("--k", type=_int, help="block dimension k", required=required)
        p.add_argument("--h", type=_int, help="remainder h with 0 <= h < k", required=required)
        p.add_argument("--s", type=_int, help="number of blocks s >= 2", required=required)
        p.add_argument("--type", help="comma-separated type vector, e.g. 1,2,5,6")
        p.add_argument("--modulus",
                       help="extension-field modulus as 'x^2+x+1 over GF(2)' or '[1,1,1] @ GF(2)'")
        p.add_argument("--poly-choice", type=_int,
                       help="use the n-th smallest primitive polynomials (default 0 = smallest)")

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write output to this path instead of stdout")

    pc = sub.add_parser("construct", help="build a code family and serialize it")
    add_params(pc)
    pc.add_argument("--family", choices=FAMILIES, default="full")
    add_out(pc)

    pv = sub.add_parser("verify", help="run the claim suite and report pass/fail")
    add_params(pv)
    pv.add_argument("--code", help="also verify this serialized flag code file")
    pv.add_argument("--format", choices=("text", "json", "csv"), default="text")
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


def _type_dims(args: argparse.Namespace) -> tuple[int, ...]:
    """The dimensions --type names, or () when it is not given."""
    if args.type is None:
        return ()
    dims = tuple(int(t) for t in args.type.split(",") if t.strip())
    if not dims:
        raise ValueError("--type names no dimension")
    return dims


def _params(args: argparse.Namespace) -> ConstructionParams:
    """The instance --q/--k/--h/--s, --modulus and --poly-choice name."""
    if None in (args.k, args.h, args.s):
        raise ValueError("--q, --k, --h and --s go together")
    p, e = _prime_power(args.q)
    # the modulus's degree is checked against e before its list is built
    modulus = None if args.modulus is None else _poly_from_text(args.modulus, None, e)
    field = field_make(p, e, modulus)
    return ConstructionParams(field, args.k, args.h, args.s, poly_choice=args.poly_choice or 0)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")


def _construct_family(args: argparse.Namespace, params: ConstructionParams) -> FlagCode:
    if args.command == "spectrum" or args.family != "full":
        # a pair scan over a characteristic the kernel refuses is refused
        # first; only construct --family full scans no pairs
        _check_kernel_prime(params.field.p)
    _check_size(params)
    dims = _type_dims(args)
    if args.family == "longer":
        # a type the family refuses is refused before the set is built
        tv = _longer_type(params, TypeVector(params.n, dims) if dims else None)
    elif dims:
        raise ValueError("--type applies to the longer family only")
    gen = build_generator_set(params)
    if args.family == "longer":
        return build_longer_type_code(gen, tv)
    if args.family == "optimum":
        return build_optimum_code(gen)
    return build_full_flag_code(gen)


def _cmd_construct(args: argparse.Namespace) -> int:
    params = _params(args)
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


def _report_text(rep: VerificationReport) -> str:
    p = rep.params
    return f"# params q={p['q']} k={p['k']} h={p['h']} s={p['s']} n={p['n']}\n{rep.to_text()}\n"


def _report_csv(rep: VerificationReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["q", "k", "h", "s", "claim_id", "expected", "computed", "pass", "seconds"])
    p = rep.params
    for c in rep.claims:
        writer.writerow([
            p["q"], p["k"], p["h"], p["s"], c.claim_id,
            repr(c.expected), repr(c.computed), c.passed, f"{c.seconds:.6f}",
        ])
    return out.getvalue()


def _cmd_verify(args: argparse.Namespace) -> int:
    loaded = load_flag_code(Path(args.code).read_text()) if args.code else None
    dims = _type_dims(args)
    params = _params(args)
    if loaded is not None and loaded.type.n != params.n:
        raise AmbientMismatch(
            f"{args.code} is in GF(q)^{loaded.type.n}, but the parameters give n = {_shown(params.n)}"
        )
    if loaded is not None and len(loaded) and loaded.flags[0].field != params.field:
        # the file names its field's modulus unless it is the default one
        raise FieldMismatch(
            f"{args.code} is over {field_name(loaded.flags[0].field)}, "
            f"but the parameters give {field_name(params.field)}"
        )
    tv = TypeVector(params.n, dims) if dims else None
    rep = run_claim_suite(params, tv, loaded=loaded)
    if args.format == "json":
        _emit(args, json.dumps(rep.to_json_obj(), indent=2) + "\n")
    elif args.format == "csv":
        _emit(args, _report_csv(rep))
    else:
        _emit(args, _report_text(rep))
    return 0 if rep.all_pass else 1


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
        code = _construct_family(args, _params(args))
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
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify":
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
