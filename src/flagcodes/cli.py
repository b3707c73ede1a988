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
import json
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from .construct import (
    ConstructionParams,
    VerificationReport,
    build_full_flag_code,
    build_generator_set,
    build_longer_type_code,
    build_optimum_code,
    run_claim_suite,
)
from .errors import FlagCodesError, ResourceBudgetExceeded, TheoremViolated
from .field import DEFAULT_FACTOR_BUDGET, factorize, field_make, poly_from_text
from .flags import (
    FlagCode,
    TypeVector,
    dump_flag_code,
    flag_distance,
    load_flag,
    load_flag_code,
)
from .matgf import DEFAULT_ORDER_CAP
from .subspace import SubspaceCode

__all__ = ["RunConfig", "main"]

FAMILIES = ("full", "optimum", "longer")


@dataclass
class RunConfig:
    """Validated bundle of one CLI invocation."""

    command: str
    param_grid: list[tuple[int, int, int, int]]  # (q, k, h, s) combinations
    type_dims: tuple[int, ...] | None
    modulus: str | None
    family: str
    out: Path | None
    fmt: str
    sweep: bool
    order_cap: int
    factor_cap: int
    poly_choice: int
    code_path: Path | None


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
        p.add_argument("--sweep", action="store_true", help="treat --q/--k/--h/--s as comma lists")
        p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
        p.add_argument("--factor-cap", type=int, default=DEFAULT_FACTOR_BUDGET)
        p.add_argument("--poly-choice", type=int, default=0,
                       help="use the n-th smallest primitive polynomials (0 = smallest)")

    def add_io(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", help="write output to this path instead of stdout")

    pc = sub.add_parser("construct", help="build a code family and serialize it")
    add_params(pc)
    pc.add_argument("--family", choices=FAMILIES, default="full")
    add_io(pc, ("text",))

    for name, default_fmt in (("verify", "text"), ("report", "json")):
        pv = sub.add_parser(name, help="run the claim suite and report pass/fail")
        add_params(pv)
        pv.add_argument("--code", help="also verify this serialized flag code file")
        fmts = ("json", "text", "csv") if default_fmt == "json" else ("text", "json", "csv")
        add_io(pv, fmts)

    ps = sub.add_parser("spectrum", help="histogram of pairwise flag distances")
    add_params(ps, required=False)
    ps.add_argument("--family", choices=FAMILIES, default="full")
    ps.add_argument("--code", help="load a serialized flag code instead of constructing")
    add_io(ps, ("csv",))

    pd = sub.add_parser("distance", help="flag distance between two serialized flags")
    pd.add_argument("flag_a")
    pd.add_argument("flag_b")
    add_io(pd, ("text",))
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    grid: list[tuple[int, int, int, int]] = []
    if getattr(args, "q", None) is not None:
        qs, ks, hs, ss = (_int_list(getattr(args, name)) for name in ("q", "k", "h", "s"))
        if not args.sweep and any(len(v) != 1 for v in (qs, ks, hs, ss)):
            raise ValueError("comma lists need --sweep")
        grid = list(product(qs, ks, hs, ss))
    type_dims = tuple(_int_list(args.type)) if getattr(args, "type", None) else None
    return RunConfig(
        command=args.command,
        param_grid=grid,
        type_dims=type_dims,
        modulus=getattr(args, "modulus", None),
        family=getattr(args, "family", "full"),
        out=Path(args.out) if getattr(args, "out", None) else None,
        fmt=getattr(args, "format", "text"),
        sweep=getattr(args, "sweep", False),
        order_cap=getattr(args, "order_cap", DEFAULT_ORDER_CAP),
        factor_cap=getattr(args, "factor_cap", DEFAULT_FACTOR_BUDGET),
        poly_choice=getattr(args, "poly_choice", 0),
        code_path=Path(args.code) if getattr(args, "code", None) else None,
    )


def _params_for(cfg: RunConfig, q: int, k: int, h: int, s: int) -> ConstructionParams:
    kwargs = dict(
        poly_choice=cfg.poly_choice,
        factor_budget=cfg.factor_cap,
        order_cap=cfg.order_cap,
    )
    if cfg.modulus is None:
        return ConstructionParams.make(q, k, h, s, **kwargs)
    factors = factorize(q, cfg.factor_cap)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, e),) = factors.items()
    field = field_make(p, e, poly_from_text(cfg.modulus))
    return ConstructionParams(field, k, h, s, **kwargs)


def _single_params(cfg: RunConfig) -> ConstructionParams:
    if len(cfg.param_grid) != 1:
        raise ValueError("exactly one (q, k, h, s) combination expected here")
    return _params_for(cfg, *cfg.param_grid[0])


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is not None:
        cfg.out.write_text(text)
    else:
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")


def _construct_family(cfg: RunConfig, params: ConstructionParams) -> FlagCode:
    gen = build_generator_set(params)
    if cfg.family == "full":
        if cfg.type_dims:
            raise ValueError("--type applies to the longer family only")
        return build_full_flag_code(params, gen)
    if cfg.family == "optimum":
        if cfg.type_dims:
            raise ValueError("--type applies to the longer family only")
        return build_optimum_code(params, gen)
    tv = TypeVector(params.n, cfg.type_dims) if cfg.type_dims else None
    return build_longer_type_code(params, tv, gen)


def _cmd_construct(cfg: RunConfig) -> int:
    params = _single_params(cfg)
    code = _construct_family(cfg, params)
    serialized = dump_flag_code(code)
    dims = ",".join(str(d) for d in code.type.dims)
    summary = f"{len(code)} flags, n = {params.n}, type ({dims})\n"
    if cfg.out is not None:
        cfg.out.write_text(serialized)
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
    lines = ["q,k,h,s,claim_id,expected,computed,pass,seconds"]
    for rep in reports:
        p = rep.params
        for c in rep.claims:
            lines.append(
                f"{p['q']},{p['k']},{p['h']},{p['s']},{c.claim_id},"
                f"{c.expected!r},{c.computed!r},{c.passed},{c.seconds:.6f}"
            )
    return "\n".join(lines) + "\n"


def _cmd_verify(cfg: RunConfig) -> int:
    loaded = None
    if cfg.code_path is not None:
        if cfg.sweep:
            raise ValueError("--code cannot be combined with --sweep")
        loaded = load_flag_code(cfg.code_path.read_text())
    reports: list[VerificationReport] = []
    for q, k, h, s in cfg.param_grid:
        params = _params_for(cfg, q, k, h, s)
        tv = TypeVector(params.n, cfg.type_dims) if cfg.type_dims else None
        reports.append(run_claim_suite(params, tv, loaded=loaded))
    if cfg.fmt == "json":
        payload = reports[0].to_json_obj() if len(reports) == 1 else {
            "reports": [r.to_json_obj() for r in reports]
        }
        _emit(cfg, json.dumps(payload, indent=2) + "\n")
    elif cfg.fmt == "csv":
        _emit(cfg, _reports_csv(reports))
    else:
        _emit(cfg, _reports_text(reports))
    return 0 if all(r.all_pass for r in reports) else 1


def _cmd_spectrum(cfg: RunConfig) -> int:
    if cfg.code_path is not None:
        text = cfg.code_path.read_text()
        head = next((ln for ln in text.splitlines() if ln.strip()), "")
        if head.startswith("flagcode"):
            code = load_flag_code(text)
        else:
            code = SubspaceCode.load(text)
    else:
        if not cfg.param_grid:
            raise ValueError("spectrum needs either --code or --q/--k/--h/--s")
        code = _construct_family(cfg, _single_params(cfg))
    if isinstance(code, SubspaceCode):
        counts = code.spectrum()
    else:
        counts = Counter()
        for vec, pairs in code.distance_profile().items():
            counts[sum(vec)] += pairs
    lines = [f"{d},{counts[d]}" for d in sorted(counts)]
    _emit(cfg, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_distance(cfg: RunConfig, args: argparse.Namespace) -> int:
    fa = load_flag(Path(args.flag_a).read_text())
    fb = load_flag(Path(args.flag_b).read_text())
    _emit(cfg, f"{flag_distance(fa, fb)}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "construct":
            return _cmd_construct(cfg)
        if cfg.command in ("verify", "report"):
            return _cmd_verify(cfg)
        if cfg.command == "spectrum":
            return _cmd_spectrum(cfg)
        if cfg.command == "distance":
            return _cmd_distance(cfg, args)
        raise ValueError(f"unknown command {cfg.command!r}")
    except (TheoremViolated, ResourceBudgetExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (FlagCodesError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
