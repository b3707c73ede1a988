#!/usr/bin/env python3
"""Run the full claim suite across the standard desk-scale instances and
print one summary row per instance, with an optional JSON dump of every
claim.

Usage:
    python scripts/run_verification_sweep.py [--json OUT.json] [--big]
        [--poly-choice C]

--big adds the n = 11 instance (2,2,1,5) and the n = 13 instance (2,2,1,6),
with 231,540 and 3,722,356 pairwise distances, the n = 7 instances
(3,2,1,3) and (4,2,1,3) over GF(3) and GF(4), with 271 and 1,089 flags
(36,585 and 592,416 pairs), the n = 8 instance (3,2,0,4) over GF(3),
with 820 flags (335,790 pairs), the n = 5 and n = 6 instances (5,2,1,2)
and (5,2,0,3) over GF(5), with 126 and 651 flags (7,875 and 211,575
pairs), and the n = 4 instance (25,2,0,2) over GF(25), with 626 flags
(195,625 pairs); each suite takes seconds, not minutes, with every field's
pairs scanned by one bit-sliced elimination over its prime field.  The
standard grid runs GF(5) and GF(7) at n = 4.  --poly-choice C builds every
instance from the C-th smallest primitive polynomials; an instance whose
field has fewer than C + 1 of some degree it needs is reported as skipped
and left out of the JSON dump.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

import flagcodes as fc

INSTANCES: list[tuple[int, int, int, int]] = [
    (2, 2, 0, 2),
    (2, 2, 1, 2),
    (2, 3, 2, 2),
    (3, 2, 1, 2),
    (2, 2, 0, 3),
    (2, 2, 1, 3),
    (2, 2, 1, 4),
    (5, 2, 0, 2),
    (7, 2, 0, 2),
]

BIG_INSTANCES: list[tuple[int, int, int, int]] = [
    (2, 2, 1, 5),
    (2, 2, 1, 6),
    (3, 2, 1, 3),
    (4, 2, 1, 3),
    (3, 2, 0, 4),
    (5, 2, 1, 2),
    (5, 2, 0, 3),
    (25, 2, 0, 2),
]


def missing_polynomials(params: fc.ConstructionParams) -> str | None:
    """Why the field lacks a primitive polynomial the instance needs at
    params.poly_choice (build_P's error), or None when every family has
    one."""
    for i in range(1, params.s):
        try:
            fc.build_P(params, i)
        except ValueError as exc:
            return str(exc)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="write all claims to this JSON file")
    parser.add_argument("--big", action="store_true",
                        help="include the n = 11 and n = 13 GF(2), the n = 7 GF(3) and "
                             "GF(4), the n = 8 GF(3), the n = 5 and n = 6 GF(5) and the "
                             "n = 4 GF(25) instances")
    parser.add_argument("--poly-choice", type=int, default=0)
    args = parser.parse_args()

    grid = INSTANCES + (BIG_INSTANCES if args.big else [])
    reports = []
    all_ok = True
    print(f"{'q':>2} {'k':>2} {'h':>2} {'s':>2} {'n':>3} {'|C|':>5} {'claims':>6} "
          f"{'failed':>6} {'time':>8}")
    for q, k, h, s in grid:
        params = fc.ConstructionParams.make(q, k, h, s, poly_choice=args.poly_choice)
        reason = missing_polynomials(params)
        if reason is not None:
            print(f"{q:>2} {k:>2} {h:>2} {s:>2} {params.n:>3} {params.expected_size:>5} "
                  f"skipped: {reason}")
            continue
        start = perf_counter()
        rep = fc.run_claim_suite(params)
        elapsed = perf_counter() - start
        reports.append(rep)
        t = rep.totals
        all_ok &= rep.all_pass
        print(f"{q:>2} {k:>2} {h:>2} {s:>2} {params.n:>3} {params.expected_size:>5} "
              f"{t['claims']:>6} {t['failed']:>6} {elapsed:>7.2f}s")
        for claim in rep.claims:
            if not claim.passed:
                print(f"    FAIL {claim.claim_id}: expected {claim.expected!r}, "
                      f"got {claim.computed!r}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"reports": [r.to_json_obj() for r in reports]}, fh, indent=2)
        print(f"claims written to {args.json}")
    print("ALL PASS" if all_ok else "FAILURES PRESENT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except ValueError as exc:  # e.g. a negative --poly-choice
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): stop quietly; what is
        # still buffered goes to os.devnull, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
