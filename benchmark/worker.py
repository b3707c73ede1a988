"""One benchmark process: set up, run one pass of a workload, check it.

Usage (run.py starts it with PYTHONPATH pointing at the checkout's src/):

    python3 benchmark/worker.py setup  WORKLOAD FIRST_CHOICE
    python3 benchmark/worker.py pass   WORKLOAD FIRST_CHOICE
    python3 benchmark/worker.py trace  WORKLOAD FIRST_CHOICE
    python3 benchmark/worker.py record WORKLOAD FIRST_CHOICE

A pass runs the workload's instances at both valid poly_choices, starting
with FIRST_CHOICE.  ``setup`` times ``import flagcodes`` plus the
ConstructionParams (field tables) of the pass, from the first statement of a
fresh interpreter, and scales it to nominal machine speed (speedprobe.py).
``pass`` and ``trace`` run one timed pass after that set-up, the latter with
the outside-in tracer installed before set-up, then check every output
against ``references.json``.  ``record`` prints the
outputs the references are made of, keyed by poly_choice.  Each mode prints
one JSON object on stdout.
"""

from time import perf_counter

_T0 = perf_counter()

import sys  # noqa: E402  (the set-up clock starts before any import)

# name -> (kind, [(q, k, h, s), ...])
WORKLOADS = {
    "verify-gf2-n9": ("verify", [(2, 2, 1, 4)]),
    "verify-nonbinary": ("verify", [(3, 2, 0, 3), (4, 2, 1, 2), (9, 2, 0, 2)]),
    "construct-gf2-n13": ("construct", [(2, 3, 1, 4)]),
}

# poly_choice is the index of the primitive polynomial used at every degree.
# GF(2) has a single primitive quadratic, and every other degree the workloads
# need has at least two primitive polynomials, so 0 and 1 are the choices
# valid for every workload.  Their costs differ by about 7 %, so every pass
# runs both rather than letting the seed pick one.
POLY_CHOICES = (0, 1)

MODES = ("setup", "pass", "trace", "record")


def _make_params(fc, workload: str, choices: tuple[int, ...]) -> dict[int, list]:
    _, instances = WORKLOADS[workload]
    return {c: [fc.ConstructionParams.make(q, k, h, s, poly_choice=c) for q, k, h, s in instances]
            for c in choices}


def _strip_seconds(obj):
    """A report JSON object without its timings, so runs compare exactly."""
    if isinstance(obj, dict):
        return {k: _strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_seconds(v) for v in obj]
    return obj


def _construct_argv(workload: str, poly_choice: int, out_path: str) -> list[str]:
    ((q, k, h, s),) = WORKLOADS[workload][1]
    return ["construct", "--q", str(q), "--k", str(k), "--h", str(h), "--s", str(s),
            "--family", "full", "--poly-choice", str(poly_choice), "--out", out_path]


def _construct_once(fc, cli, argv: list[str], out_path) -> dict:
    """In-process ``flagcodes construct --out FILE``, then read FILE back."""
    import io
    from contextlib import redirect_stdout

    captured = io.StringIO()
    with redirect_stdout(captured):
        rc = cli.main(argv)
    text = out_path.read_text()
    loaded = fc.load_flag_code(text)
    round_trip = fc.dump_flag_code(loaded) == text
    return {"rc": rc, "text": text, "loaded": loaded, "round_trip": round_trip,
            "stdout_bytes": len(captured.getvalue().encode())}


def _verify_outputs(reports: list) -> list:
    return [_strip_seconds(r.to_json_obj()) for r in reports]


def _construct_outputs(result: dict) -> dict:
    import hashlib

    data = result["text"].encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "flags": len(result["loaded"])}


def _check_verify(outputs: list, reference: list) -> tuple[int, int, list[str]]:
    """Every claim is one operation; it fails if it did not pass or if its
    stripped JSON differs from the reference verdict."""
    attempted = failed = 0
    errors = []
    for got, ref in zip(outputs, reference):
        claims, ref_claims = got["claims"], ref["claims"]
        attempted += max(len(claims), len(ref_claims))
        if len(claims) != len(ref_claims):
            failed += abs(len(claims) - len(ref_claims))
            errors.append(f"{len(claims)} claims, reference has {len(ref_claims)}")
        # keys the reference lacks (a later report field) are not verdicts
        header = {k: got.get(k) for k in ref if k != "claims"}
        ref_header = {k: v for k, v in ref.items() if k != "claims"}
        if header != ref_header:
            errors.append(f"report {header} differs from reference {ref_header}")
        for c, r in zip(claims, ref_claims):
            if not c["pass"] or c != r:
                failed += 1
                errors.append(f"claim {c['id']}: got {c}, reference {r}")
    if len(outputs) != len(reference):
        errors.append(f"{len(outputs)} reports, reference has {len(reference)}")
        failed += 1
    return attempted, failed, errors


def _check_construct(result: dict, outputs: dict, reference: dict,
                     expected_size: int) -> tuple[int, int, list[str]]:
    """The construct-write-read round trip is one operation."""
    errors = []
    if result["rc"] != 0:
        errors.append(f"construct exited with {result['rc']}")
    if outputs != reference:
        errors.append(f"serialized code {outputs} differs from reference {reference}")
    if not result["round_trip"]:
        errors.append("the loaded code does not serialize back to the written file")
    if outputs["flags"] != expected_size:
        errors.append(f"{outputs['flags']} flags, expected {expected_size}")
    return 1, int(bool(errors)), errors


def main(argv: list[str]) -> int:
    mode, workload, first = argv[0], argv[1], int(argv[2])
    if mode not in MODES or workload not in WORKLOADS or first not in POLY_CHOICES:
        sys.stderr.write(f"usage: worker.py {{{','.join(MODES)}}} WORKLOAD FIRST_CHOICE\n")
        return 2
    choices = (first,) + tuple(c for c in POLY_CHOICES if c != first)

    import flagcodes as fc

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    params = _make_params(fc, workload, choices)
    setup_s = perf_counter() - _T0

    import json
    if mode == "setup":
        from speedprobe import speed_now

        print(json.dumps({"setup_s": setup_s, "norm_setup_s": setup_s * speed_now()}))
        return 0

    import os
    import resource
    from pathlib import Path

    from speedprobe import SpeedProbe

    kind = WORKLOADS[workload][0]
    out_path = None
    if kind == "construct":
        from flagcodes import cli

        root = Path(__file__).resolve().parent.parent
        out_dir = root / ".bench_build"
        out_dir.mkdir(exist_ok=True)
        out_path = out_dir / f"{workload}-{os.getpid()}.txt"
        cli_argvs = {c: _construct_argv(workload, c, str(out_path)) for c in choices}

    try:
        start = perf_counter()
        with SpeedProbe() as probe:
            if kind == "verify":
                results = {c: [fc.run_claim_suite(p) for p in params[c]] for c in choices}
            else:
                results = {c: _construct_once(fc, cli, cli_argvs[c], out_path)
                           for c in choices}
        wall_s = perf_counter() - start
    finally:
        if out_path is not None and out_path.exists():
            out_path.unlink()

    to_outputs = _verify_outputs if kind == "verify" else _construct_outputs
    outputs = {c: to_outputs(results[c]) for c in choices}
    if mode == "record":
        print(json.dumps(outputs))
        return 0

    refs_path = Path(__file__).resolve().parent / "references.json"
    references = json.loads(refs_path.read_text())[workload]
    attempted = failed = 0
    errors = []
    for c in choices:
        if kind == "verify":
            a, f, e = _check_verify(outputs[c], references[str(c)])
        else:
            a, f, e = _check_construct(
                results[c], outputs[c], references[str(c)], params[c][0].expected_size)
        attempted += a
        failed += f
        errors += [f"poly_choice {c}: {err}" for err in e]

    out = {
        "wall_s": wall_s,
        "norm_wall_s": probe.normalize(wall_s),
        "speed": probe.speed(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
    }
    if tracer is not None:
        if kind == "construct":
            tracer.bytes_written = sum(outputs[c]["bytes"] + results[c]["stdout_bytes"]
                                       for c in choices)
        out["per_layer"] = tracer.per_layer()
        out["counts"] = tracer.counts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
