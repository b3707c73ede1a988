"""Outside-in tracer for the flagcodes modules.

``Tracer.install`` wraps the public entry points of every ``flagcodes`` layer
(field, matgf, subspace, flags, construct, cli) from outside the package: a
module-level function is replaced in every ``flagcodes`` namespace that binds
it (``construct`` and ``cli`` import names from ``flags`` and friends, so
patching the defining module alone would miss their calls), and a method is
replaced once on its class.  Per-element ``FieldSpec`` arithmetic and private
helpers stay unwrapped, so their time lands in the nearest wrapped caller.

Each wrapped function aggregates calls, outermost span time and self time
(span time minus the time of wrapped calls it made) instead of storing one
record per call, because the hot leaves run hundreds of thousands of times
per pass.  ``per_layer`` turns the aggregates into the benchmark's per-layer
metrics; ``counts`` returns every exact count, which must repeat between two
traced runs of the same seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("field", "matgf", "subspace", "flags", "construct", "cli")

# Public entry points per layer.  "Class.method" entries are patched on the
# class; plain names are patched wherever a flagcodes namespace binds them.
ENTRY_POINTS = {
    "field": (
        "FieldSpec.__init__", "factorize", "field_from_order", "field_make",
        "find_primitive_poly", "is_irreducible", "is_primitive",
        "iter_primitive_polys", "parse_field_name", "poly_from_text",
    ),
    "matgf": (
        "MatrixGF.__init__", "MatrixGF.rref", "block", "companion", "mat_mul",
        "matrix_from_text", "matrix_order", "matrix_to_text", "read_matrix",
        "rows_in_row_space", "vstack",
    ),
    "subspace": (
        "GroupElementSeq.__post_init__", "Subspace.contains", "Subspace.transform",
        "SubspaceCode.__init__", "SubspaceCode.dump", "SubspaceCode.load",
        "code_min_distance", "intersection_dim", "is_equidistant_c",
        "is_partial_spread", "max_partial_spread_size", "orbit_code",
        "stabilizer_order", "subspace_distance", "subspace_of",
    ),
    "flags": (
        "Flag.__init__", "FlagCode.__init__", "classify", "code_flag_min_distance",
        "dump_flag", "dump_flag_code", "flag_distance", "flag_from_matrix",
        "is_cardinality_consistent", "load_flag", "load_flag_code",
        "optimum_check_ab", "projected_code", "projected_code_at_dim",
        "subsequence_code",
    ),
    "construct": (
        "GeneratorSet.flag_code", "GeneratorSet.projected_at_dim",
        "VerificationReport.check", "build_A", "build_B", "build_G_generator",
        "build_M", "build_P", "build_full_flag_code", "build_generator_set",
        "build_longer_type_code", "build_optimum_code", "run_claim_suite",
        "verify_intermediate_distances", "verify_maximality",
        "verify_orbit_decomposition", "verify_spread_projections",
    ),
    "cli": ("main",),
}

# Pair scans: the pair count is taken at the call boundary from len(code).
SUBSPACE_SCANS = ("code_min_distance", "is_partial_spread")
FLAG_SCANS = ("code_flag_min_distance",)

# Per-layer metrics and their units, in output order.
METRICS = {
    "field.self_s": "s",
    "field.table_build_s": "s",
    "field.primitive_tests": "count",
    "field.primitive_test_s": "s",
    "matgf.self_s": "s",
    "matgf.matrix_new_calls": "count",
    "matgf.mat_mul_calls": "count",
    "matgf.rref_calls": "count",
    "matgf.rref_s": "s",
    "subspace.self_s": "s",
    "subspace.distance_calls": "count",
    "subspace.distance_ns": "ns",
    "subspace.canon_calls": "count",
    "subspace.scan_pairs_per_s": "1/s",
    "flags.self_s": "s",
    "flags.scan_calls": "count",
    "flags.scan_pairs_per_s": "1/s",
    "flags.scan_reuse": "ratio",
    "flags.flag_builds": "count",
    "flags.io_s": "s",
    "construct.self_s": "s",
    "construct.generator_set_s": "s",
    "construct.unclaimed_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "byte",
}


class _Stat:
    __slots__ = ("calls", "total", "own", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0  # outermost spans only, so recursion is not double counted
        self.own = 0.0  # span time minus the time of wrapped calls made inside it
        self.depth = 0


class Tracer:
    """Aggregating span tracer; install once per process, before the work."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.layer_of: dict[str, str] = {}
        self.pairs = {"subspace": 0, "flags": 0}
        self.scanned_codes: set = set()
        self.unclaimed_s = 0.0
        self.bytes_written = 0
        # child-time accumulators; the bottom entry collects untraced time
        self._stack = [0.0]

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("flagcodes")] + [
            importlib.import_module(f"flagcodes.{layer}") for layer in LAYERS
        ]
        for layer, names in ENTRY_POINTS.items():
            home = importlib.import_module(f"flagcodes.{layer}")
            for name in names:
                cls_name, _, meth = name.rpartition(".")
                if cls_name:
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(name, layer, cls.__dict__[meth]))
                    continue
                original = getattr(home, name)
                wrapped = self._wrap(name, layer, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapped)

    def _wrap(self, name: str, layer: str, fn):
        st = self.stats[name] = _Stat()
        self.layer_of[name] = layer
        hook = self._hook_for(name)
        stack = self._stack
        clock = perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                st.calls += 1
                while True:
                    stack.append(0.0)
                    st.depth += 1
                    t0 = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        child = stack.pop()
                        stack[-1] += dt
                        st.depth -= 1
                        if not st.depth:
                            st.total += dt
                        st.own += dt - child
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                st.depth -= 1
                st.calls += 1
                if not st.depth:
                    st.total += dt
                st.own += dt - child
            if hook is not None:
                h0 = clock()
                hook(args, result, dt)
                stack[-1] += clock() - h0  # keep bookkeeping out of the caller's self time
            return result

        return wrapper

    def _hook_for(self, name: str):
        if name in SUBSPACE_SCANS or name in FLAG_SCANS:
            layer = "subspace" if name in SUBSPACE_SCANS else "flags"

            def count_pairs(args, _result, _dt):
                n = len(args[0])
                self.pairs[layer] += n * (n - 1) // 2
                if layer == "flags":
                    code = args[0]
                    self.scanned_codes.add((code.type.dims, tuple(f.key for f in code)))

            return count_pairs
        if name == "run_claim_suite":
            return self._claims_done
        return None

    def _claims_done(self, _args, report, span: float) -> None:
        self.unclaimed_s += span - sum(c.seconds for c in report.claims)

    # -- results ---------------------------------------------------------------

    def _calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names)

    def _total(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names)

    def _self(self, *names: str) -> float:
        return sum(self.stats[n].own for n in names)

    def _layer_self(self, layer: str) -> float:
        return sum(st.own for n, st in self.stats.items() if self.layer_of[n] == layer)

    def counts(self) -> dict[str, int]:
        """Every exact count the trace makes; equal seeds must repeat them."""
        out = {f"calls.{n}": st.calls for n, st in sorted(self.stats.items())}
        out["pairs.subspace"] = self.pairs["subspace"]
        out["pairs.flags"] = self.pairs["flags"]
        out["flags.distinct_codes_scanned"] = len(self.scanned_codes)
        out["cli.bytes_written"] = self.bytes_written
        return out

    def per_layer(self) -> dict[str, float]:
        distance_calls = self._calls("subspace_distance", "intersection_dim")
        sub_scan_s = self._total(*SUBSPACE_SCANS)
        flag_scans = self._calls(*FLAG_SCANS)
        flag_scan_s = self._total(*FLAG_SCANS)
        return {
            "field.self_s": self._layer_self("field"),
            "field.table_build_s": self._total("field_from_order"),
            "field.primitive_tests": self._calls("is_primitive"),
            "field.primitive_test_s": self._total("is_primitive"),
            "matgf.self_s": self._layer_self("matgf"),
            "matgf.matrix_new_calls": self._calls("MatrixGF.__init__"),
            "matgf.mat_mul_calls": self._calls("mat_mul"),
            "matgf.rref_calls": self._calls("MatrixGF.rref"),
            "matgf.rref_s": self._total("MatrixGF.rref"),
            "subspace.self_s": self._layer_self("subspace"),
            "subspace.distance_calls": distance_calls,
            "subspace.distance_ns": (
                self._self("subspace_distance", "intersection_dim") / distance_calls * 1e9
                if distance_calls else 0.0
            ),
            "subspace.canon_calls": self._calls("subspace_of"),
            "subspace.scan_pairs_per_s": (
                self.pairs["subspace"] / sub_scan_s if sub_scan_s else 0.0
            ),
            "flags.self_s": self._layer_self("flags"),
            "flags.scan_calls": flag_scans,
            "flags.scan_pairs_per_s": self.pairs["flags"] / flag_scan_s if flag_scan_s else 0.0,
            # distinct codes scanned per scan call; 1.0 means no code is rescanned
            "flags.scan_reuse": len(self.scanned_codes) / flag_scans if flag_scans else 1.0,
            "flags.flag_builds": self._calls("flag_from_matrix"),
            "flags.io_s": self._total("dump_flag_code", "load_flag_code"),
            "construct.self_s": self._layer_self("construct"),
            "construct.generator_set_s": self._total("build_generator_set"),
            "construct.unclaimed_s": self.unclaimed_s,
            "cli.self_s": self._layer_self("cli"),
            "cli.bytes_written": self.bytes_written,
        }
