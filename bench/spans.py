"""Spans and counters around designlab's public layer boundaries.

The tracer never edits the program.  ``install`` rebinds, in every loaded
``designlab`` module, each attribute that holds one of the target functions
to a timing wrapper (and sets the wrapped ``QSeries`` methods on the
class); ``uninstall`` puts every original object back.  Spans inside private
kernels such as ``_int_convolve`` or ``_pair_histogram`` are not recorded.

A span is ``[request, id, parent, name, start, end]``.  Counts are read from
the wrapped calls' arguments and results.  Work done to compute a count is
itself recorded as a ``_trace`` span, so it is not charged to the caller's
self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from collections import defaultdict
from math import comb
from time import perf_counter

TRACE_SPAN = "_trace"


# Count hooks: hook(tracer, metric prefix, arguments by name, result, missed)
# where ``missed`` says whether an lru-cached target computed its result.

def _series(tr, name, args, result, missed):
    if result is NotImplemented:
        return
    tr.add(f"{name}.out_terms", result.prec + 1)
    bits = 0
    for i in range(result.prec + 1):
        c = result[i]
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    tr.peak(f"{name}.max_coeff_bits", bits)


def _echelon_cells(tr, name, args, result, missed):
    tr.add(f"{name}.cells", len(args["rows"]) * (args["prec"] + 1))


def _fit_ok(tr, name, args, result, missed):
    tr.add(f"{name}.ok", 1 if result.ok else 0)


def _shell_vectors(tr, name, args, result, missed):
    tr.add(f"{name}.vectors", len(result))


def _theta_vectors(tr, name, args, result, missed):
    # harmonic_theta reads the vector table of the whole ball; looking the
    # table up again with the same arguments is a cache hit, which
    # ``lookup_table`` keeps out of the cache counters
    table = tr.lookup_table(args["lat"], 2 * args["prec_norm"], args["cap"],
                            args["workers"])
    tr.add(f"{name}.vectors", sum(len(v) for v in table.values()))


def _histogram_pairs(tr, name, args, result, missed):
    tr.add("lattices.histogram.pairs", len(args["shell"]) ** 2)


def _parallel_tasks(tr, name, args, result, missed):
    tr.add(f"{name}.tasks", len(args["args_list"]))


def _lambda_subsets(tr, name, args, result, missed):
    t = args["t"]
    tr.add(f"{name}.subsets",
           sum(comb(b.bit_count(), t) for b in args["family"].blocks))


def _harm_elements(tr, name, args, result, missed):
    if missed:
        tr.add(f"{name}.elements", len(result))


def _family_products(tr, name, args, result, missed):
    tr.add(f"{name}.products", len(args["basis"]) * len(args["family"].blocks))


def _shell_blocks(tr, name, args, result, missed):
    tr.add(f"{name}.blocks", len(result.blocks))


# (module, attribute, count hook); "QSeries.x" is a method of the class.
# The metric prefix is the module without its underscore plus the attribute
# without underscores: ("_parallel", "parallel_map") -> "parallel.parallel_map",
# ("qseries", "QSeries.__mul__") -> "qseries.mul".
TARGETS = [
    ("qseries", "QSeries.div", _series),
    ("qseries", "QSeries.__mul__", _series),
    ("qseries", "QSeries.pow", None),
    ("qseries", "QSeries.to_json", None),
    ("modforms", "eta_quotient", None),
    ("modforms", "eisenstein", None),
    ("modforms", "mf_basis", None),
    ("modforms", "echelon_rows", _echelon_cells),
    ("modforms", "fit_in_space", _fit_ok),
    ("voa", "strength_at", None),
    ("voa", "remark4_series", None),
    ("voa", "certified_zonal_trace", None),
    ("lattices", "shell_enum", _shell_vectors),
    ("lattices", "shell_sizes_up_to", None),
    ("lattices", "harmonic_theta", _theta_vectors),
    ("lattices", "moment_design_test", _histogram_pairs),
    ("lattices", "gegenbauer_component_sums", _histogram_pairs),
    ("lattices", "zonal_shell_sum", None),
    ("_parallel", "parallel_map", _parallel_tasks),
    ("codes", "design_lambda", _lambda_subsets),
    ("codes", "harm_basis", _harm_elements),
    ("codes", "harmonic_family_sums", _family_products),
    ("codes", "shell", _shell_blocks),
    ("codes", "antisymmetry_check", None),
    ("cli", "main", None),
]

# lru caches read through cache_info(): metric prefix -> (module, attributes)
CACHES = {
    "codes.harm_basis": ("codes", ("harm_basis",)),
    "voa.trace_cache": ("voa", ("_witness_trace", "a_series", "b_series",
                                "c_series", "d_series")),
    "lattices.vector_table": ("lattices", ("_vectors_by_doubled_norm",)),
}

# a CapExceededError leaving the outermost span of these modules is a refusal
REFUSING = ("lattices", "codes")


def _module(name: str):
    return sys.modules[f"designlab.{name}"]


def metric_prefix(module: str, attr: str) -> str:
    return f"{module.lstrip('_')}.{attr.rsplit('.', 1)[-1].strip('_')}"


def _cache_info(fn):
    """The cache_info of an lru function, traced or not; None otherwise."""
    if not hasattr(fn, "cache_info"):
        fn = getattr(fn, "__wrapped__", None)
    return getattr(fn, "cache_info", None)


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[tuple[int, str]] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []
        self._own_table_reads = [0, 0]      # hits, misses of lookup_table
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- counters ----------------------------------------------------------

    def add(self, key: str, n: float) -> None:
        self.counts[key] += n

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks[key], value)

    def _cache_totals(self) -> dict[str, tuple[int, int]]:
        out = {}
        for prefix, (mod, attrs) in CACHES.items():
            hits = misses = 0
            for attr in attrs:
                cache_info = _cache_info(getattr(_module(mod), attr, None))
                if cache_info:
                    info = cache_info()
                    hits, misses = hits + info.hits, misses + info.misses
            if prefix == "lattices.vector_table":
                hits -= self._own_table_reads[0]
                misses -= self._own_table_reads[1]
            out[prefix] = (hits, misses)
        return out

    def lookup_table(self, *args):
        """Read the lattice vector table without counting the lookup."""
        fn = _module("lattices")._vectors_by_doubled_norm
        before = fn.cache_info()
        try:
            return fn(*args)
        finally:
            after = fn.cache_info()
            self._own_table_reads[0] += after.hits - before.hits
            self._own_table_reads[1] += after.misses - before.misses

    def begin_request(self, request: int) -> None:
        self.request = request
        self._cache_start = self._cache_totals()

    def end_request(self) -> None:
        for prefix, (hits, misses) in self._cache_totals().items():
            h0, m0 = self._cache_start[prefix]
            self.add(f"{prefix}.hits", hits - h0)
            self.add(f"{prefix}.misses", misses - m0)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, count):
        tracer = self
        module = name.split(".", 1)[0]
        refusal = _module("errors").CapExceededError
        cache_info = _cache_info(fn)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._stack[-1][0] if tracer._stack else 0
            tracer._stack.append((sid, name))
            misses = cache_info().misses if cache_info else 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans.append([tracer.request, sid, parent, name, t0, t1])
                tracer.add(f"{name}.calls", 1)
                if (module in REFUSING and isinstance(exc, refusal)
                        and not any(n.startswith(module + ".")
                                    for _, n in tracer._stack)):
                    tracer.add(f"{module}.refusals", 1)
                    tracer.add(f"{module}.refusal_s", t1 - t0)
                raise
            t1 = perf_counter()
            tracer._stack.pop()
            tracer.spans.append([tracer.request, sid, parent, name, t0, t1])
            tracer.add(f"{name}.calls", 1)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                missed = bool(cache_info and cache_info().misses > misses)
                count(tracer, name, bound.arguments, result, missed)
                tracer.spans.append([tracer.request, next(tracer._ids), parent,
                                     TRACE_SPAN, t1, perf_counter()])
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "designlab"
                                         or name.startswith("designlab."))]
        for mod_name, attr, count in TARGETS:
            mod, name = _module(mod_name), metric_prefix(mod_name, attr)
            if attr.startswith("QSeries."):
                cls, meth = mod.QSeries, attr.split(".", 1)[1]
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, count))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


# -- self time ----------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name: duration minus the time its children cover, where
    overlapping children count once."""
    children = defaultdict(list)
    for req, sid, parent, name, t0, t1 in spans:
        children[(req, parent)].append((t0, t1))
    out: dict[str, float] = defaultdict(float)
    for req, sid, parent, name, t0, t1 in spans:
        out[name] += (t1 - t0) - _covered(children.get((req, sid), ()), t0, t1)
    return out
