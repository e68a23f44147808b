"""Spans and counts around calls into qexpand's public names.

The tracer rebinds each traced name where its callers look it up: methods
on their class, functions in every qexpand module that imported them.  It
edits nothing under src/.  Each wrapped call is a span; a span's self time
is its duration minus the time of the traced calls made inside it,
including their tracing cost, so the tracer's own bookkeeping is charged
to no layer.

Spans of the coarse layers (verify, cli, ordering, freealgebra) are kept
in full, with their parent span, and written out with the record.  The
arithmetic and q-number spans run into the hundreds of thousands per call,
so they are folded into per-name totals as they close.
"""

import time

import qexpand
from qexpand import cli, exactarith, freealgebra, ordering, qnumbers, verify

MODULES = (qexpand, exactarith, qnumbers, freealgebra, ordering, verify, cli)

# span name -> (class, method name)
METHODS = {
    "exactarith.mul": (exactarith.IntPolynomial, "__mul__"),
    "exactarith.exact_div": (exactarith.IntPolynomial, "exact_div"),
    "exactarith.rf_new": (exactarith.RationalFunction, "__init__"),
    "freealgebra.mul": (freealgebra.NCPolynomial, "__mul__"),
}

# span name -> (defining module, function names)
FUNCTIONS = {
    "exactarith.gcd": (exactarith, ("poly_gcd",)),
    "qnumbers.theta": (qnumbers, ("theta_a", "theta_b")),
    "qnumbers.phi": (qnumbers, ("phi_closed", "phi_recursive")),
    "ordering.normalize": (ordering, ("normalize",)),
    "verify": (
        verify,
        (
            "expand_formula",
            "expand_oracle",
            "verify_expansions",
            "verify_recurrences",
            "verify_phi",
            "verify_degenerations",
            "verify_identity_4i2",
        ),
    ),
    "cli": (cli, ("main",)),
}

KEPT = ("verify", "cli", "ordering", "freealgebra")


class Tracer:
    """Wraps the traced names on install() and restores them on uninstall()."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, total seconds, self seconds]
        self.counts = {
            "mul_max_degree": 0,
            "gcd_nontrivial": 0,
            "max_coeff_bits": 0,
            "max_terms": 0,
            "words_in": 0,
            "words_out": 0,
        }
        self.spans = []  # [function, parent index, start, end] for kept names
        self._stack = [0.0]  # traced time of the children of each open span
        self._open = []  # indices into spans of the open kept spans
        self._restore = []
        self._theta = [getattr(qnumbers, n) for n in FUNCTIONS["qnumbers.theta"][1]]

    def install(self) -> None:
        after = {
            "exactarith.mul": self._after_mul,
            "exactarith.gcd": self._after_gcd,
            "exactarith.rf_new": self._after_rf_new,
            "freealgebra.mul": self._after_nc_mul,
            "ordering.normalize": self._after_normalize,
        }
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            label = f"{cls.__name__}.{attr}"
            setattr(cls, attr, self._wrap(name, label, original, after.get(name)))
            self._restore.append((cls, attr, original))
        for name, (home, attrs) in FUNCTIONS.items():
            for attr in attrs:
                original = getattr(home, attr)
                label = f"{home.__name__.rsplit('.', 1)[-1]}.{attr}"
                wrapped = self._wrap(name, label, original, after.get(name))
                for module in MODULES:
                    if module.__dict__.get(attr) is original:
                        setattr(module, attr, wrapped)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, label, fn, after):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        keep = name.split(".")[0] in KEPT
        stack, spans, open_spans = self._stack, self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            if keep:
                spans.append([label, open_spans[-1] if open_spans else -1, 0.0, 0.0])
                open_spans.append(len(spans) - 1)
            stack.append(0.0)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                inner = stack.pop()
                stats[0] += 1
                stats[1] += t2 - t1
                stats[2] += t2 - t1 - inner
                if keep:
                    span = spans[open_spans.pop()]
                    span[2], span[3] = t1, t2
            if after is not None:
                after(args, result)
            stack[-1] += clock() - t0
            return result

        return traced

    def _after_mul(self, args, result):
        if isinstance(result, exactarith.IntPolynomial):
            degree = len(result.coeffs) - 1
            if degree > self.counts["mul_max_degree"]:
                self.counts["mul_max_degree"] = degree

    def _after_gcd(self, args, result):
        if result.coeffs != (1,):
            self.counts["gcd_nontrivial"] += 1

    def _after_rf_new(self, args, result):
        rf = args[0]
        bits = max(map(int.bit_length, rf.num.coeffs + rf.den.coeffs))
        if bits > self.counts["max_coeff_bits"]:
            self.counts["max_coeff_bits"] = bits

    def _after_nc_mul(self, args, result):
        if len(result) > self.counts["max_terms"]:
            self.counts["max_terms"] = len(result)

    def _after_normalize(self, args, result):
        self.counts["words_in"] += len(args[0])
        self.counts["words_out"] += len(result)

    def report(self) -> dict:
        hits = misses = 0
        for fn in self._theta:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return {
            "stats": self.stats,
            "counts": dict(self.counts, theta_hits=hits, theta_misses=misses),
            "spans": self.spans,
        }
