"""Run one ellcy CLI command in this interpreter with spans around each layer.

Usage: python3 perfbench/trace_child.py SPANS_PATH ARG...

Behaves like ``python -m ellcy ARG...``: same stdout, stderr and exit code.
Before ``ellcy.cli`` is imported, the public functions of ``ellcy.series``,
``ellcy.forms``, ``ellcy.invariants`` and ``ellcy.checks`` are replaced by
wrappers that record one span per call.  The CLI binds some generators at
import time, so wrapping first is what makes those calls visible.

Spans stay in memory as ``[name, start_ns, end_ns, parent_index, repeat]``
and are written as JSON to SPANS_PATH at exit, together with
the import time, the multiplication work and the largest coefficient size.
``repeat`` is 1 when the call's arguments were already seen in this process.
"""

from __future__ import annotations

import json
import sys
import time

# Wrapped public functions, by module.  A name missing from its module is
# skipped, and its metrics then read 0.
FORMS = ("eta_power", "delta", "inverse_delta", "inverse_sqrt_delta",
         "eisenstein", "e8_norm_counts", "theta_e8", "yau_zaslow")
INVARIANTS = ("nl_number", "f_fiber_closed", "gv_fiber_direct",
              "f_section_closed", "f_section_convolution",
              "f_multifiber_slice", "f_multifiber_direct")
SERIES_METHODS = {"mul": "__mul__", "invert": "invert", "sqrt": "sqrt"}


class Tracer:
    def __init__(self, qseries):
        self.qseries = qseries
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.mul_work = 0
        self.max_coeff_bits = 0

    def _note_result(self, result) -> None:
        if isinstance(result, self.qseries):
            for c in result.coeffs:
                bits = abs(c.numerator).bit_length()
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits

    def wrap(self, name, fn, key_args=True):
        """Return fn wrapped in a span called name.

        With key_args, calls are keyed by their arguments to count repeats.
        A name ending in "?" is completed from the result's ``name``.
        """
        spans, stack = self.spans, self.stack
        seen = set()
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            repeat = 0
            if key_args:
                key = (args, tuple(sorted(kwargs.items())))
                repeat = int(key in seen)
                seen.add(key)
            rec = [name, 0, 0, stack[-1] if stack else -1, repeat]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if name.endswith("?"):
                rec[0] = name[:-1] + result.name
            self._note_result(result)
            return result

        return traced

    def install(self, forms, invariants, checks) -> None:
        qs = self.qseries
        for metric, attr in SERIES_METHODS.items():
            plain = getattr(qs, attr)
            traced = self.wrap(f"series.{metric}", plain, key_args=False)
            if attr == "__mul__":
                traced = self._mul_wrapper(plain, traced)
                qs.__rmul__ = traced
            setattr(qs, attr, traced)
        for mod, prefix, names in ((forms, "forms", FORMS),
                                   (invariants, "invariants", INVARIANTS)):
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is not None:
                    setattr(mod, fname, self.wrap(f"{prefix}.{fname}", fn))
        for fname in dir(checks):
            if fname.startswith("check_"):
                setattr(checks, fname, self.wrap(
                    "checks.?", getattr(checks, fname), key_args=False))

    def _mul_wrapper(self, plain, traced):
        """Trace series-by-series products only; scalar scaling passes by."""

        def mul(a, b):
            if not isinstance(b, self.qseries):
                return plain(a, b)
            self.mul_work += len(a.coeffs) * len(b.coeffs)
            return traced(a, b)

        return mul


def main() -> None:
    path = sys.argv[1]
    argv = sys.argv[2:]
    t0 = time.perf_counter_ns()
    from ellcy import checks, forms, invariants, series
    t1 = time.perf_counter_ns()
    tracer = Tracer(series.QSeries)
    tracer.install(forms, invariants, checks)
    t2 = time.perf_counter_ns()
    from ellcy import cli
    t3 = time.perf_counter_ns()
    try:
        code = tracer.wrap("cli", cli.main, key_args=False)(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
    sys.stdout.flush()
    with open(path, "w") as out:
        json.dump({"import_s": (t1 - t0 + t3 - t2) / 1e9,
                   "mul_work": tracer.mul_work,
                   "max_coeff_bits": tracer.max_coeff_bits,
                   "spans": tracer.spans}, out)
    sys.exit(code)


if __name__ == "__main__":
    main()
