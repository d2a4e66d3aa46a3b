"""Span tracing for traced benchmark runs, kept entirely in the benchmark.

Wrappers replace the names through which one layer calls another: the
names a calling module imported (``almost_squares.cli.count_le``,
``almost_squares.analysis.remainder``, ...) and the core-internal names
that ``floor_almost_square`` and ``enumerate_range`` call through.  The
parser returned by ``build_parser`` gets its ``parse_args`` wrapped too,
so argument parsing, including decimal ``int()`` conversion, is its own
span.  An operation's spans stay in memory as tuples while it runs; after
it returns, outside the timed region, they are added into the per-layer
totals and appended to a gzip CSV file.  A span's self time is its
duration minus its children's.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

ROOT_SPAN = "cli.main"

# (module, attribute, span name, work measure)
_TARGETS = (
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "is_almost_square", "core.is_almost_square", None),
    ("cli", "count_le", "core.count_le", None),
    ("cli", "floor_almost_square", "core.floor_almost_square", None),
    ("cli", "nth", "core.nth", None),
    ("cli", "enumerate_range", "core.enumerate_range", "rows"),
    ("cli", "flock_members", "core.flock_members", None),
    ("cli", "brute_record_set", "oracle.brute_record_set", "limit"),
    ("core", "count_le", "core.count_le", None),
    ("core", "nth", "core.nth", None),
    ("core", "flock_members", "core.flock_members", None),
    ("analysis", "emit_series", "analysis.emit_series", "result"),
    ("analysis", "remainder", "analysis.remainder", None),
    ("analysis", "tri_product_grid", "analysis.tri_product_grid", None),
    ("analysis", "count_le", "core.count_le", None),
    ("analysis", "enumerate_range", "core.enumerate_range", "rows"),
    ("analysis", "is_almost_square", "core.is_almost_square", None),
)

_CORE_FUNCS = ("is_almost_square", "count_le", "floor_almost_square", "nth",
               "enumerate_range", "flock_members")


class Tracer:
    """Records (op, span, parent, name, start_ns, end_ns, work) tuples."""

    def __init__(self, path) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self.span_count = 0
        self._stack: list[int] = []
        self._next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self._file = gzip.open(path, "wt", encoding="ascii", compresslevel=1)
        self._file.write("op,span,parent,name,start_ns,end_ns,work\n")

    def wrap(self, name: str, fn, work: str | None = None):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            amount = 0
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if work == "rows":
                    amount = len(result)
                elif work == "result":
                    amount = result
                elif work == "limit":
                    amount = args[0]
                if name == "cli.build_parser":
                    result.parse_args = self.wrap("cli.parse_args", result.parse_args)
                return result
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, name, t0, t1, amount))

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        for module, attr, name, work in _TARGETS:
            mod = sys.modules.get(f"almost_squares.{module}")
            if mod is None:  # analysis is imported only by workloads that use it
                continue
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, work))
        try:
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def end_op(self) -> None:
        """Fold the last operation's spans into the totals and write them out."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, t0, t1, _ in self.spans:
            child_ns[parent] += t1 - t0
        for span in self.spans:
            _, sid, _, name, t0, t1, amount = span
            self.calls[name] += 1
            self.total_ns[name] += t1 - t0
            self.self_ns[name] += t1 - t0 - child_ns.get(sid, 0)
            self.work[name] += amount
            self._file.write(",".join(map(str, span)) + "\n")
        self.span_count += len(self.spans)
        self.spans.clear()

    def close(self) -> None:
        self._file.close()

    def per_layer(self, ops: int, bytes_out: int, input_digits: int) -> dict[str, float]:
        """Per-operation layer metrics from the recorded spans."""
        calls, total_ns, self_ns, work = self.calls, self.total_ns, self.self_ns, self.work
        per_op = 1.0 / max(ops, 1)
        out = {
            "cli.build_parser_s": total_ns["cli.build_parser"] * 1e-9 * per_op,
            "cli.parse_args_s": total_ns["cli.parse_args"] * 1e-9 * per_op,
            "cli.self_s": self_ns[ROOT_SPAN] * 1e-9 * per_op,
            "cli.bytes_out": bytes_out * per_op,
            "cli.input_digits": input_digits * per_op,
        }
        for fn in _CORE_FUNCS:
            out[f"core.{fn}.calls"] = calls[f"core.{fn}"] * per_op
            out[f"core.{fn}.self_s"] = self_ns[f"core.{fn}"] * 1e-9 * per_op
        rows = work["core.enumerate_range"]
        out["core.enumerate_range.s_per_row"] = (
            total_ns["core.enumerate_range"] * 1e-9 / rows if rows else 0.0)
        out["analysis.emit_series.self_s"] = self_ns["analysis.emit_series"] * 1e-9 * per_op
        out["analysis.remainder.calls"] = calls["analysis.remainder"] * per_op
        out["analysis.remainder.self_s"] = self_ns["analysis.remainder"] * 1e-9 * per_op
        out["analysis.tri_product_grid.self_s"] = (
            self_ns["analysis.tri_product_grid"] * 1e-9 * per_op)
        out["analysis.rows"] = work["analysis.emit_series"] * per_op
        out["oracle.brute_record_set.calls"] = calls["oracle.brute_record_set"] * per_op
        out["oracle.brute_record_set.self_s"] = (
            self_ns["oracle.brute_record_set"] * 1e-9 * per_op)
        out["oracle.scanned_n"] = work["oracle.brute_record_set"] * per_op
        return out
