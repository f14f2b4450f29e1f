"""Layer spans recorded from outside the program.

A Tracer replaces each named function (or class) with a timing wrapper in
every module that binds it, so `from .rootfind import find_zeros` style
re-bindings are caught as well, and restores the originals on exit. Spans are
kept in memory as [name, start_ns, end_ns, parent, case] and summarised into
per-layer metrics afterwards.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Sequence, Tuple

# (module, attribute) pairs timed in the traced run; the span name is
# "<module tail>.<attribute>"
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("qzeros.params", "validate"),
    ("qzeros.qseries", "coeffs_P"),
    ("qzeros.rootfind", "find_zeros"),
    ("qzeros.rootfind", "companion_zeros"),
    ("qzeros.zero_algebra", "KernelCache"),
    ("qzeros.zero_algebra", "prop1_residuals"),
    ("qzeros.zero_algebra", "prop1_residuals_qde"),
    ("qzeros.qdiff", "qde_residual"),
    ("qzeros.qdiff", "qde_expanded_agreement"),
    ("qzeros.isospectral", "certified_spectrum"),
    ("qzeros.isospectral", "build_M"),
    ("qzeros.isospectral", "match_spectrum"),
    ("qzeros.flow", "flow_rhs"),
    ("qzeros.flow", "jacobian_fd"),
    ("qzeros.cli", "load_config"),
    ("qzeros.cli", "main"),
    ("mpmath", "eig"),
)

# spans that count as escalated when an mpmath.eig call runs inside them
ESCALATING = ("rootfind.companion_zeros", "isospectral.certified_spectrum")


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.case = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, targets: Sequence[Tuple[str, str]] = TARGETS):
        """Wrap every binding of each target in the loaded qzeros modules."""
        patched = []
        try:
            for module_name, attr in targets:
                home = sys.modules[module_name]
                original = getattr(home, attr)
                wrapped = self.wrap(span_name(module_name, attr), original)
                for name, module in list(sys.modules.items()):
                    if module is not home and name != "qzeros" and not name.startswith("qzeros."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, key, value))
                            setattr(module, key, wrapped)
            yield self
        finally:
            for module, key, value in reversed(patched):
                setattr(module, key, value)

    def metrics(self) -> Dict[str, float]:
        """calls, inclusive ms, self ms and escalations per span name."""
        calls: Dict[str, int] = defaultdict(int)
        total_ns: Dict[str, int] = defaultdict(int)
        child_ns: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            name, start, end, parent, _case = span
            calls[name] += 1
            total_ns[name] += end - start
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Dict[str, int] = defaultdict(int)
        for idx, (name, start, end, _parent, _case) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[idx]
        escalated = set()
        for span in self.spans:
            if span[0] != "mpmath.eig":
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] in ESCALATING:
                    escalated.add(parent)
                parent = self.spans[parent][3]
        out: Dict[str, float] = {}
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = total_ns[name] / 1e6
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        for name in ESCALATING:
            count = sum(1 for idx in escalated if self.spans[idx][0] == name)
            out[f"{name}.escalations"] = count
            out[f"{name}.escalation_share"] = count / calls[name] if calls[name] else 0.0
        rhs_calls = calls["flow.flow_rhs"]
        out["flow.flow_rhs.us_per_call"] = (
            total_ns["flow.flow_rhs"] / 1e3 / rhs_calls if rhs_calls else 0.0
        )
        return out
