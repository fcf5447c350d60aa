"""Outside-in tracing of hqds3's public functions.

The tracer swaps each listed function object for a thin wrapper in every
loaded ``hqds3`` namespace (the package ``__init__`` included), so calls
between modules and calls inside one module both pass through it.  The
wrappers only time the call and look at its return value; results are
returned untouched, which the benchmark confirms by comparing the traced
pass's verdicts and certificates with an untraced pass over the same inputs.

Submodules are looked up in ``sys.modules``: the package attribute
``hqds3.classify`` is the function, which shadows the submodule.

``linalg`` and ``tolerances`` are not wrapped; their helpers are small and
frequent, so they are counted in their callers' self time.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

# layer (module) -> public functions wrapped in the traced run
TRACED = {
    "algebra": (
        "nilpotent_cone",
        "annihilator",
        "square_ideal",
        "structure_flags",
        "change_of_basis",
        "idempotents",
    ),
    "derivations": (
        "derivation_space",
        "find_real_ssnd",
        "analyze_spectrum",
        "jordan_chevalley",
    ),
    "classify": (
        "classify",
        "classify_via_derivation",
        "fingerprint",
        "reduce_with_derivation",
        "polish_certificate",
        "certificate_residual",
    ),
    "dynamics": (
        "integrate",
        "curvature_torsion",
        "linear_first_integrals",
        "affine_flow",
        "trajectory_to_csv",
    ),
    "cli": ("load_algebra", "cmd_classify", "cmd_verify", "cmd_simulate"),
}

OP_SPAN = "bench.op"


class Tracer:
    """Spans and per-function totals for wrapped hqds3 functions.

    ``outcomes`` maps a qualified name such as ``"dynamics.integrate"`` to a
    function of the call's return value; its sum over calls is kept next to
    the call count, which gives hit, accept and fallback ratios at the
    boundary where the work happens.
    """

    def __init__(self, outcomes=None):
        self.outcomes = dict(outcomes or {})
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.outcome_sum: dict[str, float] = {}
        # (op, span id, parent span id or -1, name, start, end), in memory
        # until the run ends
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._op = -1
        self._swapped: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "hqds3" or name.startswith("hqds3."))
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"hqds3.{layer}"]
            for fn in names:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for ns in namespaces:
                    hits = [attr for attr, val in vars(ns).items() if val is original]
                    for attr in hits:
                        self._swapped.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._swapped):
            setattr(ns, attr, original)
        self._swapped.clear()

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        span = len(self.spans)
        self.spans.append((self._op, span, parent, name, 0.0, 0.0))
        self._stack.append([span, name, perf_counter(), 0.0])

    def _exit(self) -> float:
        end = perf_counter()
        span, name, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        op, _, parent, _, _, _ = self.spans[span]
        self.spans[span] = (op, span, parent, name, start, end)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (dur - child)
        return dur

    def _wrap(self, name: str, original):
        outcome = self.outcomes.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit()
            if outcome is not None:
                self.outcome_sum[name] = self.outcome_sum.get(name, 0.0) + float(outcome(result))
            return result

        return traced

    def begin_op(self, op: int) -> None:
        self._op = op
        self._enter(OP_SPAN)

    def end_op(self) -> float:
        """Close the op's root span; returns its duration in seconds."""
        return self._exit()

    def calls_under(self, name: str, enclosing: tuple[str, ...]) -> dict:
        """Calls of ``name`` counted per (op, nearest enclosing span whose
        name is in ``enclosing``, or None)."""
        counts: dict[tuple[int, str | None], int] = {}
        for op, _, parent, span_name, _, _ in self.spans:
            if span_name != name:
                continue
            while parent >= 0 and self.spans[parent][3] not in enclosing:
                parent = self.spans[parent][2]
            key = (op, self.spans[parent][3] if parent >= 0 else None)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for op, span, parent, name, start, end in self.spans:
                fh.write(f"{op},{span},{parent},{name},{start!r},{end!r}\n")
