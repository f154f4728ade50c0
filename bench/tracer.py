"""Spans around calls into each `cahm` module, installed from outside the package.

`Tracer.install()` replaces each layer's public function with a wrapper that
records a span (name, start, end, parent span, op id).  Modules that bound
the function by `from .x import y` hold their own reference, so every `cahm`
module attribute that is the original function is replaced too.
`uninstall()` puts the originals back.  Spans stay in memory until the run
writes them out; a layer's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" patches the class.
LAYERS = (
    ("cli.main", "cahm.cli", "main"),
    ("target_models.build_chain_h", "cahm.target_models", "build_chain_h"),
    ("numerics.eig_hermitian", "cahm.numerics", "eig_hermitian"),
    ("numerics.Spectrum.validate", "cahm.numerics", "Spectrum.__post_init__"),
    ("rydberg_models.build_rydberg_h", "cahm.rydberg_models", "build_rydberg_h"),
    ("evolution.trace", "cahm.evolution", "trace"),
    ("evolution.simulator_trace", "cahm.evolution", "simulator_trace"),
    ("evolution.state_probabilities", "cahm.evolution", "state_probabilities"),
    ("evolution.compare", "cahm.evolution", "compare"),
    ("evolution.EvolutionTrace.to_csv_text", "cahm.evolution", "EvolutionTrace.to_csv_text"),
    ("matching.match_six_atom", "cahm.matching", "match_six_atom"),
    ("matching.fit_time_rescale", "cahm.matching", "fit_time_rescale"),
    ("matching.solve_three_atom_newton", "cahm.matching", "solve_three_atom_newton"),
    ("trotter.apply_circuit", "cahm.trotter", "apply_circuit"),
    ("trotter.sample_shots", "cahm.trotter", "sample_shots"),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # (Hermitian matrix, eigenvalues) of each eig_hermitian call; the runner clears it.
        self.eig_inputs: list = []
        self.op_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _after(self, name: str, args, kwargs, result) -> None:
        # Runs after the span closed; keep it to a few operations.
        if name == "evolution.trace":
            finals = _arg(args, kwargs, 2, "finals")
            times = _arg(args, kwargs, 3, "times")
            self.counts["evolution.trace.amplitudes"] += len(finals) * len(times)
        elif name == "evolution.EvolutionTrace.to_csv_text":
            self.counts["evolution.EvolutionTrace.to_csv_text.bytes"] += len(result)
        elif name == "numerics.eig_hermitian":
            op = _arg(args, kwargs, 0, "op")
            self.eig_inputs.append((getattr(op, "matrix", op), result.eigenvalues))

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            tracer._after(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "cahm" or key.startswith("cahm.")]
        for name, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(name, original), original)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper, original)

    def _patch(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds (minus direct children)."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["incl_s"] += end - start
        t["self_s"] += end - start - children[i]
    return totals
