"""In-process traced run of vincular CLI commands.

``Runner`` imports ``vincular`` from a source tree and runs commands
through ``vincular.cli.main(argv)`` with stdout sent to a hashing sink.
On a traced pass every public function listed in ``FUNCTIONS`` is replaced
by a wrapper that records a span, in every module namespace (and
module-level dict) that binds it: ``from .perms import avoids`` makes
``vincular.blocks.avoids`` and ``vincular.brute.avoids`` bindings of their
own, and ``brute.STATISTICS`` holds ``label``.  No source file changes.

Spans are aggregated by (name, parent) into call count, total time and
self time (total minus the time of wrapped children), so memory stays
bounded over millions of calls.

Pool workers are forked processes and opaque here: what they do is visible
only as the parent's wait on the pool, ``gentree.pool.wait_s`` and
``brute.pool.wait_s``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import io
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

# (span name, module, attribute) for each public boundary.
FUNCTIONS = [
    ("perms.avoids", "perms", "avoids"),
    ("perms.check_permutation", "perms", "check_permutation"),
    ("perms.standard_reduction", "perms", "standard_reduction"),
    ("perms.label", "perms", "label"),
    ("blocks.decompose", "blocks", "decompose"),
    ("eco.expand", "eco", "expand"),
    ("eco.reduce", "eco", "reduce"),
    ("gentree.generate_level", "gentree", "generate_level"),
    ("gentree.verify_labelling", "gentree", "verify_labelling"),
    ("brute.brute_avoiders", "brute", "brute_avoiders"),
    ("brute.brute_census", "brute", "brute_census"),
    ("brute.oracle_diff", "brute", "oracle_diff"),
    ("counting.u_triangle", "counting", "u_triangle"),
    ("counting.v_triangle", "counting", "v_triangle"),
    ("counting.callan_3142_triangle", "counting", "callan_3142_triangle"),
    ("counting.continued_fraction_series", "counting", "continued_fraction_series"),
    ("counting.check_pde", "counting", "check_pde"),
    ("counting.label_series", "counting", "label_series"),
    ("counting.check_functional_equation", "counting", "check_functional_equation"),
]
TRIANGLE_LOOKUPS = ("value", "row", "row_sum")
POOLS = [("gentree.pool", "gentree"), ("brute.pool", "brute")]

# Bindings that must be patched besides the defining module's own; a
# missing one means the scan below no longer sees how the code is wired.
REQUIRED = {
    "vincular.blocks.avoids",
    "vincular.brute.avoids",
    "vincular.brute.STATISTICS['label']",
    "vincular.gentree.expand",
    "vincular.cli.expand",
    "vincular.cli.reduce",
    "vincular.brute.generate_level",
    "vincular.counting.generate_level",
}


class Tracer:
    """Span stack plus aggregates keyed by (name, parent)."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, parent, start, child seconds]
        self.spans: dict[tuple[str, str | None], list] = {}  # [calls, total_s, self_s]
        self.counters: Counter[str] = Counter()

    def begin(self, name: str) -> list:
        frame = [name, self.stack[-1][0] if self.stack else None, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        elapsed = time.perf_counter() - frame[2]
        self.stack.pop()
        if self.stack:
            self.stack[-1][3] += elapsed
        key = (frame[0], frame[1])
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - frame[3]

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(frame)
            if hook is not None:
                hook(self, result, frame[1])
            return result

        return wrapper

    def pool(self, name: str, base: type) -> type:
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._span = tracer.begin(name)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._span)

        return TracedPool


def _count_hits(tracer: Tracer, result: bool, parent: str | None) -> None:
    if result and parent == "brute.brute_avoiders":
        tracer.counters["brute.avoiders_found"] += 1


def _count_children(tracer: Tracer, result: list, parent: str | None) -> None:
    tracer.counters["eco.children"] += len(result)


def _count_avoiders(tracer: Tracer, result: list, parent: str | None) -> None:
    tracer.counters["gentree.avoiders"] += len(result)


HOOKS = {
    "perms.avoids": _count_hits,
    "eco.expand": _count_children,
    "gentree.generate_level": _count_avoiders,
}


class _HashSink(io.RawIOBase):
    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.size = 0
        self.head = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.digest.update(data)
        self.size += len(data)
        if len(self.head) < 1 << 16:
            self.head += bytes(data[: (1 << 16) - len(self.head)])
        return len(data)


class Runner:
    """Imports vincular from ``src`` and runs CLI passes in this process."""

    def __init__(self, src: Path) -> None:
        sys.path.insert(0, str(src))
        self.cli = importlib.import_module("vincular.cli")
        origin = Path(self.cli.__file__).resolve()
        if src.resolve() not in origin.parents:
            raise RuntimeError(f"vincular imported from {origin}, not from {src}")
        self.tracer = Tracer()
        self.stdout_bytes = 0
        self.commands = 0
        self.patched: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self) -> dict[str, object]:
        return {
            name: module
            for name, module in sys.modules.items()
            if name == "vincular" or name.startswith("vincular.")
        }

    def _install(self) -> None:
        modules = self._modules()
        for span, module_name, attr in FUNCTIONS:
            original = getattr(modules[f"vincular.{module_name}"], attr)
            wrapper = self.tracer.wrap(span, original, HOOKS.get(span))
            for mod_name, module in modules.items():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
                        self.patched.append(f"{mod_name}.{key}")
                    elif isinstance(value, dict):
                        for dkey, dvalue in value.items():
                            if dvalue is original:
                                self._undo.append((value, dkey, dvalue))
                                value[dkey] = wrapper
                                self.patched.append(f"{mod_name}.{key}[{dkey!r}]")
        triangle = modules["vincular.counting"].Triangle
        for attr in TRIANGLE_LOOKUPS:
            original = vars(triangle)[attr]
            self._undo.append((triangle, attr, original))
            setattr(triangle, attr, self.tracer.wrap("counting.triangle_lookup", original))
        for span, module_name in POOLS:
            module = modules[f"vincular.{module_name}"]
            original = module.ProcessPoolExecutor
            self._undo.append((module, "ProcessPoolExecutor", original))
            module.ProcessPoolExecutor = self.tracer.pool(span, original)
        missing = REQUIRED - set(self.patched)
        if missing:
            raise RuntimeError(f"bindings not patched: {sorted(missing)}")

    def _uninstall(self) -> None:
        while self._undo:
            container, key, original = self._undo.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def run_pass(self, order, trace: bool) -> list[tuple[int, str, int, bytes]]:
        """Run each command through ``cli.main``; return (exit code, stdout
        sha256, stdout bytes, stdout head) per command."""
        if trace:
            self.tracer = Tracer()
            self.stdout_bytes = 0
            self.commands = 0
            self.patched = []
            self._install()
        try:
            return [self._run(list(argv), trace) for argv in order]
        finally:
            if trace:
                self._uninstall()

    def _run(self, argv: list[str], trace: bool) -> tuple[int, str, int, bytes]:
        sink = _HashSink()
        out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, io.StringIO()
        frame = self.tracer.begin("cli") if trace else None
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        finally:
            out.flush()
            if frame is not None:
                self.tracer.end(frame)
            sys.stdout, sys.stderr = saved
        if trace:
            self.stdout_bytes += sink.size
            self.commands += 1
        return code, sink.digest.hexdigest(), sink.size, bytes(sink.head)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the last traced pass, name -> (value, unit)."""
        spans = self.tracer.spans
        counters = self.tracer.counters
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for (name, parent), (n, t, s) in spans.items():
            calls[name] += n
            self_s[name] += s
            if parent != name:
                total[name] += t

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def us_per_call(name: str) -> float:
            return 1e6 * ratio(total[name], calls[name])

        def calls_from(name: str, parent: str) -> int:
            return spans.get((name, parent), [0])[0]

        words = calls_from("perms.avoids", "brute.brute_avoiders")
        return {
            "perms.avoids.calls": (calls["perms.avoids"], "count"),
            "perms.avoids.self_s": (self_s["perms.avoids"], "s"),
            "perms.avoids.us_per_call": (us_per_call("perms.avoids"), "us"),
            "perms.check_permutation.calls": (calls["perms.check_permutation"], "count"),
            "perms.check_permutation.self_s": (self_s["perms.check_permutation"], "s"),
            "perms.standard_reduction.self_s": (self_s["perms.standard_reduction"], "s"),
            "perms.label.calls": (calls["perms.label"], "count"),
            "perms.label.self_s": (self_s["perms.label"], "s"),
            "blocks.decompose.calls": (calls["blocks.decompose"], "count"),
            "blocks.decompose.self_s": (self_s["blocks.decompose"], "s"),
            "blocks.avoids_per_decompose": (
                ratio(calls_from("perms.avoids", "blocks.decompose"), calls["blocks.decompose"]),
                "ratio",
            ),
            "eco.expand.calls": (calls["eco.expand"], "count"),
            "eco.expand.self_s": (self_s["eco.expand"], "s"),
            "eco.expand.us_per_call": (us_per_call("eco.expand"), "us"),
            "eco.children_per_expand": (ratio(counters["eco.children"], calls["eco.expand"]), "ratio"),
            "eco.reduce.calls": (calls["eco.reduce"], "count"),
            "eco.reduce.self_s": (self_s["eco.reduce"], "s"),
            "eco.reduce.us_per_call": (us_per_call("eco.reduce"), "us"),
            "gentree.generate_level.calls": (calls["gentree.generate_level"], "count"),
            "gentree.generate_level.self_s": (self_s["gentree.generate_level"], "s"),
            "gentree.avoiders_per_s": (
                ratio(counters["gentree.avoiders"], total["gentree.generate_level"]),
                "1/s",
            ),
            "gentree.verify_labelling.self_s": (self_s["gentree.verify_labelling"], "s"),
            "gentree.pool.calls": (calls["gentree.pool"], "count"),
            "gentree.pool.wait_s": (total["gentree.pool"], "s"),
            "brute.words_tested": (words, "count"),
            "brute.hit_ratio": (ratio(counters["brute.avoiders_found"], words), "ratio"),
            "brute.brute_avoiders.self_s": (self_s["brute.brute_avoiders"], "s"),
            "brute.brute_census.self_s": (self_s["brute.brute_census"], "s"),
            "brute.oracle_diff.self_s": (self_s["brute.oracle_diff"], "s"),
            "brute.pool.calls": (calls["brute.pool"], "count"),
            "brute.pool.wait_s": (total["brute.pool"], "s"),
            "counting.u_triangle.total_s": (total["counting.u_triangle"], "s"),
            "counting.v_triangle.total_s": (total["counting.v_triangle"], "s"),
            "counting.triangle_lookup.calls": (calls["counting.triangle_lookup"], "count"),
            "counting.triangle_lookup.self_s": (self_s["counting.triangle_lookup"], "s"),
            "counting.callan_3142_triangle.total_s": (total["counting.callan_3142_triangle"], "s"),
            "counting.continued_fraction_series.total_s": (
                total["counting.continued_fraction_series"],
                "s",
            ),
            "counting.check_pde.total_s": (total["counting.check_pde"], "s"),
            "counting.label_series.self_s": (self_s["counting.label_series"], "s"),
            "counting.check_functional_equation.self_s": (
                self_s["counting.check_functional_equation"],
                "s",
            ),
            "cli.self_s": (self_s["cli"], "s"),
            "cli.stdout_bytes": (self.stdout_bytes, "bytes"),
            "cli.commands": (self.commands, "count"),
        }
