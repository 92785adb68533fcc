"""Outside-in tracing of lieposet's public functions.

`Tracer.install()` wraps each function named in `TARGETS` and rebinds the
wrapper under every name the package holds for it, so that a call through
`from .liealg import build_type_a` in another module is seen too;
`uninstall()` puts the originals back.  Nothing under `src/` is edited.
Generator functions get one span per `next()`, so the consumer's work
between two items is charged to the consumer.

Spans are folded into per-name and per-edge (parent -> child) totals as they
close, which keeps memory bounded on runs with tens of thousands of calls.
A span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, qualified name, is a generator function)
TARGETS = (
    ("posets", "enumerate_posets", True),
    ("liealg", "build_type_a", False),
    ("liealg", "kirillov_matrix", False),
    ("liealg", "extended_matrix", False),
    ("liealg", "index", False),
    ("liealg", "index_certified", False),
    ("liealg", "center", False),
    ("linalg", "RationalMatrix.rank", False),
    ("linalg", "RationalMatrix.determinant", False),
    ("linalg", "RationalMatrix.kernel", False),
    ("linalg", "rank_mod_p", False),
    ("linalg", "symbolic_rank", False),
    ("contact", "generate_contact_replays", True),
    ("contact", "Replay.apply", False),
    ("contact", "verify_replay", False),
    ("contact", "classify_h2", False),
    ("contact", "classifier_contact_form", False),
    ("contact", "verify_contact_form", False),
    ("complexes", "order_complex", False),
    ("complexes", "betti_numbers", False),
    ("cohomology", "ce_cohomology_dims", False),
    ("sweep", "run_sweep", False),
    ("cli", "main", False),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual, _ in TARGETS)
ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.stack = []  # [name, start, time in child spans]
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.yields = {name: 0 for name in SPAN_NAMES}
        self.edges = {}  # (parent, child) -> closed spans
        self._restore = []  # (namespace, key, original)

    def enter(self, name):
        self.stack.append([name, perf_counter(), 0.0])

    def leave(self):
        name, start, child = self.stack.pop()
        dur = perf_counter() - start
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][0]
        else:
            parent = ROOT
        self.edges[(parent, name)] = self.edges.get((parent, name), 0) + 1

    def _wrap_function(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()

        return wrapper

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    self.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.leave()
                    self.yields[name] += 1
                    yield item
            finally:
                it.close()

        return wrapper

    def _rebind(self, namespace, key, value):
        self._restore.append((namespace, key, getattr(namespace, key)))
        setattr(namespace, key, value)

    def install(self) -> None:
        """Wrap every target wherever lieposet holds a reference to it."""
        for mod_name, _, _ in TARGETS:
            importlib.import_module(f"lieposet.{mod_name}")
        modules = [
            m for k, m in sys.modules.items() if k == "lieposet" or k.startswith("lieposet.")
        ]
        for mod_name, qual, is_gen in TARGETS:
            name = f"{mod_name}.{qual}"
            home = sys.modules[f"lieposet.{mod_name}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                self._rebind(cls, attr, self._wrap_function(name, getattr(cls, attr)))
                continue
            original = getattr(home, qual)
            make = self._wrap_generator if is_gen else self._wrap_function
            wrapper = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            namespace, key, original = self._restore.pop()
            setattr(namespace, key, original)
