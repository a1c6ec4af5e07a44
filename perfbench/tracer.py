"""Spans around the calls into each layer, recorded from outside the package.

The tracer wraps the public functions listed in ``LAYERS`` and patches
every module namespace that holds them, because modules import these
functions by name (``orthogonal_normal_form`` lives in ``antilinear``,
``decompose``, ``workbench``, ``cli`` and the package root).  Modules
are resolved with ``importlib.import_module``: at package level
``rotpair.classify`` and ``rotpair.decompose`` are functions that shadow
their submodules, and patching through them records nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import time
from collections import defaultdict

LAYERS = {
    "orthogonal": ("orthogonal_normal_form", "as_rotation", "rho"),
    "linalg": ("orthonormalize", "subspace_meet", "orthonormal_complement",
               "symmetric_eigen"),
    "antilinear": ("eigenplanes", "build_T", "antilinear_invariant_line"),
    "decompose": ("decompose", "find_block", "is_irreducible",
                  "two_plane_exists"),
    "classify": ("classify", "classify_block", "theta_invariant",
                 "isomorphic", "labels_match"),
    "workbench": ("load_pair", "build_report", "generate_pair"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class SpanStats:
    __slots__ = ("calls", "ms", "self_ms", "raised", "returned_false")

    def __init__(self):
        self.calls = 0
        self.ms = 0.0        # inclusive; nested spans of the same name count once
        self.self_ms = 0.0   # inclusive minus direct child spans
        self.raised = defaultdict(int)   # exception class name -> count
        self.returned_false = 0


class Tracer:
    """Per-region span statistics for the functions in ``LAYERS``.

    ``region`` tags every span recorded while it is set, so input
    building and the timed operation can be told apart.  Spans stay in
    memory; ``stats`` is read after the run.
    """

    def __init__(self):
        self.region = "op"
        self.stats = defaultdict(lambda: defaultdict(SpanStats))
        self._stack = []   # [name, child seconds] per open span

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if result is False:
                    self.stats[self.region][name].returned_false += 1
                return result
            except BaseException as exc:
                self.stats[self.region][name].raised[type(exc).__name__] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                entry = self.stats[self.region][name]
                entry.calls += 1
                entry.self_ms += 1e3 * (elapsed - frame[1])
                if all(f[0] != name for f in self._stack):
                    entry.ms += 1e3 * elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed
        traced.span_name = name
        return traced

    @contextlib.contextmanager
    def installed(self, region: str):
        """Patch every namespace holding a traced function; restore on exit.

        Every submodule is imported first: one imported while the patches
        are in place would bind the wrappers by name and keep them.
        """
        self.region = region
        modules = _rotpair_modules()
        patched = []
        try:
            for mod_name, fns in LAYERS.items():
                module = importlib.import_module(f"rotpair.{mod_name}")
                for fn_name in fns:
                    original = getattr(module, fn_name)
                    wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                    for ns in modules:
                        if ns.__dict__.get(fn_name) is original:
                            setattr(ns, fn_name, wrapped)
                            patched.append((ns, fn_name, original))
            yield self
        finally:
            for ns, fn_name, original in reversed(patched):
                setattr(ns, fn_name, original)
            left = [f"{ns.__name__}.{attr}" for ns in _rotpair_modules()
                    for attr, value in vars(ns).items() if hasattr(value, "span_name")]
            if left:
                raise RuntimeError(f"tracer left patched: {', '.join(left)}")


def _rotpair_modules():
    """The package and all of its submodules, imported."""
    package = importlib.import_module("rotpair")
    return [package] + [importlib.import_module(info.name) for info in
                        pkgutil.iter_modules(package.__path__, "rotpair.")]
