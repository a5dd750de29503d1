"""Per-layer tracing of sp4lr from outside the program.

:class:`Tracer` wraps every public function and public method of every
``sp4lr`` module and installs each wrapper under every name that binds
the original: ``cli`` imports about thirty names with ``from .x import
...``, and ``algebra``, ``lr_ode`` and ``point_transform`` each bind
their own ``expm``.  Calls made while the tracer is active are timed as
nested spans; a span's self time is its duration minus the time of the
wrapped calls it made.  :func:`cprofile_mismatches` checks the wrapper
call counts against cProfile's.
"""

from __future__ import annotations

import cProfile
import enum
import functools
import importlib
import inspect
import os
import pkgutil
import pstats
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _stack_size(args, kwargs, name, pos):
    m = kwargs[name] if name in kwargs else args[pos]
    return int(np.prod(np.shape(m)[:-2]))


def _expm_extra(args, kwargs, result):
    n = np.shape(result)[-1]
    return "n%d" % n, {"matrices": _stack_size(args, kwargs, "m", 0)}


def _from_matrix_extra(args, kwargs, result):
    return None, {"matrices": _stack_size(args, kwargs, "m", 0)}


def _samples_extra(name, pos):
    def extra(args, kwargs, result):
        grid = kwargs[name] if name in kwargs else args[pos]
        return None, {"samples": int(np.size(grid))}
    return extra


def _bytes_extra(args, kwargs, result):
    return None, {"bytes": os.path.getsize(result)}


# Work counters beyond calls and time.  Each hook returns an optional
# sub-key (the expm matrix size) and counters to add.
_EXTRAS = {
    "numerics.expm": _expm_extra,
    "algebra.from_matrix": _from_matrix_extra,
    "numerics.cumulative_simpson": _samples_extra("grid", 1),
    "profiles.ScalarProfile.antiderivative": _samples_extra("grid", 1),  # args[0] is self
    "cli.emit_plot_data": _bytes_extra,
}

# Spans whose direct calls to one child are also counted, per call and
# in total as ``<child>_calls``: evolve's expm calls measure its halving depth.
_PER_CALL_CHILDREN = {"lr_ode.evolve": "numerics.expm"}


def sp4lr_modules():
    """The package and every submodule, imported."""
    pkg = importlib.import_module("sp4lr")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module("sp4lr." + info.name))
    return mods


def _targets(mods):
    """(key, owner, attribute, function, rewrap) for each public callable.

    ``owner`` is a class for methods and None for module functions, which
    are rebound by identity in every module.
    """
    out = []
    for mod in mods:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in sorted(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__name__ == name:
                out.append(("%s.%s" % (short, name), None, name, obj, None))
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                for attr, raw in sorted(vars(obj).items()):
                    if attr.startswith("_") and attr != "__call__":
                        continue
                    key = "%s.%s.%s" % (short, name, attr)
                    if inspect.isfunction(raw):
                        out.append((key, obj, attr, raw, None))
                    elif isinstance(raw, (classmethod, staticmethod)):
                        out.append((key, obj, attr, raw.__func__, type(raw)))
    return out


class Tracer:
    """Span and counter recorder around the public functions of sp4lr."""

    def __init__(self):
        self.active = False
        self.stats = defaultdict(lambda: defaultdict(float))  # key -> stat -> value
        self.per_call = defaultdict(list)  # key -> direct-child counts, one per call
        self.code_keys = {}  # key -> cProfile key of the wrapped function
        self._stack = []
        self._depth = defaultdict(int)
        self._mods = sp4lr_modules()

    def _wrap(self, key, fn):
        extra = _EXTRAS.get(key)
        counted_child = _PER_CALL_CHILDREN.get(key)
        stats, stack, depth = self.stats, self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0, defaultdict(int)]  # child time, child calls by key
            parent = stack[-1] if stack else None
            stack.append(frame)
            depth[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[key] -= 1
                st = stats[key]
                st["calls"] += 1
                st["self_s"] += dt - frame[0]
                if depth[key] == 0:  # inclusive time once per outermost call
                    st["s"] += dt
                if parent is not None:
                    parent[0] += dt
                    parent[1][key] += 1
                if counted_child is not None:
                    n = frame[1][counted_child]
                    self.per_call[key].append(n)
                    st[counted_child.rpartition(".")[2] + "_calls"] += n
            if extra is not None:
                sub, counters = extra(args, kwargs, result)
                target = st if sub is None else stats["%s.%s" % (key, sub)]
                if sub is not None:
                    target["calls"] += 1
                    target["s"] += dt
                for name, value in counters.items():
                    target[name] += value
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Bind a wrapper in place of every binding of every target."""
        undo = []
        for key, owner, attr, fn, rewrap in _targets(self._mods):
            code = fn.__code__
            self.code_keys[key] = (code.co_filename, code.co_firstlineno, code.co_name)
            wrapper = self._wrap(key, fn)
            if owner is not None:
                undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper if rewrap is None else rewrap(wrapper))
                continue
            for mod in self._mods:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, name, fn))
                        setattr(mod, name, wrapper)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    @contextmanager
    def span(self):
        """Record the calls made inside the block."""
        self.active = True
        try:
            yield
        finally:
            self.active = False


def cprofile_mismatches(run) -> list[tuple[str, int, int]]:
    """Run ``run()`` traced and under cProfile; list (key, wrapper, cProfile)
    call counts that differ.  A call that reaches a function through a
    binding the tracer missed shows up as a cProfile surplus."""
    tracer = Tracer()
    prof = cProfile.Profile()
    with tracer.installed():
        with tracer.span():
            prof.enable()
            try:
                run()
            finally:
                prof.disable()
    counts = {k: v[1] for k, v in pstats.Stats(prof).stats.items()}
    out = []
    for key, code_key in sorted(tracer.code_keys.items()):
        got = int(tracer.stats[key]["calls"]) if key in tracer.stats else 0
        want = counts.get(code_key, 0)
        if got != want:
            out.append((key, got, want))
    return out
