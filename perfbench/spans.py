"""Span tracing of momext's public functions, installed from outside.

`Tracer.install()` wraps each traced function and rebinds every name that
refers to it in the momext modules, including names bound by
`from .x import y` (for example `momext.extraction.moment_matrix`) and the
`RelaxationMap.sequence_from_values` method. `uninstall()` puts the original
objects back. A wrapper records one span per call, (name, start, end,
parent, instance), in memory, plus counts taken from the call's arguments
and result at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ["linalg", "moment", "hierarchy", "sdp", "extraction", "interp", "cli"]

# Multi-index helpers called tens of thousands of times per extraction:
# wrapping them would trace the tracer, not the program.
SKIP = {"moment.enumerate_indices", "moment.index_add", "moment.total_degree"}
# Traced although not in their module's `__all__`: the CLI entry point, the
# relaxation's read-back method, and the data hyponormality check that
# `extract_measure` runs on every certified conjugate-mode extraction.
EXTRA = ["cli.main", "hierarchy.RelaxationMap.sequence_from_values",
         "extraction.data_hyponormality_min_eig"]


def _count_eig(counts, args, out):
    counts["linalg.hermitian_eig.n3"] += len(args[0]) ** 3 if args else 0


def _count_relaxation(counts, args, out):
    counts["hierarchy.sdp_vars"] += out[0].n_vars


def _count_realify(counts, args, out):
    counts["hierarchy.block_rows"] += sum(b.size for b in out.blocks)


def _count_solve(counts, args, out):
    counts["sdp.iterations"] += out.iterations
    counts[f"sdp.status.{out.status}"] += 1


def _count_extract(counts, args, out):
    counts[f"extraction.certification.{out[1].certification}"] += 1


HOOKS = {
    "linalg.hermitian_eig": _count_eig,
    "hierarchy.assemble_relaxation": _count_relaxation,
    "hierarchy.realify": _count_realify,
    "sdp.solve": _count_solve,
    "extraction.extract_measure": _count_extract,
}


def traced_names():
    """Dotted names (layer.function or layer.Class.method) of traced callables.

    An EXTRA name the program no longer has is left out, so its metrics read 0.
    """
    names = []
    for layer in LAYERS:
        mod = sys.modules[f"momext.{layer}"]
        for attr in getattr(mod, "__all__", []):
            name = f"{layer}.{attr}"
            if inspect.isfunction(getattr(mod, attr)) and name not in SKIP:
                names.append(name)
    return names + [name for name in EXTRA if _resolve(name) is not None]


def span_name(name):
    """The span name of a traced callable: layer.function, also for a method."""
    return f"{name.split('.')[0]}.{name.split('.')[-1]}"


def _resolve(name):
    """(owner, attribute) of a dotted name, or None when it does not exist."""
    layer, *path = name.split(".")
    owner = sys.modules[f"momext.{layer}"]
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, path[-1]):
        return None
    return owner, path[-1]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, instance]
        self.counts = Counter()
        self.instance = None
        self._stack = []
        self._restore = []  # (namespace object, attribute, original)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.instance]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, out)
            return out

        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "momext" or k.startswith("momext."))]
        for name in traced_names():
            owner, attr = _resolve(name)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name(name), original)
            if inspect.isclass(owner):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, inst in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[idx]):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Per traced name: calls, self seconds and inclusive seconds."""
    calls, self_s, incl_s = Counter(), Counter(), Counter()
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
        incl_s[span[0]] += span[2] - span[1]
    return calls, self_s, incl_s
