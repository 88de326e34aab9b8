"""Spans around the public functions of every starcheck module.

The tracer replaces each public function of a layer module with a wrapper
in every ``starcheck`` namespace that holds it (``starcheck.relations.star``
and ``starcheck.checkers.star`` alike), so calls between modules and calls
within one module are both seen.  A span is its function, start, end,
parent span, the input it belongs to, and whether it raised.  Spans stay in
compact arrays in memory and are written out once, when the process ends;
``summarize`` turns them into per-layer metrics.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import time
from pathlib import Path

LAYERS = ("algebra", "contexts", "relations", "checkers", "terms", "cli")

# Metric groups: <group>_s is the time inside the outermost span of any of
# its functions, <group>_calls the number of such outermost spans.
GROUPS = {
    "algebra.parse": ("algebra.parse_algebra",),
    "algebra.direct_power": ("algebra.direct_power",),
    "algebra.closure": ("algebra.subalgebra_closure",),
    "algebra.congruences": ("algebra.all_congruences",),
    "contexts.validate": ("contexts.validate_context",),
    "contexts.kernel": ("contexts.n_kernel",),
    "relations.star": ("relations.star",),
    "relations.compose": ("relations.compose",),
    "relations.pullback": ("relations.star_via_pullback",),
    "relations.inverse_image": ("relations.inverse_image",),
    "checkers.enumerate": ("checkers.enumerate_reflexive_compatible",),
    "checkers.symmetry": ("checkers.is_left_star_symmetric", "checkers.is_star_symmetric"),
    "checkers.permutes": ("checkers.check_star_permutes",),
    "checkers.sigma": ("checkers.graph_left_star_symmetric",),
    "terms.search": ("terms.find_e_subtractive_terms", "terms.find_maltsev_term"),
    "terms.free_model": ("terms.free_term_operations",),
    "terms.verify": ("terms.verify_term_identities",),
}


# Work counts read off the values public functions return.
WORK_COUNTS = {
    "checkers.enumerate_reflexive_compatible":
        lambda r: [("checkers.relations_enumerated", len(r.relations))],
    "checkers.graph_left_star_symmetric": lambda r: [("checkers.sigma_nodes", r.nodes)],
    "algebra.all_congruences": lambda r: [("algebra.congruences_found", len(r))],
    "terms.find_e_subtractive_terms":
        lambda r: [("terms.clone_elements", r.clone_size), ("terms.witnesses", len(r.terms))],
    "terms.find_maltsev_term":
        lambda r: [("terms.clone_elements", r.clone_size),
                   ("terms.witnesses", int(r.term is not None))],
    "terms.free_term_operations": lambda r: [("terms.free_model_elements", len(r))],
    "cli.main": lambda r: [("cli.commands", 1)],
}

COUNT_METRICS = (
    "checkers.relations_enumerated",
    "checkers.sigma_nodes",
    "algebra.congruences_found",
    "terms.clone_elements",
    "terms.witnesses",
    "terms.free_model_elements",
    "cli.commands",
)


def starcheck_caches() -> list:
    """The memoized functions of every starcheck module.  Clearing them
    before a call gives it the cold caches a fresh process has."""
    caches = []
    for layer in LAYERS:
        module = importlib.import_module(f"starcheck.{layer}")
        caches += [obj for obj in vars(module).values() if hasattr(obj, "cache_clear")]
    return caches


class Tracer:
    def __init__(self, ignored: type[BaseException] | tuple = ()):
        self.ignored = ignored  # the benchmark's time limit, not a program error
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.fn = array.array("i")
        self.parent = array.array("i")
        self.input = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.error = array.array("b")
        self.counts: list[tuple[int, str, int]] = []  # (input, metric, value)
        self.current_input = -1
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every public function of every layer module, in every
        starcheck namespace that holds it."""
        import starcheck

        modules = [starcheck] + [
            importlib.import_module(f"starcheck.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"starcheck.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                target = inspect.unwrap(obj)
                if inspect.isfunction(target) and target.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and not attr.startswith("_"):
                    setattr(module, attr, wrappers[id(obj)])

    def _wrap(self, fn, name: str):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        fns, parents, inputs = self.fn, self.parent, self.input
        starts, ends, errors = self.start, self.end, self.error
        stack, counts, tracer = self._stack, self.counts, self
        ignored, clock = self.ignored, time.perf_counter
        work_counts = WORK_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(fns)
            fns.append(nid)
            parents.append(stack[-1])
            inputs.append(tracer.current_input)
            errors.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except ignored:
                raise
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if work_counts is not None:
                for metric, value in work_counts(result):
                    counts.append((tracer.current_input, metric, value))
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the raw spans: a JSON header line, then the six arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.fn), "counts": self.counts}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fn, self.parent, self.input, self.start, self.end, self.error):
                arr.tofile(fh)

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics over every span.  A span's self time is its
        duration minus the time its child spans cover."""
        n, nf = len(self.fn), len(self.names)
        fns, parents, starts, ends, errors = self.fn, self.parent, self.start, self.end, self.error
        child_time = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        group_of = [None] * nf
        for group, members in GROUPS.items():
            for member in members:
                if member in self.name_ids:
                    group_of[self.name_ids[member]] = group
        calls, errs, self_s = [0] * nf, [0] * nf, [0.0] * nf
        outer_s, outer_calls = [0.0] * nf, [0] * nf
        # the groups open around each span; equal sets are shared
        empty: frozenset = frozenset()
        open_groups: list[frozenset] = [empty] * n
        extend: dict[tuple[int, str], frozenset] = {}
        for i in range(n):
            f, p = fns[i], parents[i]
            above = open_groups[p] if p >= 0 else empty
            duration = ends[i] - starts[i]
            calls[f] += 1
            errs[f] += errors[i]
            self_s[f] += duration - child_time[i]
            group = group_of[f]
            if group is None:
                open_groups[i] = above
                continue
            key = (id(above), group)
            if key not in extend:
                extend[key] = above | {group}
            open_groups[i] = extend[key]
            if group not in above:
                outer_s[f] += duration
                outer_calls[f] += 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = out[f"{layer}.errors"] = 0
            out[f"{layer}.self_s"] = 0.0
        for group in GROUPS:
            out[f"{group}_s"] = 0.0
            out[f"{group}_calls"] = 0
        for f, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[f"{layer}.calls"] += calls[f]
            out[f"{layer}.errors"] += errs[f]
            out[f"{layer}.self_s"] += self_s[f]
            if group_of[f] is not None:
                out[f"{group_of[f]}_s"] += outer_s[f]
                out[f"{group_of[f]}_calls"] += outer_calls[f]
        for metric in COUNT_METRICS:
            out[metric] = 0
        for _, metric, value in self.counts:
            out[metric] += value
        return out


def merge(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Sum per-process summaries (every metric is additive)."""
    total: dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            total[key] = total.get(key, 0) + value
    return total
