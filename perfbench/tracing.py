"""In-memory tracing of calls into the package's layers, from outside it.

`install` swaps each traced function for a wrapper in every package module
that binds it (the defining module, the importing modules and the package
namespace) and returns a callable that restores the originals.  Nothing in
the package changes on disk, and an untraced run never installs anything.

A wrapper records a span: name, start, end, parent span and input id.  Leaf
functions that run thousands of times per input (form_distance,
canonicalize, synthesize) are rolled up per parent span into a call count
and a total time, which keeps memory bounded and still gives self time.
A call to a function already open on the stack (the recursion inside
serialization.dumps) runs unrecorded inside the outer span.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time

_clock = time.perf_counter


def _find_roots_done(counters, args, result):
    poly = args[0]
    counters["factorization.sought"] += poly.degree
    counters["factorization.certified"] += sum(mult for _, mult in result)


def _find_roots_failed(counters, args, exc):
    counters["factorization.failures"] += 1
    counters["factorization.sought"] += args[0].degree
    counters["factorization.certified"] += sum(mult for _, mult in getattr(exc, "partial", ()))


def _factorization_failed(counters, args, exc):
    counters["factorization.failures"] += 1


def _enumerated(counters, args, result):
    counters["enumeration.classes_enumerated"] += result.total_enumerated
    counters["enumeration.classes_kept"] += len(result)
    counters["enumeration.near_collisions"] += result.near_collisions


def _reported(counters, args, result):
    counters["criteria.reports"] += 1
    counters["criteria.violations"] += len(result.violations)
    counters["criteria.borderline"] += int(bool(result.borderline))


def _dumped(counters, args, result):
    counters["serialization.bytes_out"] += len(result.encode("utf-8"))


# (module, function, leaf, modules to patch or None for all, on success, on error)
TARGETS = (
    ("signals", "form_distance", True, None, None, None),
    ("signals", "canonicalize", True, None, None, None),
    ("signals", "autocorrelation", False, None, None, None),
    ("signals", "acf_from_intensity_samples", False, None, None, None),
    ("factorization", "associated_polynomial", False, None, None, _factorization_failed),
    ("factorization", "find_roots", False, None, _find_roots_done, _find_roots_failed),
    # only the binding in cli: the second root-finding pass of `analyze`
    ("factorization", "cluster_roots", False, ("cli",), None, None),
    ("factorization", "pair_roots", False, None, None, _factorization_failed),
    ("factorization", "pairs_from_zeros", False, None, None, None),
    ("enumeration", "enumerate_solutions", False, None, _enumerated, None),
    ("enumeration", "synthesize", True, None, None, None),
    ("enumeration", "filter_by_constraints", False, None, None, None),
    ("enumeration", "recover", False, None, None, None),
    ("criteria", "check_magnitude_uniqueness", False, None, _reported, None),
    ("criteria", "check_all_moduli_uniqueness", False, None, _reported, None),
    ("criteria", "check_phase_uniqueness_endpoint", False, None, _reported, None),
    ("criteria", "check_phase_uniqueness_two_points", False, None, _reported, None),
    ("counterexamples", "magnitude_counterexample", False, None, None, None),
    ("counterexamples", "phase_counterexample", False, None, None, None),
    ("counterexamples", "verify_counterexample", False, None, None, None),
    ("serialization", "dumps", False, None, _dumped, None),
    ("cli", "main", False, None, None, None),
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, input_id, raised]
        self.rollups = {}        # (parent, name) -> [calls, seconds]
        self.counters = collections.Counter()
        self.stack = []
        self.open_names = set()
        self.input_id = None
        self.active = True

    def wrap(self, name, fn, leaf, on_done, on_error):
        tracer = self

        if leaf:
            @functools.wraps(fn)
            def traced_leaf(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    key = (tracer.stack[-1] if tracer.stack else -1, name)
                    entry = tracer.rollups.get(key)
                    if entry is None:
                        entry = tracer.rollups[key] = [0, 0.0]
                    entry[0] += 1
                    entry[1] += _clock() - start
            return traced_leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or name in tracer.open_names:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, _clock(), None, tracer.stack[-1] if tracer.stack else -1,
                    tracer.input_id, False]
            tracer.spans.append(span)
            tracer.stack.append(index)
            tracer.open_names.add(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = True
                if on_error is not None:
                    on_error(tracer.counters, args, exc)
                raise
            finally:
                span[2] = _clock()
                tracer.stack.pop()
                tracer.open_names.discard(name)
            if on_done is not None:
                on_done(tracer.counters, args, result)
            return result
        return traced

    def wrap_masks(self, fn):
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def masks(family):
            for mask in fn(family):
                if tracer.active:
                    counters["criteria.masks"] += 1
                yield mask
        return masks

    def dump(self, path):
        """Write spans and roll-ups as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, input_id, raised in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "input": input_id,
                                         "raised": raised}) + "\n")
            for (parent, name), (calls, seconds) in self.rollups.items():
                handle.write(json.dumps({"name": name, "parent": parent, "calls": calls,
                                         "seconds": seconds}) + "\n")


def _package_modules(pt):
    prefix = pt.__name__ + "."
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == pt.__name__ or key.startswith(prefix))]


def install(pt, tracer):
    """Wrap every traced binding in the package; returns the restore callable."""
    modules = _package_modules(pt)
    patches = []
    for module_name, attr, leaf, only, on_done, on_error in TARGETS:
        original = getattr(getattr(pt, module_name), attr)
        wrapper = tracer.wrap(f"{module_name}.{attr}", original, leaf, on_done, on_error)
        scopes = ([getattr(pt, m) for m in only] if only else modules)
        for scope in scopes:
            for key, value in list(vars(scope).items()):
                if value is original:
                    patches.append((scope, key, value))
                    setattr(scope, key, wrapper)
    family = pt.criteria.SubsetFamily
    patches.append((family, "masks", family.masks))
    family.masks = tracer.wrap_masks(family.masks)

    def restore():
        for scope, key, value in reversed(patches):
            setattr(scope, key, value)
    return restore


LAYER_METRICS = (
    ("signals.form_distance.calls", "count", "lower"),
    ("signals.form_distance.s", "s", "lower"),
    ("signals.canonicalize.calls", "count", "lower"),
    ("signals.canonicalize.s", "s", "lower"),
    ("signals.autocorrelation.s", "s", "lower"),
    ("signals.acf_from_intensity_samples.s", "s", "lower"),
    ("factorization.find_roots.calls", "count", "lower"),
    ("factorization.find_roots.s", "s", "lower"),
    ("factorization.cluster_roots.s", "s", "lower"),
    ("factorization.pair_roots.s", "s", "lower"),
    ("factorization.pairs_from_zeros.s", "s", "lower"),
    ("factorization.failures", "count", "lower"),
    ("factorization.certified_ratio", "ratio", "higher"),
    ("factorization.max_zero_err", "ratio", "lower"),
    ("enumeration.enumerate_solutions.calls", "count", "lower"),
    ("enumeration.enumerate_solutions.s", "s", "lower"),
    ("enumeration.synthesize.calls", "count", "lower"),
    ("enumeration.synthesize.s", "s", "lower"),
    ("enumeration.filter_by_constraints.s", "s", "lower"),
    ("enumeration.recover.s", "s", "lower"),
    ("enumeration.classes_enumerated", "count", "lower"),
    ("enumeration.classes_kept", "count", "higher"),
    ("enumeration.kept_ratio", "ratio", "higher"),
    ("enumeration.near_collisions", "count", "lower"),
    ("criteria.check_magnitude_uniqueness.s", "s", "lower"),
    ("criteria.check_all_moduli_uniqueness.s", "s", "lower"),
    ("criteria.check_phase_uniqueness_endpoint.s", "s", "lower"),
    ("criteria.check_phase_uniqueness_two_points.s", "s", "lower"),
    ("criteria.reports", "count", "higher"),
    ("criteria.masks", "count", "lower"),
    ("criteria.violations", "count", "lower"),
    ("criteria.borderline", "count", "lower"),
    ("counterexamples.magnitude_counterexample.s", "s", "lower"),
    ("counterexamples.phase_counterexample.s", "s", "lower"),
    ("counterexamples.verify_counterexample.s", "s", "lower"),
    ("serialization.dumps.s", "s", "lower"),
    ("serialization.bytes_out", "bytes", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.items", "count", "higher"),
    ("trace.item_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metrics(tracer, traced_s, untraced_s, items, max_zero_err):
    """Per-layer metrics of one traced pass, keyed as in LAYER_METRICS."""
    calls = collections.Counter()
    seconds = collections.Counter()
    children = collections.Counter()
    for name, start, end, parent, _, _ in tracer.spans:
        calls[name] += 1
        seconds[name] += end - start
        children[parent] += end - start
    for (parent, name), (count, total) in tracer.rollups.items():
        calls[name] += count
        seconds[name] += total
        children[parent] += total
    cli_self = sum(end - start - children[index]
                   for index, (name, start, end, *_rest) in enumerate(tracer.spans)
                   if name == "cli.main")
    c = tracer.counters
    values = {"factorization.failures": c["factorization.failures"],
              "factorization.certified_ratio": (c["factorization.certified"] / c["factorization.sought"]
                                                if c["factorization.sought"] else 0.0),
              "factorization.max_zero_err": max_zero_err,
              "enumeration.classes_enumerated": c["enumeration.classes_enumerated"],
              "enumeration.classes_kept": c["enumeration.classes_kept"],
              "enumeration.kept_ratio": (c["enumeration.classes_kept"] / c["enumeration.classes_enumerated"]
                                         if c["enumeration.classes_enumerated"] else 0.0),
              "enumeration.near_collisions": c["enumeration.near_collisions"],
              "criteria.reports": c["criteria.reports"],
              "criteria.masks": c["criteria.masks"],
              "criteria.violations": c["criteria.violations"],
              "criteria.borderline": c["criteria.borderline"],
              "serialization.bytes_out": c["serialization.bytes_out"],
              "cli.self_s": cli_self,
              "trace.items": items,
              "trace.item_s": traced_s,
              "trace.overhead_ratio": traced_s / untraced_s if untraced_s else 0.0}
    out = {}
    for metric, unit, _ in LAYER_METRICS:
        if metric in values:
            value = values[metric]
        elif metric.endswith(".calls"):
            value = calls[metric[: -len(".calls")]]
        else:
            value = seconds[metric[: -len(".s")]]
        out[metric] = {"value": value, "unit": unit}
    return out
