"""Per-layer spans and counters, installed from outside the library.

Wrappers go on the public functions and methods of the five modules, at
every binding of each: a name imported into another module is rebound
there, functions held in module-level dicts and tuples (cli.COMMANDS,
cli.ACCEPTANCE_CHECKS, charring.NAMED_BRANCHINGS) are replaced in place,
and methods are wrapped on their class.  Calls of charring, geometry,
duality and cli functions record a span (name, start, end, parent); the
rootsystem methods are timed for self time without a span record, and the
hot kernels `reflect` and `dominant_rep` are only counted.

A layer's self time is the time its calls spend outside wrapped calls of
any layer.  Spans stay in memory, up to SPAN_CAP, and are written out once
at the end of the run.
"""

import json
import types
from time import perf_counter

LAYERS = ("rootsystem", "charring", "geometry", "duality", "cli")
COUNT_ONLY = {"RootSystem.reflect", "RootSystem.dominant_rep"}
EXTRA_METHODS = ("__init__", "__mul__", "__add__", "__sub__")
SPAN_CAP = 200_000


# work counters read off a call's arguments or result
SIZES = {
    "RootSystem.weyl_orbit": ("rootsystem.orbit_weights",
                              lambda args, result: len(result)),
    "FormalCharacter.__mul__": ("charring.mul_pairs",
                                lambda args, result: len(args[0].weights)
                                * len(args[1].weights)),
    "symmetric_power": ("charring.power_weights",
                        lambda args, result: len(result)),
    "exterior_power": ("charring.power_weights",
                       lambda args, result: len(result)),
    "decompose": ("charring.decompose_irreps",
                  lambda args, result: len(result)),
    "apartment_objects": ("geometry.apartment_objects",
                          lambda args, result: len(result)),
}


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = {}
        self.sizes = {}
        self.spans = []
        self.dropped = 0
        self._stack = []

    # -- wrappers ----------------------------------------------------------

    def _counted(self, qual, fn):
        calls = self.calls
        calls.setdefault(qual, 0)

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, layer, qual, fn):
        calls, stack, spans = self.calls, self._stack, self.spans
        self_s, sizes = self.self_s, self.sizes
        calls.setdefault(qual, 0)
        record = layer != "rootsystem"
        size_key, size_of = SIZES.get(qual, (None, None))

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            idx = -1
            if record:
                if len(spans) < SPAN_CAP:
                    idx = len(spans)
                    spans.append(None)
                else:
                    self.dropped += 1
            frame = [0.0, idx]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    spans[idx] = (qual, t0, t1, parent)
            if size_key:
                sizes[size_key] = sizes.get(size_key, 0) + size_of(args,
                                                                   result)
            return result
        return wrapper

    def _wrap(self, layer, qual, fn):
        if qual in COUNT_ONLY:
            return self._counted(qual, fn)
        return self._timed(layer, qual, fn)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the five modules' public callables at every binding."""
        import weylgeom
        from weylgeom import charring, cli, duality, geometry, rootsystem
        modules = {"rootsystem": rootsystem, "charring": charring,
                   "geometry": geometry, "duality": duality, "cli": cli}
        replace = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) \
                        and not name.startswith("_"):
                    replace[id(obj)] = self._wrap(layer, name, obj)
                elif isinstance(obj, type) \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for mod in list(modules.values()) + [weylgeom]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, name, replace[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in replace:
                            obj[k] = replace[id(v)]
                elif isinstance(obj, tuple) and obj \
                        and all(isinstance(x, tuple) for x in obj):
                    setattr(mod, name, tuple(
                        tuple(replace.get(id(v), v) for v in row)
                        for row in obj))

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in EXTRA_METHODS:
                continue
            qual = "%s.%s" % (cls.__name__, name)
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(layer, qual, attr))
            elif isinstance(attr, staticmethod):
                setattr(cls, name,
                        staticmethod(self._wrap(layer, qual, attr.__func__)))
            elif isinstance(attr, classmethod):
                setattr(cls, name,
                        classmethod(self._wrap(layer, qual, attr.__func__)))

    # -- results -----------------------------------------------------------

    def counters(self):
        """Per-layer counts, keyed by the benchmark's metric names."""
        c = self.calls.get
        dom_calls = c("dominant_character", 0)
        tables = c("dominant_weights_below", 0)
        out = {
            "rootsystem.simple_coords_calls": sum(
                c("RootSystem." + m, 0) for m in
                ("simple_coords", "simple_coords_int", "norm2",
                 "norm2_shift_diff")),
            "rootsystem.reflect_calls": c("RootSystem.reflect", 0),
            "rootsystem.dominant_rep_calls": c("RootSystem.dominant_rep", 0),
            "charring.dominant_character_calls": dom_calls,
            "charring.tables_computed": tables,
            "geometry.depth_calls": c("Geometry.depth", 0),
            "geometry.delta_spaces": c("DeltaSpace.__init__", 0),
            "geometry.incidence_queries": c("incidence", 0),
            "duality.psi_support_calls": c("E6Duality.psi_support", 0)
            + c("Triality.psi", 0),
        }
        for key, _ in SIZES.values():
            out[key] = self.sizes.get(key, 0)
        return out

    def dump(self):
        """Everything a parent process needs to merge this tracer."""
        return {"self_s": self.self_s, "counters": self.counters(),
                "spans": len(self.spans), "dropped": self.dropped}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is not None:
                    name, t0, t1, parent = span
                    fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                         "end": t1, "parent": parent})
                             + "\n")
