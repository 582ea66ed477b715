"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces each entry point of `ENTRY_POINTS` by a wrapper
that opens a span around the call. Module-level functions are replaced in
every `ditalg` module that binds them (a `from .modcat import iso_test` in
`pipeline` is a separate binding), methods on their class. A span's self time
is its duration minus the time its child spans cover. Spans are aggregated
in memory per name: calls, self time, inclusive time.

Besides the entry points the tracer records the pipeline phases of
`classify` and a few counters (repeated inputs, referee candidates, iso
answers) that the workloads' caching claims rest on.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, owner, attribute); owner is a class of that layer's module,
# "" for a module-level function.
ENTRY_POINTS = [
    ("scalars.linalg", "", "rref"),
    ("scalars.linalg", "", "kernel_basis"),
    ("scalars.linalg", "", "solve"),
    ("scalars.linalg", "", "mul"),
    ("scalars.linalg", "", "inverse"),
    ("scalars.poly", "", "factor"),
    ("tensor", "Elem", "__mul__"),
    ("tensor", "Differential", "apply"),
    ("interlace", "", "certify"),
    ("modcat", "", "hom"),
    ("modcat", "", "hom_dim"),
    ("modcat", "", "compose"),
    ("modcat", "", "is_isomorphism"),
    ("modcat", "EndAlgebra", "__init__"),
    ("modcat", "", "algebra_radical"),
    ("modcat", "", "decompose"),
    ("modcat", "", "is_indecomposable"),
    ("modcat", "", "iso_test"),
    ("modcat", "", "split_idempotent"),
    ("modcat", "Rep", "validate"),
    ("reduce", "", "regularize"),
    ("reduce", "", "factor_out"),
    ("reduce", "", "absorb"),
    ("reduce", "", "delete_idempotents"),
    ("reduce", "", "detach_source"),
    ("reduce", "", "change_solid_basis"),
    ("reduce", "", "induced_reduction"),
    ("admissible", "", "build_admissible"),
    ("admissible", "", "reduce_admissible"),
    ("bimodule", "", "push_generic"),
    ("presentation", "", "load_presentation"),
    ("presentation", "", "save_report"),
]

# span names: "<layer>.<Class.>attr", with "__mul__"/"__init__" spelled out
_DISPLAY = {"__mul__": "mul", "__init__": ""}

APPLY_REP = "reduce.apply_rep"
PHASES = ("pipeline.classify", "pipeline.reduce_to_minimal",
          "pipeline.brute_force_indecomposables")


def span_name(layer: str, owner: str, attr: str) -> str:
    parts = [layer]
    if owner:
        parts.append(owner)
    shown = _DISPLAY.get(attr, attr)
    if shown:
        parts.append(shown)
    return ".".join(parts)


def entry_names():
    return [span_name(*e) for e in ENTRY_POINTS] + [APPLY_REP]


def module_key(M) -> tuple:
    """A module's identity for the repeated-input counters: presentation
    name, dims and exact matrices."""
    return (M.dit.name,
            tuple(sorted(M.dims.items())),
            tuple((k, tuple(map(tuple, m.data))) for k, m in sorted(M.arrow_ops.items())),
            tuple((k, tuple(map(tuple, m.data))) for k, m in sorted(M.point_ops.items())))


class Tracer:
    def __init__(self):
        self.stats = {}          # name -> [calls, self_s, incl_s]
        self.counters = {}
        self._stack = []         # [name, start, child_s]
        self._seen = {"decompose": set(), "EndAlgebra": set()}
        self._referee_depth = 0
        self._referee_start = None
        self.mat_inits = 0
        self.missing = []        # entry points the package no longer has

    # -- spans -----------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur - child
        st[2] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- counters attached to entry points ---------------------------------------

    def _repeat(self, kind, M):
        key = module_key(M)
        seen = self._seen[kind]
        self.count(f"{kind}.inputs")
        if key in seen:
            self.count(f"{kind}.repeats")
        else:
            seen.add(key)

    def _hooks(self, name):
        if name == "modcat.decompose":
            return (lambda a: self._repeat("decompose", a[1])), None
        if name == "modcat.EndAlgebra":
            return (lambda a: self._repeat("EndAlgebra", a[2])), None
        if name == "modcat.iso_test":
            return None, (lambda a, out: self.count("iso_test.true", bool(out)))
        if name == "modcat.Rep.validate":
            def after(a, out):
                if self._referee_depth:
                    self.count("referee.candidates")
                    self.count("referee.valid", out is None)
            return None, after
        return None, None

    # -- installation ------------------------------------------------------------

    def install(self):
        from ditalg.scalars import linalg
        from ditalg import reduce as reduce_mod

        mods = [m for n, m in sorted(sys.modules.items())
                if n == "ditalg" or n.startswith("ditalg.")]
        for layer, owner, attr in ENTRY_POINTS:
            mod = sys.modules["ditalg." + layer]
            name = span_name(layer, owner, attr)
            before, after = self._hooks(name)
            cls = getattr(mod, owner, None) if owner else None
            fn = vars(cls).get(attr) if cls is not None else getattr(mod, attr, None)
            if fn is None:
                self.missing.append(name)     # renamed or removed: 0 calls
            elif cls is not None:
                setattr(cls, attr, self.wrap(name, fn, before, after))
            else:
                self._rebind(mods, fn, self.wrap(name, fn, before, after))
        self._install_pipeline(mods)

        # apply_rep is a per-functor closure: wrap it as each functor is made
        rf = reduce_mod.ReductionFunctor
        rf_init = rf.__init__
        tracer = self

        def init(obj, *args, **kwargs):
            rf_init(obj, *args, **kwargs)
            if obj.apply_rep is not None:
                obj.apply_rep = tracer.wrap(APPLY_REP, obj.apply_rep)

        rf.__init__ = init

        # Mat construction is too frequent for a span: count it only
        mat_init = linalg.Mat.__init__

        def counted_init(obj, *args, **kwargs):
            tracer.mat_inits += 1
            mat_init(obj, *args, **kwargs)

        linalg.Mat.__init__ = counted_init

    @staticmethod
    def _rebind(mods, orig, new):
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)

    def _install_pipeline(self, mods):
        pipeline = sys.modules["ditalg.pipeline"]

        def referee_enter(args):
            self._referee_depth += 1
            if self._referee_start is None:
                self._referee_start = time.perf_counter()

        def referee_exit(args, out):
            self._referee_depth -= 1

        def classify_before(args):
            self._referee_start = None

        def classify_after(args, out):
            if self._referee_start is not None:
                self.count("referee_s", time.perf_counter() - self._referee_start)
                self._referee_start = None
            plan = getattr(out, "plan", None)
            if plan is not None:
                self.count("plan_steps", len(plan.steps))
                self.count("classes_listed", len(out.indecomposables))
                self.count("classes_residue", len(out.brute_residue or ()))

        hooks = {"classify": (classify_before, classify_after),
                 "brute_force_indecomposables": (referee_enter, referee_exit)}
        for phase in PHASES:
            attr = phase.split(".", 1)[1]
            before, after = hooks.get(attr, (None, None))
            fn = getattr(pipeline, attr, None)
            if fn is None:
                self.missing.append(phase)
            else:
                self._rebind(mods, fn, self.wrap(phase, fn, before, after))

    # -- results -------------------------------------------------------------------

    def _incl(self, name):
        st = self.stats.get(name)
        return st[2] if st else 0.0

    def metrics(self, active_s: float) -> dict:
        """Per-layer figures; `active_s` is the wall time the tracer covered."""
        out = {}
        for name in entry_names():
            calls, self_s, _ = self.stats.get(name, (0, 0.0, 0.0))
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_s, "s")
        out["scalars.linalg.Mat.init.calls"] = (self.mat_inits, "count")
        c = self.counters
        iso_calls = self.stats.get("modcat.iso_test", (0,))[0]
        out["modcat.iso_test.true_ratio"] = (
            c.get("iso_test.true", 0) / iso_calls if iso_calls else 0.0, "ratio")
        for kind in ("decompose", "EndAlgebra"):
            n = c.get(f"{kind}.inputs", 0)
            out[f"modcat.{kind}.repeat_ratio"] = (
                c.get(f"{kind}.repeats", 0) / n if n else 0.0, "ratio")
        reduce_s = self._incl("pipeline.reduce_to_minimal")
        referee_s = c.get("referee_s", 0.0)
        out["pipeline.reduce_s"] = (reduce_s, "s")
        out["pipeline.referee_s"] = (referee_s, "s")
        out["pipeline.listing_s"] = (
            max(0.0, self._incl("pipeline.classify") - reduce_s - referee_s), "s")
        for key in ("plan_steps", "classes_listed", "classes_residue"):
            out["pipeline." + key] = (c.get(key, 0), "count")
        out["pipeline.referee.candidates"] = (c.get("referee.candidates", 0), "count")
        out["pipeline.referee.valid"] = (c.get("referee.valid", 0), "count")
        out["trace.missing_entry_points"] = (len(self.missing), "count")
        covered = sum(st[1] for st in self.stats.values())
        out["trace.unattributed_s"] = (max(0.0, active_s - covered), "s")
        return out
