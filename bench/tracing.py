"""Spans around planch's public names, kept in memory, and the per-layer
metrics computed from them.

``Tracer.install`` replaces each traced function or method by a wrapper
wherever planch binds it (``planch.limitcheck.gamma_parts`` as well as
``planch.wdrep.gamma_parts``), and ``uninstall`` puts the originals back, so
untraced operations run the program untouched.  A span is (name, start, end,
parent span, operation, info); a layer's self time is its span minus the
part covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (owner, attribute, span name); the owner is a module or a class in it
TARGETS = (
    ("planch.limitcheck:ComponentModel", "__init__", "limitcheck.model_build"),
    ("planch.limitcheck:FactorProgram", "compile", "limitcheck.compile"),
    ("planch.limitcheck", "check_weyl_invariance", "limitcheck.weyl_check"),
    ("planch.limitcheck:FactorProgram", "eval", "limitcheck.eval"),
    ("planch.limitcheck:ConstantPhi", "values", "limitcheck.phi"),
    ("planch.limitcheck:TrigPhi", "values", "limitcheck.phi"),
    ("planch.limitcheck:GaussianPhi", "values", "limitcheck.phi"),
    ("planch.limitcheck:ComponentModel", "lhs_mean", "limitcheck.lhs_mean"),
    ("planch.limitcheck:ComponentModel", "lhs_grid_size",
     "limitcheck.lhs_grid_size"),
    ("planch.limitcheck:ComponentModel", "lhs_integrand",
     "limitcheck.lhs_integrand"),
    ("planch.limitcheck", "richardson", "limitcheck.richardson"),
    ("planch.limitcheck:ComponentModel", "rhs_value", "limitcheck.rhs"),
    ("planch.wdrep", "gamma_parts", "wdrep.gamma_parts"),
    ("planch.wdrep:WDRep", "gamma_factor", "wdrep.gamma_factor"),
    ("planch.wdrep:WDRep", "sym2", "wdrep.plethysm"),
    ("planch.wdrep:WDRep", "wedge2", "wdrep.plethysm"),
    ("planch.wdrep:WDRep", "ad_over_center", "wdrep.plethysm"),
    ("planch.wdrep", "sym2_atoms", "wdrep.plethysm"),
    ("planch.wdrep", "wedge2_atoms", "wdrep.plethysm"),
    ("planch.wdrep", "ad_atoms", "wdrep.plethysm"),
    ("planch.spectral:SpectralFunction", "evaluate", "spectral.evaluate"),
    ("planch.spectral:SpectralFunction", "regularized_value",
     "spectral.regularized_value"),
    ("planch.spectral:SpectralFunction", "limit_with_power",
     "spectral.limit_with_power"),
    ("planch.tempered", "appendix_constants", "tempered.appendix_constants"),
    ("planch.field", "square_class", "field.square_class"),
    ("planch.forms", "mat_mul", "forms.mat_mul"),
    ("planch.forms", "det", "forms.det"),
    ("planch.forms", "inverse", "forms.inverse"),
    ("planch.forms:OddSOEmbedding", "is_in_group", "forms.is_in_group"),
    ("planch.forms", "bruhat_factor", "forms.bruhat_factor"),
    ("planch.forms", "classify_sharp", "forms.classify"),
    ("planch.forms", "char_poly_twisted", "forms.charpoly"),
    ("planch.forms", "charpoly", "forms.charpoly"),
)

# span name -> metric prefix, for the layers reported as self time and calls
LAYERS = {
    "limitcheck.model_build": "limitcheck.model_build",
    "limitcheck.compile": "limitcheck.compile",
    "limitcheck.weyl_check": "limitcheck.weyl_check",
    "limitcheck.phi": "limitcheck.phi",
    "limitcheck.lhs_integrand": "limitcheck.integrand_self",
    "limitcheck.richardson": "limitcheck.richardson",
    "limitcheck.rhs": "limitcheck.rhs",
    "wdrep.gamma_parts": "wdrep.gamma_parts",
    "wdrep.gamma_factor": "wdrep.gamma_factor",
    "wdrep.plethysm": "wdrep.plethysm",
    "spectral.evaluate": "spectral.evaluate",
    "spectral.regularized_value": "spectral.regularized_value",
    "spectral.limit_with_power": "spectral.limit_with_power",
    "tempered.appendix_constants": "tempered.appendix_constants",
    "field.square_class": "field.square_class",
    "forms.mat_mul": "forms.mat_mul",
    "forms.det": "forms.det",
    "forms.inverse": "forms.inverse",
    "forms.is_in_group": "forms.is_in_group",
    "forms.bruhat_factor": "forms.bruhat_factor",
    "forms.classify": "forms.classify",
    "forms.charpoly": "forms.charpoly",
}
PROGRAMS = ("sym2", "ad", "wedge2")


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent, op, info]
        self.ops = []        # kind of each traced operation
        self._stack = []
        self._sites = None
        self._programs = {}  # id(FactorProgram) -> "sym2" | "ad" | "wedge2"

    # -- recording -------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           len(self.ops) - 1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, kind, call):
        """Call one operation inside a root span of its own."""
        self.ops.append(kind)
        idx = self._open("op")
        try:
            return call()
        finally:
            self._close(idx)

    def _info(self, name, args, result):
        if name == "limitcheck.eval":
            prog, t = args[0], args[1]
            nodes = t.shape[1] if prog.nfree else 1
            return (self._programs.get(id(prog), "other"),
                    nodes * len(prog.factors))
        if name == "limitcheck.lhs_integrand":
            return args[2].shape[1]
        if name == "limitcheck.lhs_grid_size":
            return result[0] ** args[0].R_lhs
        if name == "limitcheck.model_build":
            model = args[0]
            for prog, label in zip((model.sym2_lhs, model.ad_lhs,
                                    model.wedge2_rhs), PROGRAMS):
                self._programs[id(prog)] = label
        return None

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            # after the span has ended, so that reading the info costs nothing
            tracer.spans[idx][5] = tracer._info(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------------

    def _patch_sites(self) -> list:
        """(object, attribute, original, wrapper) for every place planch
        binds a traced name; found once, while the originals are in place."""
        mods = [m for k, m in list(sys.modules.items())
                if k == "planch" or k.startswith("planch.")]
        sites = []
        for owner, attr, name in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            mod = importlib.import_module(mod_name)
            if cls_name:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                sites.append((cls, attr, raw, new))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(fn, name)
            sites += [(m, key, fn, wrapper) for m in mods
                      for key, val in vars(m).items() if val is fn]
        return sites

    def install(self):
        if self._sites is None:
            self._sites = self._patch_sites()
        for obj, attr, _, new in self._sites:
            setattr(obj, attr, new)

    def uninstall(self):
        for obj, attr, old, _ in self._sites:
            setattr(obj, attr, old)

    # -- output ----------------------------------------------------------------

    def write(self, path, meta: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        doc = dict(meta, names=names, ops=self.ops,
                   fields=["name", "start_ns", "end_ns", "parent", "op"],
                   spans=[[index[s[0]], s[1] - t0, s[2] - t0, s[3], s[4]]
                          for s in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans) -> list:
    covered = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def node_totals(spans) -> tuple[int, int]:
    """(nodes passed to lhs_integrand, fine-grid nodes from lhs_grid_size),
    summed over the traced calls."""
    integrand = sum(s[5] for s in spans if s[0] == "limitcheck.lhs_integrand")
    fine = sum(s[5] for s in spans if s[0] == "limitcheck.lhs_grid_size")
    return integrand, fine


def layer_metrics(tracer: Tracer, rounds: float) -> dict:
    """Per-layer metrics per round's worth of traced operations (the run
    traced ``rounds`` of them): self seconds and call counts of each layer,
    plus the quadrature kernel's counts and rates."""
    spans = tracer.spans
    selfs = self_times(spans)
    sec = defaultdict(float)
    calls = defaultdict(int)
    for s, st in zip(spans, selfs):
        sec[s[0]] += st * 1e-9
        calls[s[0]] += 1
    out = {}
    for name, prefix in LAYERS.items():
        out[prefix + "_s"] = sec[name] / rounds
        out[prefix + "_calls"] = calls[name] / rounds
    out["limitcheck.model_builds"] = out.pop("limitcheck.model_build_calls")
    out["limitcheck.grid_self_s"] = (sec["limitcheck.lhs_mean"]
                                     + sec["limitcheck.lhs_grid_size"]) / rounds
    eval_s = defaultdict(float)
    factor_nodes = 0
    for s, st in zip(spans, selfs):
        if s[0] == "limitcheck.eval":
            eval_s[s[5][0]] += st * 1e-9
            factor_nodes += s[5][1]
    for prog in PROGRAMS:
        out[f"limitcheck.eval_{prog}_s"] = eval_s[prog] / rounds
    out["limitcheck.eval_calls"] = calls["limitcheck.eval"] / rounds
    out["limitcheck.factor_node_evals"] = factor_nodes / rounds
    out["limitcheck.eval_ns_per_factor_node"] = (
        sum(eval_s.values()) * 1e9 / factor_nodes if factor_nodes else 0.0)
    integrand, fine = node_totals(spans)
    out["limitcheck.integrand_nodes"] = integrand / rounds
    # the self-consistency grid is what lhs_mean evaluates beyond its fine grid
    has_grid = {s[3] for s in spans if s[0] == "limitcheck.lhs_grid_size"}
    coarse = sum(s[5] for s in spans if s[0] == "limitcheck.lhs_integrand"
                 and s[3] in has_grid) - fine
    out["limitcheck.coarse_nodes"] = coarse / rounds
    so_ops = {i for i, kind in enumerate(tracer.ops) if kind == "so-round-trip"}
    in_so = sum(1 for s in spans
                if s[0] == "forms.is_in_group" and s[4] in so_ops)
    out["forms.is_in_group_per_element"] = in_so / len(so_ops) if so_ops else 0.0
    out["trace.spans"] = len(spans) / rounds
    return out
