"""Span recording around hologroup's layer boundaries, from outside `src/`.

`Tracer.install()` replaces each traced function by a wrapper in every
hologroup module that holds it, because callers bind names with
`from .words import eval_word_batch` and resolve them in their own
namespace. A span records its name, start, end, parent span and the
verdict it belongs to. Spans live in compact arrays until the run ends;
self time is a span's duration minus that of its direct children.

Counters that need no span (objects built, steps applied, `Poly._arrays`
misses) are kept by lighter wrappers.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

import hologroup as hg
from hologroup import _kernels, cli, domains, homotopy, serialize, torus, winding, words

STEP_CLASSES = (words.Overshear, words.Permutation, words.Diagonal, words.Linear,
                words.Inversion)
WORD_PASSES = ("words.eval", "words.masked", "words.jac")
CLI_OPS = ("eval_word", "compose", "invert_word", "jacobian_det", "make_contour",
           "winding_index", "in_negative_component", "certify_path",
           "continuity_modulus", "commutes_with_torus", "extract_diagonal",
           "classify_domain", "word_preserves_domain", "validate_exponent_matrix")


def _count_kernel(tr, args, result):
    exps, coeffs, pts = args
    c = tr.counters
    c["kernel.points"] += pts.shape[0]
    c["kernel.term_points"] += coeffs.shape[0] * pts.shape[0]
    c["kernel.bytes_computed"] += exps.nbytes + coeffs.nbytes + pts.nbytes + result.nbytes


def _count_points(tr, args, result):
    n = len(args[1])
    tr.counters["words.eval_points"] += n
    if tr.parent_name().startswith("torus."):
        tr.counters["torus.points"] += n


def _count_certify_times(tr, args, result):
    tr.counters["homotopy.grid_times"] += args[1]


def _count_continuity_times(tr, args, result):
    tr.counters["homotopy.grid_times"] += int(np.floor(1.0 / args[1] + 1e-9)) + 1


def _count_samples(tr, args, result):
    tr.counters["winding.samples"] += result.samples_used


# (module, attribute, span name, counter hook)
SPANS = (
    (_kernels, "poly_eval", "kernel", _count_kernel),
    (hg.Poly, "eval_batch", "poly.eval", None),
    (words, "eval_word_batch", "words.eval", _count_points),
    (words, "eval_word_batch_masked", "words.masked", _count_points),
    (words, "jacobian_det_batch", "words.jac", _count_points),
    (words, "invert_word", "words.invert", None),
    (homotopy, "certify_path", "homotopy.certify", _count_certify_times),
    (homotopy, "continuity_modulus", "homotopy.continuity", _count_continuity_times),
    (winding, "winding_index", "winding.index", _count_samples),
    (torus, "commutes_with_torus", "torus.centralizer", None),
    (torus, "extract_diagonal", "torus.extract", None),
    (domains, "word_preserves_domain", "domains.preserves", None),
    (serialize, "load_scene", "cli.scene_parse", None),
    (serialize, "dumps", "cli.serialize", None),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.verdict = array("i")
        self.stack = [-1]
        self.current_verdict = -1
        self.counters = Counter()
        self._restore = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def parent_name(self) -> str:
        top = self.stack[-1]
        return self.names[self.name_id[top]] if top >= 0 else ""

    def spanned(self, name: str, fn, hook=None):
        nid = self._id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1])
            self.verdict.append(self.current_verdict)
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_verdict(self, index: int, fn):
        """Run one verdict under a root span named "verdict"."""
        self.current_verdict = index
        try:
            return self.spanned("verdict", fn)()
        finally:
            self.current_verdict = -1

    def _counted(self, key: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name == "hologroup" or name.startswith("hologroup."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def install(self):
        for owner, attr, name, hook in SPANS:
            original = owner.__dict__[attr]
            wrapper = self.spanned(name, original, hook)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        # the operation a CLI call runs, as the cli module resolves it
        for attr in CLI_OPS:
            self._set(cli, attr, self.spanned("cli.op", getattr(cli, attr)))
        for cls in (hg.Poly, words.Word, *STEP_CLASSES):
            key = "poly.built" if cls is hg.Poly else "words.objects_built"
            self._set(cls, "__post_init__", self._counted(key, cls.__dict__["__post_init__"]))
        for cls in STEP_CLASSES:
            for attr in ("apply_batch", "apply_batch_masked"):
                if attr in cls.__dict__:
                    self._set(cls, attr, self._counted("words.steps_applied", cls.__dict__[attr]))
        arrays = hg.Poly.__dict__["_arrays"]
        self._restore.append((arrays, "func", arrays.func))
        arrays.func = self._counted("poly.arrays_misses", arrays.func)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "verdict": np.frombuffer(self.verdict, dtype=np.int32)}

    def save(self, path: str):
        np.savez_compressed(path, **self.arrays())


class SpanTable:
    """Self times and parent/child counts derived from recorded spans."""

    def __init__(self, tr: Tracer):
        a = tr.arrays()
        self.ids = a["name_id"].astype(np.int64)
        self.parent = a["parent"].astype(np.int64)
        self.verdict = a["verdict"]
        self.dur = a["end"] - a["start"]
        self.lookup = tr.name_ids
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                 minlength=len(self.dur))
        self.self_time = self.dur - child_time

    def _mask(self, *names) -> np.ndarray:
        wanted = [self.lookup[n] for n in names if n in self.lookup]
        return np.isin(self.ids, wanted)

    def count(self, *names) -> int:
        return int(self._mask(*names).sum())

    def self_s(self, *names) -> float:
        return float(self.self_time[self._mask(*names)].sum())

    def total_s(self, *names, first_verdict=0) -> float:
        return float(self.dur[self._mask(*names) & (self.verdict >= first_verdict)].sum())

    def children_per_span(self, parent_name: str, *child_names) -> np.ndarray:
        """For each span named parent_name, how many direct children it has
        among child_names."""
        parents = np.flatnonzero(self._mask(parent_name))
        kids = self._mask(*child_names) & (self.parent >= 0)
        per = np.bincount(self.parent[kids], minlength=len(self.dur))
        return per[parents]

    def count_under(self, parent_prefix: str, *child_names) -> int:
        """Spans among child_names whose direct parent's name starts with
        parent_prefix."""
        kids = np.flatnonzero(self._mask(*child_names) & (self.parent >= 0))
        names = {i for n, i in self.lookup.items() if n.startswith(parent_prefix)}
        return int(np.isin(self.ids[self.parent[kids]], list(names)).sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, verdicts: int) -> dict:
    """Per-layer figures, per verdict unless the name says otherwise."""
    t = SpanTable(tr)
    c = tr.counters
    per = 1.0 / max(verdicts, 1)
    wall = t.total_s("verdict")
    kernel_calls = t.count("kernel")
    kernel_s = t.self_s("kernel")
    poly_calls = t.count("poly.eval")
    passes = t.count(*WORD_PASSES)
    winding_calls = t.count("winding.index")
    preserves_calls = t.count("domains.preserves")
    grid = c["homotopy.grid_times"]
    refine = t.children_per_span("winding.index", "words.eval")
    sampled = t.children_per_span("domains.preserves", "words.masked")
    return {
        "kernel.calls": kernel_calls * per,
        "kernel.points": c["kernel.points"] * per,
        "kernel.term_points": c["kernel.term_points"] * per,
        "kernel.bytes_computed": c["kernel.bytes_computed"] * per,
        "kernel.self_ms": 1e3 * kernel_s * per,
        "kernel.us_per_call": 1e6 * _ratio(kernel_s, kernel_calls),
        "kernel.ns_per_term_point": 1e9 * _ratio(kernel_s, c["kernel.term_points"]),
        "kernel.share": _ratio(kernel_s, wall),
        "poly.built": c["poly.built"] * per,
        "poly.arrays_hit_ratio": _ratio(poly_calls - c["poly.arrays_misses"], poly_calls),
        "words.eval_calls": t.count("words.eval") * per,
        "words.eval_points": c["words.eval_points"] * per,
        "words.eval_self_ms": 1e3 * t.self_s("words.eval") * per,
        "words.jac_calls": t.count("words.jac") * per,
        "words.jac_self_ms": 1e3 * t.self_s("words.jac") * per,
        "words.masked_calls": t.count("words.masked") * per,
        "words.masked_self_ms": 1e3 * t.self_s("words.masked") * per,
        "words.invert_calls": t.count("words.invert") * per,
        "words.invert_self_ms": 1e3 * t.self_s("words.invert") * per,
        "words.steps_applied": c["words.steps_applied"] * per,
        "words.points_per_call": _ratio(c["words.eval_points"], passes),
        "words.objects_built": c["words.objects_built"] * per,
        "homotopy.certify_self_ms": 1e3 * t.self_s("homotopy.certify") * per,
        "homotopy.continuity_self_ms": 1e3 * t.self_s("homotopy.continuity") * per,
        "homotopy.grid_times": grid * per,
        "homotopy.word_passes_per_time": _ratio(t.count_under("homotopy.", *WORD_PASSES), grid),
        "winding.calls": winding_calls * per,
        "winding.self_ms": 1e3 * t.self_s("winding.index") * per,
        "winding.samples": c["winding.samples"] * per,
        "winding.samples_per_call": _ratio(c["winding.samples"], winding_calls),
        "winding.refine_rounds": float(np.mean(refine - 1)) if refine.size else 0.0,
        "torus.centralizer_self_ms": 1e3 * t.self_s("torus.centralizer") * per,
        "torus.extract_self_ms": 1e3 * t.self_s("torus.extract") * per,
        "torus.points": c["torus.points"] * per,
        "domains.preserves_calls": preserves_calls * per,
        "domains.preserves_self_ms": 1e3 * t.self_s("domains.preserves") * per,
        "domains.structural_evals": t.count_under("domains.", "words.eval") * per,
        "domains.structural_decided_ratio": _ratio(int(np.sum(sampled == 0)), preserves_calls),
        "trace.spans": len(t.dur) * per,
    }


def cli_phases_ms(tr: Tracer, first_verdict: int) -> dict:
    """Mean scene parse, operation and serialize time of in-process CLI
    calls, over the verdicts numbered first_verdict and later."""
    t = SpanTable(tr)
    calls = len(set(t.verdict[t._mask("cli.scene_parse") & (t.verdict >= first_verdict)]))
    return {f"cli.{phase}_ms": 1e3 * _ratio(t.total_s(span, first_verdict=first_verdict), calls)
            for phase, span in (("scene_parse", "cli.scene_parse"), ("op", "cli.op"),
                                ("serialize", "cli.serialize"))}
