"""In-memory tracing of calls across the program's layer boundaries.

``Tracer.install`` wraps each named boundary (a module function or a class
attribute) and every module of the package that re-imported the same
function object, and ``restore`` puts the originals back.  Each call keeps
a frame on a stack; on return its duration is added to the caller's child
time, so self time = duration - time covered by child calls.  Calls that
last at least ``span_ns`` are recorded as spans (id, parent id, name,
start, end); shorter calls are only aggregated into per-name totals, which
keeps memory bounded on calls made millions of times.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter_ns

#: metric prefix -> (module, attribute path) of the wrapped callable
BOUNDARIES = {
    "linalg.ip": ("eleech.linalg", "LorentzForm.ip"),
    "linalg.ip12": ("eleech.linalg", "LorentzForm.ip12"),
    "linalg.aut_matmul": ("eleech.linalg", "AutMatrix.__matmul__"),
    "linalg.mat_inverse": ("eleech.linalg", "mat_inverse"),
    "reflections.reflect": ("eleech.reflections", "reflect"),
    "reflections.canonical_root": ("eleech.reflections", "canonical_root"),
    "lattices.shell_shapes": ("eleech.lattices", "first_shell_by_shapes"),
    "lattices.shell_coset": ("eleech.lattices", "first_shell_by_coset_search"),
    "lattices.in_l_e8h": ("eleech.lattices", "in_l_e8h"),
    "diagram.height_sq": ("eleech.diagram", "Diagram.height_sq"),
    "codes.tetracode": ("eleech.codes", "tetracode"),
    "codes.golay12": ("eleech.codes", "golay12"),
    "codes.qr_code": ("eleech.codes", "qr_code"),
    "codes.ternary_words": ("eleech.codes", "TernaryCode.words"),
    "codes.ternary_weights": ("eleech.codes", "TernaryCode.weight_enumerator"),
    "isomorphism.change_of_basis": ("eleech.isomorphism", "ChangeOfBasis.__init__"),
    "reduction.reduce": ("eleech.reduction", "HeightReducer.reduce"),
    "reduction.check_certificate": ("eleech.reduction", "check_certificate"),
    "reduction.expand_positions": ("eleech.reduction", "_expand_positions"),
    "reduction.find_within": ("eleech.reduction", "LeechCVP.find_within"),
    "reduction.conway_reduce": ("eleech.reduction", "conway_reduce"),
    "reduction.cert_serialize": ("eleech.reduction", "ReductionCertificate.serialize"),
    "reduction.cert_parse": ("eleech.reduction", "ReductionCertificate.parse"),
    "relations.spider_check": ("eleech.relations", "spider_check"),
    "relations.deflate_check": ("eleech.relations", "deflate_check"),
    "relations.twelve_gon_orbit": ("eleech.relations", "twelve_gon_orbit"),
    "relations.deflate_unit": ("eleech.relations", "deflate_unit"),
    "relations.matrix_order": ("eleech.relations", "matrix_order"),
    "relations.verify_phi_flips": ("eleech.relations", "verify_phi_flips"),
    "cli.reduce_check": ("eleech.cli", "_cmd_reduce"),
}


def _resolve(module_name, path):
    """(owner, attribute name, raw attribute) for a boundary; raises when the
    name no longer resolves, so a renamed function is never a silent 0."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        raise LookupError(f"trace boundary {module_name}.{path} does not resolve")
    return owner, attr, raw


class Tracer:
    def __init__(self, span_ns: int = 5_000):
        self.span_ns = span_ns
        self.calls = {}
        self.self_ns = {}
        # flat records of (id, parent id, name index, start ns, end ns)
        self.spans = array("q")
        self.names = []
        self._stack = []
        self._next_id = 1
        self._patched = []

    def install(self, boundaries=BOUNDARIES):
        package_modules = [m for n, m in list(sys.modules.items())
                           if n.startswith("eleech") and m is not None]
        for name, (module_name, path) in boundaries.items():
            owner, attr, raw = _resolve(module_name, path)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = self._wrap(name, fn)
            self._patch(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            if isinstance(owner, type):
                continue
            for mod in package_modules:
                for other_attr, value in list(vars(mod).items()):
                    if value is fn and not (mod is owner and other_attr == attr):
                        self._patch(mod, other_attr, wrapped)

    def restore(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        self.calls[name] = 0
        self.self_ns[name] = 0
        name_index = len(self.names)
        self.names.append(name)
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns
        span_ns = self.span_ns
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, 0]  # id, time covered by child calls
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                calls[name] += 1
                self_ns[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if took >= span_ns:
                    spans.extend((span_id, parent, name_index, start, end))

        traced.__wrapped__ = fn
        return traced

    def snapshot(self):
        """Per-boundary (calls, self seconds) so far."""
        return {n: (self.calls[n], self.self_ns[n] / 1e9) for n in self.calls}

    def span_count(self) -> int:
        return len(self.spans) // 5
