"""Span tracing of bandscan from outside the program, and the per-layer metrics.

`Tracer.install()` wraps every public function of every bandscan module at
each module attribute that holds it, so names re-bound by ``from ... import``
(``gapscan.fd_dirichlet_eigenvalues``, ``cli.global_scan``, ...) are wrapped
too, plus the few methods and private helpers listed in EXTRA.  A layer is
the module a function lives in ("lattice", "oracle.fd", ...).

Spans are kept in memory as (name, request, start, end, parent) in flat
arrays and written out by `save()`.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute path) wrapped besides the public functions: the grid
#: operator's stencil and preconditioner, the report writer, and the two BEM
#: phases (scipy's LU is re-bound into bandscan.capacitance).
EXTRA = [
    ("oracle.fd", "_GridOperator.matmat"),
    ("oracle.fd", "_GridOperator.precmat"),
    ("reports", "GapReport.to_text"),
    ("capacitance", "_assemble"),
    ("capacitance", "lu_factor"),
    ("capacitance", "lu_solve"),
]


def _columns(args, kwargs, result):
    v = args[1]
    return v.shape[1] if getattr(v, "ndim", 1) == 2 else 1


#: Values recorded on a span from the call, for the count metrics.
NOTES = {
    "oracle.fd:_GridOperator.matmat": _columns,
    "oracle.fd:_GridOperator.precmat": _columns,
    "oracle.eig:hermitian_eigensolve": lambda a, kw, r: (a[0].shape[0], isinstance(a[0], np.ndarray)),
    "oracle.fd:fd_dirichlet_eigenvalues": lambda a, kw, r: tuple(map(float, a[0])),
    "oracle.pwe:pwe_transmission_eigenvalues": lambda a, kw, r: (tuple(map(float, a[0])), a[2]),
    "capacitance:capacitance_bem": lambda a, kw, r: a[0].n_triangles,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.req = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.stack: list[int] = []
        self.request = -1
        self.active = False
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        note = NOTES.get(name)
        t_name, t_req, t_parent = self.name, self.req, self.parent
        t_start, t_end, stack = self.start, self.end, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(t_name)
            t_name.append(nid)
            t_req.append(tracer.request)
            t_parent.append(stack[-1] if stack else -1)
            t_end.append(0.0)
            stack.append(idx)
            t_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t_end[idx] = perf_counter()
                stack.pop()
            if note is not None:
                tracer.notes[idx] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Build the wrappers; `enable` puts them in place and `disable` removes them."""
        modules = [package] + [importlib.import_module(m.name)
                               for m in pkgutil.walk_packages(package.__path__, package.__name__ + ".")]
        prefix = package.__name__ + "."
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            layer = mod.__name__[len(prefix):]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}:{attr}", obj))
        for layer, path in EXTRA:
            owner = importlib.import_module(prefix + layer)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._patches.append((owner, attr, fn, self._wrap(f"{layer}:{path}", fn)))
        for mod in modules:
            for attr, obj in vars(mod).items():
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj, wrappers[id(obj)][1]))

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "request": np.frombuffer(self.req, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans (and the name table) as one compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, n_requests: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: self seconds and counts per request, ratios per solve."""
        sp = self.arrays()
        names = self.names
        name, parent = sp["name"], sp["parent"]
        dur = sp["end"] - sp["start"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child

        def ids(pred):
            return np.array([i for i, n in enumerate(names) if pred(n)], dtype=np.int32)

        def is_(*full):
            return np.isin(name, ids(lambda n: n in full))

        def layer(lay):
            return np.isin(name, ids(lambda n: n.split(":")[0] == lay))

        def under(mask):
            """Spans that are in `mask` or descend from a span in it."""
            flag = mask.copy()
            p = parent.copy()
            while (p >= 0).any():
                ok = p >= 0
                flag[ok] |= mask[p[ok]]
                p[ok] = parent[p[ok]]
            return flag

        def per_req(mask):
            return float(self_t[mask].sum()) / n_requests

        def count(mask):
            return int(mask.sum())

        def notes_of(mask):
            return [self.notes[i] for i in np.flatnonzero(mask) if i in self.notes]

        face = under(is_("lattice:face_gap_region"))
        d_scan = under(is_("dirichlet:dispersion_scan"))
        t_scan = under(is_("transmission:dispersion_scan_transmission"))
        classify = is_("lattice:classify_wavevector")
        covers = is_("globalscan:cover_frequency")
        attempts = classify & np.isin(parent, np.flatnonzero(covers))
        matmat = is_("oracle.fd:_GridOperator.matmat")
        precmat = is_("oracle.fd:_GridOperator.precmat")
        fd_solves = is_("oracle.fd:fd_dirichlet_eigenvalues")
        pwe_solves = is_("oracle.pwe:pwe_transmission_eigenvalues")
        eig = is_("oracle.eig:hermitian_eigensolve") & np.isin(parent, np.flatnonzero(fd_solves))
        eig_notes = notes_of(eig)
        iterative = sum(1 for _, dense in eig_notes if not dense)
        ray_points = set()
        for i in np.flatnonzero(fd_solves | pwe_solves):
            # distinct Bloch vectors solved per gap measurement along the ray
            anc = parent[i]
            ray_points.add((int(anc), repr(self.notes.get(i))))
        pwe_notes = notes_of(pwe_solves)
        s, c, n = "s", "count", n_requests
        return {
            "config.parse_s": (per_req(layer("config")), s),
            "reports.write_s": (per_req(layer("reports")), s),
            "lattice.classify_calls": (count(classify) / n, c),
            "lattice.classify_s": (per_req(layer("lattice") & ~face), s),
            "lattice.face_map_s": (per_req(layer("lattice") & face), s),
            "dirichlet.scan_s": (per_req(layer("dirichlet") & d_scan), s),
            "dirichlet.gap_s": (per_req(layer("dirichlet") & ~d_scan), s),
            "transmission.scan_s": (per_req(layer("transmission") & t_scan), s),
            "transmission.gap_s": (per_req(layer("transmission") & ~t_scan), s),
            "globalscan.scan_s": (per_req(layer("globalscan")), s),
            "globalscan.covers_per_attempt": (count(covers) / max(count(attempts), 1), c),
            "oracle.gapscan.measure_s": (per_req(layer("oracle.gapscan")), s),
            "oracle.gapscan.ray_points": (len(ray_points) / n, c),
            "oracle.gapscan.solves": (count(fd_solves | pwe_solves) / n, c),
            "oracle.fd.setup_s": (per_req(layer("oracle.fd") & ~matmat & ~precmat), s),
            "oracle.fd.stencil_s": (per_req(matmat), s),
            "oracle.fd.stencil_cols": (sum(notes_of(matmat)) / n, c),
            "oracle.fd.precond_s": (per_req(precmat), s),
            "oracle.fd.precond_cols": (sum(notes_of(precmat)) / n, c),
            "oracle.fd.free_dofs": (sum(d for d, _ in eig_notes) / max(len(eig_notes), 1), c),
            "oracle.fd.dense_solves": ((len(eig_notes) - iterative) / n, c),
            "oracle.eig.self_s": (per_req(layer("oracle.eig")), s),
            "oracle.eig.stencil_calls_per_solve": (count(matmat) / max(iterative, 1), c),
            "oracle.pwe.assemble_s": (per_req(layer("oracle.pwe") & ~pwe_solves), s),
            "oracle.pwe.eigh_s": (per_req(pwe_solves), s),
            "oracle.pwe.basis_size": (sum((2 * g + 1) ** 3 for _, g in pwe_notes)
                                      / max(len(pwe_notes), 1), c),
            "meshes.read_s": (per_req(is_("meshes:read_off")), s),
            "meshes.validate_s": (per_req(is_("meshes:validate_mesh")), s),
            "capacitance.assemble_s": (per_req(is_("capacitance:_assemble",
                                                   "capacitance:triangle_self_potential")), s),
            "capacitance.factor_s": (per_req(is_("capacitance:lu_factor", "capacitance:lu_solve")), s),
            "capacitance.panels": (sum(notes_of(is_("capacitance:capacitance_bem"))) / n, c),
        }
