"""Span tracer for the traced benchmark run.

Spans are recorded from outside the package: every public function of the
layer modules is replaced, in every hamuniv module namespace that refers to
it, by a wrapper that records a span around the call. The numpy/scipy dense
kernels are wrapped through proxy ``np``/``scipy`` objects placed in the
hamuniv module namespaces only, so the benchmark's own checks call the real
kernels and leave no spans.

Self time: a layer span's self time is its duration minus the time its child
*layer* spans cover. Kernel spans (``linalg.*``) are leaves that form a cross
section: their time is also part of the calling layer's self time, so a
solver span such as ``kitaev.low_spectrum`` keeps the eigensolver time it
exists to measure, while ``linalg.eigh.s`` shows the same kernel time summed
over every layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy
import scipy
import scipy.linalg

LAYERS = ("circuits", "kitaev", "universality", "simulation", "schrieffer_wolff", "operators")

NAME, START, END, PARENT, OP, ATTRS = range(6)

# Per-layer metrics, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    ("kitaev.low_spectrum.s", "s"),
    ("universality.hsim_low_spectrum.s", "s"),
    ("kitaev.low_spectrum.pairs_used_ratio", "ratio"),
    ("simulation.verify_simulation.pairs_used_ratio", "ratio"),
    ("kitaev.build_kitaev.s", "s"),
    ("kitaev.build_kitaev.dense_mb", "MB"),
    ("kitaev.h_mk.dim", "count"),
    ("kitaev.h_mk.nnz", "count"),
    ("kitaev.check_hmk_lemma.s", "s"),
    ("kitaev.check_idling_faithfulness.s", "s"),
    ("circuits.acceptance_operator.calls", "count"),
    ("circuits.acceptance_operator.s", "s"),
    ("circuits.compile_unitary.s", "s"),
    ("universality.qpe_verifier.s", "s"),
    ("universality.build_hsim.s", "s"),
    ("universality.wtilde_encodings.s", "s"),
    ("universality.end_to_end.self_s", "s"),
    ("simulation.verify_simulation.calls", "count"),
    ("simulation.verify_simulation.s", "s"),
    ("simulation.check_partition_function.s", "s"),
    ("simulation.check_dynamics.s", "s"),
    ("schrieffer_wolff.sw_problem.s", "s"),
    ("schrieffer_wolff.sw_exact.calls", "count"),
    ("schrieffer_wolff.sw_exact.s", "s"),
    ("schrieffer_wolff.sw_bounds.s", "s"),
    ("operators.eigh.calls", "count"),
    ("operators.eigh.s", "s"),
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.s", "s"),
    ("linalg.eigh.max_dim", "count"),
    ("linalg.logm.calls", "count"),
    ("linalg.logm.s", "s"),
    ("linalg.svd.calls", "count"),
    ("linalg.svd.s", "s"),
    ("circuits.self_s", "s"),
    ("kitaev.self_s", "s"),
    ("universality.self_s", "s"),
    ("simulation.self_s", "s"),
    ("schrieffer_wolff.self_s", "s"),
    ("operators.self_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
)

_SVD_NORM_ORDS = (2, -2, "nuc")

# compile_unitary is a one-line call of compile_gates; a span for both would
# leave compile_unitary, the function the metric names, no self time
_NOT_WRAPPED = {"circuits.compile_gates"}


class _Proxy:
    """Attribute-forwarding stand-in for a module, with some attributes replaced."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans around layer functions and dense kernels while installed."""

    def __init__(self):
        # span record: [name, start, end, parent index, operation id, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: str | None = None
        self.enabled = False
        self.overhead_s = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self._last_low_spectrum: int | None = None

    # -- recording -----------------------------------------------------

    def wrap(self, name, fn, on_exit=None, name_fn=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            parent = tracer._stack[-1] if tracer._stack else -1
            span_name = name_fn(parent) if name_fn else name
            idx = len(tracer.spans)
            rec = [span_name, 0.0, 0.0, parent, tracer.op_id, {}]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                tracer._stack.pop()
                rec[START], rec[END] = t1, t2
            if on_exit is not None:
                on_exit(idx, args, kwargs, result)
            overhead = (t1 - t0) + (time.perf_counter() - t2)
            tracer.overhead_s += overhead
            if parent >= 0:  # it ran inside the parent's interval: keep it out of its self time
                attrs = tracer.spans[parent][ATTRS]
                attrs["tracer_s"] = attrs.get("tracer_s", 0.0) + overhead
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("hamuniv")] + [
            importlib.import_module(f"hamuniv.{m}")
            for m in LAYERS + ("cli", "config", "serialize")
        ]
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hamuniv.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and f"{layer}.{attr}" not in _NOT_WRAPPED
                ):
                    replacements[id(obj)] = self.wrap(
                        f"{layer}.{attr}", obj, self._on_exit_for(layer, attr)
                    )
        kitaev = importlib.import_module("hamuniv.kitaev")
        low = kitaev._low_spectrum
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    self._set(mod, attr, replacements[id(obj)])
        self._set(kitaev, "_low_spectrum", self.wrap("kitaev.low_spectrum", low, self._on_low))
        # end_to_end solves H_MK first and H_sim second through the same
        # function; the call order inside the parent span tells them apart
        universality = importlib.import_module("hamuniv.universality")
        self._set(
            universality,
            "_low_spectrum",
            self.wrap("kitaev.low_spectrum", low, self._on_low, name_fn=self._low_name),
        )
        sw_problem = importlib.import_module("hamuniv.schrieffer_wolff").SWProblem
        self._set(
            sw_problem,
            "__post_init__",
            self.wrap("schrieffer_wolff.sw_problem", sw_problem.__post_init__),
        )
        np_proxy = _Proxy(numpy, {"linalg": _Proxy(numpy.linalg, self._numpy_kernels())})
        sp_proxy = _Proxy(scipy, {"linalg": _Proxy(scipy.linalg, self._scipy_kernels())})
        for mod in modules:
            if vars(mod).get("np") is numpy:
                self._set(mod, "np", np_proxy)
            if vars(mod).get("scipy") is scipy:
                self._set(mod, "scipy", sp_proxy)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _numpy_kernels(self) -> dict:
        la = numpy.linalg
        svd_norm = self.wrap("linalg.svd", la.norm, self._on_dim)

        def norm(x, ord=None, *args, **kwargs):
            if ord in _SVD_NORM_ORDS:
                return svd_norm(x, ord, *args, **kwargs)
            return la.norm(x, ord, *args, **kwargs)

        return {
            "eigh": self.wrap("linalg.eigh", la.eigh, self._on_eigh),
            "eigvalsh": self.wrap("linalg.eigh", la.eigvalsh, self._on_eigh),
            "svd": self.wrap("linalg.svd", la.svd, self._on_dim),
            "norm": norm,
        }

    def _scipy_kernels(self) -> dict:
        la = scipy.linalg
        return {
            "eigh": self.wrap("linalg.eigh", la.eigh, self._on_eigh),
            "eigvalsh": self.wrap("linalg.eigh", la.eigvalsh, self._on_eigh),
            "logm": self.wrap("linalg.logm", la.logm, self._on_dim),
            "svd": self.wrap("linalg.svd", la.svd, self._on_dim),
            "null_space": self.wrap("linalg.svd", la.null_space, self._on_dim),
        }

    # -- per-span attributes -------------------------------------------

    def _on_dim(self, idx, args, kwargs, result):
        self.spans[idx][ATTRS]["dim"] = int(numpy.shape(args[0])[0])

    def _on_eigh(self, idx, args, kwargs, result):
        n = int(numpy.shape(args[0])[0])
        subset = kwargs.get("subset_by_index")
        pairs = n if subset is None else int(subset[1]) - int(subset[0]) + 1
        self.spans[idx][ATTRS].update(dim=n, pairs=pairs)

    def _low_name(self, parent: int) -> str:
        if parent < 0:
            return "kitaev.low_spectrum"
        attrs = self.spans[parent][ATTRS]
        order = attrs.get("low_spectrum_calls", 0)
        attrs["low_spectrum_calls"] = order + 1
        return "kitaev.low_spectrum" if order == 0 else "universality.hsim_low_spectrum"

    def _on_low(self, idx, args, kwargs, result):
        if self.spans[idx][NAME] == "kitaev.low_spectrum":
            self._last_low_spectrum = idx

    def _on_exit_for(self, layer: str, attr: str):
        key = f"{layer}.{attr}"
        if key == "kitaev.build_kitaev":
            return self._on_build_kitaev
        if key == "kitaev.check_hmk_lemma":
            return self._on_check_hmk
        if key == "simulation.verify_simulation":
            return self._on_verify_simulation
        return None

    def _on_build_kitaev(self, idx, args, kwargs, kh):
        parts = (kh.h_in, kh.h_prop, kh.h_out, kh.h_clock)
        self.spans[idx][ATTRS].update(
            dense_mb=sum(p.entries.nbytes for p in parts) / 2**20,
            dim=int(kh.layout.total_dim),
            nnz=int(numpy.count_nonzero(kh.h_mk().entries)),
        )

    def _on_check_hmk(self, idx, args, kwargs, report):
        # the pairs check_hmk_lemma reads: w matched values, the k_low
        # vectors of the low space, and the eigenvalue just above the cut
        if self._last_low_spectrum is not None:
            used = max(len(report.rows), report.low_space_dim + 1)
            self.spans[self._last_low_spectrum][ATTRS]["used"] = used
            self._last_low_spectrum = None

    def _on_verify_simulation(self, idx, args, kwargs, report):
        # the k pairs below the cutoff plus the one above it for the cluster guard
        k = len(report.eigen_table)
        self.spans[idx][ATTRS].update(used=k + 1, sim_dim=int(report.h_prime.shape[0]))

    # -- derived metrics -----------------------------------------------

    def metrics(self, n_passes: int, pass_s: float) -> dict:
        """Per-layer metrics per traced pass; a metric the workload never reaches reads 0."""
        spans = self.spans
        children: dict[int, list[int]] = {}
        for i, rec in enumerate(spans):
            children.setdefault(rec[PARENT], []).append(i)
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_self: dict[str, float] = {}
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START] - rec[ATTRS].get("tracer_s", 0.0)
            if not rec[NAME].startswith("linalg."):
                dur -= sum(
                    spans[c][END] - spans[c][START]
                    for c in children.get(i, ())
                    if not spans[c][NAME].startswith("linalg.")
                )
                layer = rec[NAME].split(".")[0]
                layer_self[layer] = layer_self.get(layer, 0.0) + dur
            self_s[rec[NAME]] = self_s.get(rec[NAME], 0.0) + dur
            calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1

        def solved_pairs(i: int, dim: int | None = None) -> int:
            return sum(
                spans[c][ATTRS].get("pairs", 0)
                for c in children.get(i, ())
                if spans[c][NAME] == "linalg.eigh"
                and (dim is None or spans[c][ATTRS]["dim"] == dim)
            )

        low_used = low_computed = 0
        for i, rec in enumerate(spans):
            if rec[NAME] == "kitaev.low_spectrum" and "used" in rec[ATTRS]:
                low_used += rec[ATTRS]["used"]
                low_computed += solved_pairs(i)
        sim_used = sim_computed = 0
        for i, rec in enumerate(spans):
            if rec[NAME] == "simulation.verify_simulation":
                computed = solved_pairs(i, rec[ATTRS]["sim_dim"])
                if computed:  # calls handed precomputed pairs solve nothing
                    sim_used += rec[ATTRS]["used"]
                    sim_computed += computed

        builds = [rec[ATTRS] for rec in spans if rec[NAME] == "kitaev.build_kitaev"]
        largest = max(builds, key=lambda a: a["dim"], default={})
        eigh_dims = [rec[ATTRS]["dim"] for rec in spans if rec[NAME] == "linalg.eigh"]

        per_pass = {}
        for name, _unit in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "s":
                per_pass[name] = self_s.get(base, 0.0) / n_passes
            elif kind == "calls":
                per_pass[name] = calls.get(base, 0) / n_passes
            elif kind == "self_s":
                per_pass[name] = (
                    self_s.get(base, 0.0) if "." in base else layer_self.get(base, 0.0)
                ) / n_passes
        per_pass.update(
            {
                "kitaev.low_spectrum.pairs_used_ratio": low_used / low_computed
                if low_computed
                else 0.0,
                "simulation.verify_simulation.pairs_used_ratio": sim_used / sim_computed
                if sim_computed
                else 0.0,
                "kitaev.build_kitaev.dense_mb": max((a["dense_mb"] for a in builds), default=0.0),
                "kitaev.h_mk.dim": largest.get("dim", 0),
                "kitaev.h_mk.nnz": largest.get("nnz", 0),
                "linalg.eigh.max_dim": max(eigh_dims, default=0),
                "trace.pass_s": pass_s,
                "trace.overhead_s": self.overhead_s / n_passes,
            }
        )
        return {name: {"value": per_pass[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": rec[NAME],
                            "start": rec[START],
                            "end": rec[END],
                            "parent": rec[PARENT],
                            "op": rec[OP],
                            **rec[ATTRS],
                        }
                    )
                    + "\n"
                )
