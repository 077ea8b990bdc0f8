"""Spans around the public functions of the coslam modules, recorded from
outside the package.

The package binds names at import (`from .scalar import log_gamma` in
`spectral`, `from .geometry import haar_batch` in `transform`, ...), so a
wrapper must replace the binding each caller looks up, not only the
defining module's attribute.  `Tracer.installed()` patches every binding in
`_BINDINGS` and the entries of `verify.SUITES`, and restores them on exit.

A span records name, start, end, parent span and op id.  Spans are kept in
memory in flat arrays and written out with `Tracer.dump`.  Self time is a
span's duration minus the time its child spans cover; it is accumulated
online from a stack, which is exact because the traced code runs in one
thread.
"""

import contextlib
import functools
import time
from array import array
from collections import defaultdict

import numpy as np

from coslam import cli, geometry, spectral, transform, verify

# (span name, [(module, attribute), ...]): one wrapper per name, installed
# at every listed binding.  Callers reach each function through exactly one
# of these (a module attribute looked up at call time, or a name bound by
# `from ... import` in the caller's module).
_BINDINGS = [
    ("scalar.log_gamma", [(spectral, "log_gamma")]),
    ("scalar.gegenbauer", [(transform, "gegenbauer")]),
    ("spectral.c_p", [(spectral, "c_p"), (cli, "c_p")]),
    ("spectral.eta", [(spectral, "eta"), (cli, "eta")]),
    ("spectral.nu", [(spectral, "nu"), (cli, "nu")]),
    ("spectral.eta_by_recursion", [(spectral, "eta_by_recursion")]),
    ("spectral.sphere_eta", [(spectral, "sphere_eta")]),
    ("spectral.enumerate_ktypes", [(spectral, "enumerate_ktypes"), (cli, "enumerate_ktypes")]),
    ("geometry.haar_sample", [(geometry, "haar_sample")]),
    ("geometry.alpha_p", [(geometry, "alpha_p")]),
    ("geometry.cos_angle", [(geometry, "cos_angle")]),
    ("transform.funk_hecke_1d", [(transform, "funk_hecke_1d")]),
    ("transform.selberg_oracle", [(transform, "selberg_oracle")]),
    ("cli.main", [(cli, "main")]),
    ("cli.run", [(cli, "run")]),
    ("cli.emit", [(cli, "_emit")]),
]

# Spectral evaluations; a top-level call of one of these is one spectral value.
_VALUE_SPANS = ("spectral.c_p", "spectral.eta", "spectral.nu",
                "spectral.eta_by_recursion", "spectral.sphere_eta")

_FIELDS = ("R", "C", "H")


def _units(sig):
    return 2 if sig.field is spectral.FieldTag.QUATERNION else 1


def _mc_reads(kind, sig, mu):
    # Realization entries of one Haar sample that an estimator reads: the
    # top-left (u p)^2 block for the cosine estimators; the block below it for
    # the sine estimator, plus the top block when the test function is not 1.
    pe = _units(sig) * sig.p
    if kind == "sin" and not spectral.ktype(sig, mu).is_zero:
        return 2 * pe * pe
    return pe * pe


class Tracer:
    """In-memory span recorder plus the counters derived at the spans."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # [span index, name, child seconds]
        self._mc_reads = None

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append([idx, name, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def _close(self):
        t1 = time.perf_counter()
        idx, name, child = self._stack.pop()
        self.end[idx] = t1
        dur = t1 - self.start[idx]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def inside(self, prefix):
        return any(frame[1].startswith(prefix) for frame in self._stack)

    # -- wrappers --------------------------------------------------------------

    def _wrap_plain(self, name, fn):
        is_value = name in _VALUE_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top_value = is_value and not self.inside("spectral.")
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
                if top_value:
                    self.counts["spectral.values"] += 1
        return wrapper

    def _wrap_haar_batch(self, fn):
        @functools.wraps(fn)
        def wrapper(sig, rng, count):
            label = sig.field.label
            self._open(f"geometry.haar_batch.{label}")
            try:
                return fn(sig, rng, count)
            finally:
                self._close()
                self.counts[f"geometry.haar_batch.samples.{label}"] += count
                if self._mc_reads is not None:
                    self.counts["haar.entries_read"] += count * self._mc_reads
                    self.counts["haar.entries_generated"] += \
                        count * (_units(sig) * (sig.n + 1)) ** 2
        return wrapper

    def _wrap_mc(self, kind, fn):
        # The three Monte Carlo estimators share one span family, named by
        # field.  Samples are counted at the outermost estimator only
        # (mc_transform_ktype at mu = 0 delegates to mc_c_p).
        @functools.wraps(fn)
        def wrapper(sig, lam, *args, **kwargs):
            nested = self.inside("transform.mc.")
            mu = args[0] if kind != "c_p" else (0,) * sig.p
            saved = self._mc_reads
            if not nested:
                self._mc_reads = _mc_reads(kind, sig, mu)
            label = sig.field.label
            self._open(f"transform.mc.{label}")
            try:
                est = fn(sig, lam, *args, **kwargs)
            finally:
                dur = self._close()
                self._mc_reads = saved
            if not nested:
                self.counts[f"transform.mc.samples.{label}"] += est.samples
                self.counts[f"transform.mc.inclusive_s.{label}"] += dur
            return est
        return wrapper

    def _wrap_cos_transform(self, fn):
        @functools.wraps(fn)
        def wrapper(n, lam, f, grid, *args, **kwargs):
            kind = "complex" if complex(lam).imag != 0.0 else "real"
            self._open(f"transform.cos_transform_sphere.{kind}")
            try:
                out = fn(n, lam, f, grid, *args, **kwargs)
            finally:
                self._close()
            nodes = grid.points.shape[0]
            cols = 1 if np.ndim(out) == 1 else np.shape(out)[1]
            self.counts["transform.cos_transform_sphere.kernel_evals"] += nodes * nodes * cols
            return out
        return wrapper

    def _wrap_suite(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(f"verify.{name}")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced binding; restore the originals on exit."""
        saved = []

        def patch(module, attr, new):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)

        for name, sites in _BINDINGS:
            module, attr = sites[0]
            wrapper = self._wrap_plain(name, getattr(module, attr))
            for module, attr in sites:
                patch(module, attr, wrapper)
        haar = self._wrap_haar_batch(geometry.haar_batch)
        patch(geometry, "haar_batch", haar)
        patch(transform, "haar_batch", haar)
        patch(transform, "mc_c_p", self._wrap_mc("c_p", transform.mc_c_p))
        patch(transform, "mc_transform_ktype",
              self._wrap_mc("ktype", transform.mc_transform_ktype))
        patch(transform, "sin_transform_numeric",
              self._wrap_mc("sin", transform.sin_transform_numeric))
        patch(transform, "cos_transform_sphere",
              self._wrap_cos_transform(transform.cos_transform_sphere))
        suites = dict(verify.SUITES)
        for name, fn in suites.items():
            verify.SUITES[name] = self._wrap_suite(name, fn)
        try:
            yield self
        finally:
            verify.SUITES.update(suites)
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer metrics per traced pass (counts and seconds divided by passes)."""
        k = float(passes)
        calls = lambda n: self.calls.get(n, 0) / k  # noqa: E731
        self_s = lambda n: self.self_s.get(n, 0.0) / k  # noqa: E731
        total = lambda n: self.total_s.get(n, 0.0) / k  # noqa: E731
        count = lambda n: self.counts.get(n, 0.0) / k  # noqa: E731
        per = lambda a, b: a / b if b else 0.0  # noqa: E731

        m = {
            "scalar.log_gamma.calls": (calls("scalar.log_gamma"), "count"),
            "scalar.log_gamma.self_s": (self_s("scalar.log_gamma"), "s"),
            "scalar.gegenbauer.self_s": (self_s("scalar.gegenbauer"), "s"),
        }
        for fn in ("c_p", "eta", "nu", "eta_by_recursion", "sphere_eta", "enumerate_ktypes"):
            m[f"spectral.{fn}.calls"] = (calls(f"spectral.{fn}"), "count")
            m[f"spectral.{fn}.self_s"] = (self_s(f"spectral.{fn}"), "s")
        values = count("spectral.values")
        m["spectral.values"] = (values, "count")
        m["spectral.log_gamma_per_value"] = (per(calls("scalar.log_gamma"), values), "calls/value")

        haar_samples = {f: count(f"geometry.haar_batch.samples.{f}") for f in _FIELDS}
        haar_self = {f: self_s(f"geometry.haar_batch.{f}") for f in _FIELDS}
        m["geometry.haar_batch.samples"] = (sum(haar_samples.values()), "count")
        m["geometry.haar_batch.self_s"] = (sum(haar_self.values()), "s")
        for f in _FIELDS:
            m[f"geometry.haar_batch.samples.{f}"] = (haar_samples[f], "count")
            m[f"geometry.haar_batch.self_s.{f}"] = (haar_self[f], "s")
            m[f"geometry.haar_batch.us_per_sample.{f}"] = (
                per(1e6 * haar_self[f], haar_samples[f]), "us")
        m["geometry.haar_batch.used_entry_ratio"] = (
            per(count("haar.entries_read"), count("haar.entries_generated")), "ratio")
        for fn in ("haar_sample", "alpha_p", "cos_angle"):
            m[f"geometry.{fn}.self_s"] = (self_s(f"geometry.{fn}"), "s")

        mc_samples = {f: count(f"transform.mc.samples.{f}") for f in _FIELDS}
        m["transform.mc.samples"] = (sum(mc_samples.values()), "count")
        m["transform.mc.self_s"] = (sum(self_s(f"transform.mc.{f}") for f in _FIELDS), "s")
        for f in _FIELDS:
            # Whole estimator cost per sample, Haar sampling included.
            m[f"transform.mc.us_per_sample.{f}"] = (
                per(1e6 * count(f"transform.mc.inclusive_s.{f}"), mc_samples[f]), "us")

        cos_real = self_s("transform.cos_transform_sphere.real")
        cos_complex = self_s("transform.cos_transform_sphere.complex")
        evals = count("transform.cos_transform_sphere.kernel_evals")
        m["transform.cos_transform_sphere.self_s.real"] = (cos_real, "s")
        m["transform.cos_transform_sphere.self_s.complex"] = (cos_complex, "s")
        m["transform.cos_transform_sphere.kernel_evals"] = (evals, "count")
        m["transform.cos_transform_sphere.kernel_evals_per_s"] = (
            per(evals, cos_real + cos_complex), "1/s")
        m["transform.funk_hecke_1d.self_s"] = (self_s("transform.funk_hecke_1d"), "s")
        m["transform.selberg_oracle.self_s"] = (self_s("transform.selberg_oracle"), "s")

        for suite in verify.SUITE_NAMES:
            m[f"verify.{suite}.s"] = (total(f"verify.{suite}"), "s")

        m["cli.parse_s"] = (self_s("cli.main"), "s")
        m["cli.run.self_s"] = (self_s("cli.run"), "s")
        m["cli.emit_s"] = (total("cli.emit"), "s")
        m["trace.spans"] = (len(self.start) / k, "count")
        return m

    def dump(self, path):
        """Write every span: name, start, end, parent span index and op id."""
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), op=np.asarray(self.op))
