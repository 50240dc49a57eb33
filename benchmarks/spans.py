"""Span tracing of the package's layers, installed from outside at run time.

``Tracer.install`` wraps every public function (and public classmethod) of
the eight layer modules and rebinds each wrapper everywhere the package
holds the original: the defining module, every module that bound it with
``from .x import y``, the package namespace, and module-level dicts such as
``verify._SUITE_RUNNERS``. ``uninstall`` puts every original back. Nothing
under ``src/`` is edited.

Spans are kept in flat arrays while tracing is on (name, start, end,
parent, op id, error, tag) and turned into numpy arrays afterwards, from
which ``layer_metrics`` derives counts, self times and latencies.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "linalg",
    "quadrature",
    "monotone",
    "chentsov",
    "metric",
    "channels",
    "sampling",
    "verify",
)

# Extra integer recorded per span for the few functions whose per-layer
# metric needs one of their arguments.
_TAGS = {
    "linalg.hermitian_eig": lambda args, kwargs: len(args[0]),
    "monotone.check_operator_monotone": lambda args, kwargs: int(
        kwargs["trials"] if "trials" in kwargs else args[1]
    ),
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, package: str = "monometric", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.names: list[str] = []
        self.errors: list[str] = [""]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("i")
        self.tag = array("q")
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list = []

    @property
    def span_count(self) -> int:
        return len(self.start)

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        tag = _TAGS.get(name)
        stack = self._stack
        clock = self.clock
        name_id, start, end = self.name_id, self.start, self.end
        parent, op, error, tags = self.parent, self.op, self.error, self.tag
        errors = self.errors

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            error.append(0)
            tags.append(tag(args, kwargs) if tag else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                if kind not in errors:
                    errors.append(kind)
                error[idx] = errors.index(kind)
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        span.__bench_span__ = True
        return span

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        wrappers: dict = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") or not isinstance(raw, classmethod):
                            continue
                        wrapped = self._wrap(f"{layer}.{attr}.{meth}", raw.__func__)
                        setattr(obj, meth, classmethod(wrapped))
                        self._undo.append((setattr, obj, meth, raw))
        for mod in _package_modules(self.package):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._undo.append((setattr, mod, attr, val))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            val[key] = wrappers[item]
                            self._undo.append((dict.__setitem__, val, key, item))

    def uninstall(self) -> None:
        while self._undo:
            restore, target, key, original = self._undo.pop()
            restore(target, key, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span as a compressed npz, names and errors inline."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            errors=np.array(self.errors),
            **self.arrays(),
        )


def _package_modules(package: str) -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    ]


def any_wrapper_installed(package: str = "monometric") -> bool:
    """True if a span wrapper is bound anywhere in the package."""
    for mod in _package_modules(package):
        for val in vars(mod).values():
            if isinstance(val, dict):
                items = val.values()
            elif inspect.isclass(val):
                items = vars(val).values()
            else:
                items = (val,)
            for item in items:
                fn = item.__func__ if isinstance(item, classmethod) else item
                if getattr(fn, "__bench_span__", False):
                    return True
    return False


def _median_us(x: np.ndarray) -> float:
    return float(np.median(x) * 1e6) if len(x) else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer counts, self times and latencies from the recorded spans.

    ``ops`` is the number of operations the traced phase completed; it is
    the base of every ``*_per_op`` ratio.
    """
    a = tracer.arrays()
    names = np.array(tracer.names)
    dur = a["end"] - a["start"]
    n = len(dur)
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child[:n]
    span_name = names[a["name"]]
    parent_name = np.where(has_parent, span_name[a["parent"]], "<root>")
    layer = np.array([s.split(".", 1)[0] for s in names])[a["name"]]
    err_names = tracer.errors

    def pick(name):
        return span_name == name

    def failed_with(mask, kind):
        if kind not in err_names:
            return 0
        return int(np.count_nonzero(mask & (a["error"] == err_names.index(kind))))

    def layer_self(name):
        return float(self_t[layer == name].sum())

    out: dict[str, float] = {}
    per_op = max(ops, 1)

    eig = pick("linalg.hermitian_eig")
    out["linalg.eig_calls"] = int(eig.sum())
    out["linalg.eig_per_op"] = eig.sum() / per_op
    out["linalg.eig_self_s"] = float(self_t[eig].sum())
    for dim in (2, 3, 8, 16, 32):
        out[f"linalg.eig_us.n{dim}"] = _median_us(dur[eig & (a["tag"] == dim)])

    integ = pick("quadrature.integrate")
    out["quadrature.integrate_calls"] = int(integ.sum())
    out["quadrature.integrate_per_op"] = integ.sum() / per_op
    out["quadrature.integrate_self_s"] = float(self_t[integ].sum())
    out["quadrature.failures"] = failed_with(integ, "QuadratureFailure")

    out["monotone.f_canon_us_p50"] = _median_us(dur[pick("monotone.eval_canonical_f")])
    out["monotone.normalize_us_p50"] = _median_us(dur[pick("monotone.normalize_beta")])
    opmono = pick("monotone.check_operator_monotone")
    out["monotone.opmono_trial_us_p50"] = _median_us(
        dur[opmono] / np.maximum(a["tag"][opmono], 1)
    )
    out["monotone.self_s"] = layer_self("monotone")

    bridge = pick("chentsov.eval_bridge")
    canon = pick("chentsov.eval_canonical_c")
    kernel = bridge | canon | pick("chentsov.c_from_f")
    out["chentsov.c_calls"] = int(kernel.sum())
    out["chentsov.c_canon_us_p50"] = _median_us(dur[canon])
    out["chentsov.c_bridge_us_p50"] = _median_us(dur[bridge])
    out["chentsov.normalize_us_p50"] = _median_us(dur[pick("chentsov.normalize_C0")])
    out["chentsov.self_s"] = layer_self("chentsov")

    form = pick("metric.metric_form")
    build = pick("metric.DensityMatrix.from_matrix")
    out["metric.form_calls"] = int(form.sum())
    out["metric.form_us_p50"] = _median_us(dur[form])
    out["metric.self_s"] = layer_self("metric")
    out["metric.c_per_form"] = (
        np.count_nonzero(kernel & (parent_name == "metric.metric_form")) / max(form.sum(), 1)
    )
    out["metric.state_builds"] = int(build.sum())
    out["metric.state_build_us_p50"] = _median_us(dur[build])

    trial = pick("channels.monotonicity_trial")
    rejected = failed_with(trial, "NotAState")
    out["channels.trial_calls"] = int(trial.sum())
    out["channels.trial_accept_ratio"] = (
        (trial.sum() - rejected) / trial.sum() if trial.any() else 0.0
    )
    out["channels.trial_us_p50"] = _median_us(dur[trial])
    out["channels.random_channel_us_p50"] = _median_us(dur[pick("channels.random_channel")])
    out["channels.self_s"] = layer_self("channels")

    sampling = layer == "sampling"
    out["sampling.calls"] = int(sampling.sum())
    out["sampling.self_s"] = layer_self("sampling")
    out["sampling.degenerate_draws"] = failed_with(
        pick("sampling.orthonormal_columns"), "DegenerateSample"
    )

    for suite in ("monotone", "chentsov", "metric", "channels"):
        out[f"verify.suite_s.{suite}"] = float(dur[pick(f"verify.run_{suite}_suite")].sum())
    out["verify.self_s"] = layer_self("verify")
    return {k: float(v) for k, v in out.items()}
