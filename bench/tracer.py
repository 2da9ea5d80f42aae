"""Traced in-process run of one lpvol CLI command.

    PYTHONPATH=src python bench/tracer.py TRACE.json ARGV...

runs lpvol.cli.main(ARGV) with a timing wrapper around every public
function of each layer (one layer per module of src/lpvol) and writes
the spans and counters to TRACE.json when the command ends.  The
wrappers replace each function in every lpvol module that bound it by
name (exactvol, for example, imports f_family_log_table,
log_theta_integral, quad_gk_log and batched_loo_log), so calls made
through those names are seen too.

A span is recorded where a call crosses from one layer into another;
calls inside one layer only update counters.  Each thread keeps its own
span stack, so rows run by the CLI thread pool get their own root spans.
An integrand evaluated inside a quadrature call is part of that
quadrature span, minus the spans its own calls into other layers open.
Spans inside the package's functions are not recorded.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

_T0 = time.perf_counter()
import lpvol.cli  # noqa: E402  (timed: interpreter-side set-up cost)

IMPORT_S = time.perf_counter() - _T0

# modules whose public functions form a layer; curvature, rng and errors
# are not reached by any workload
LAYERS = ("specfun", "quadrature", "logspace", "symfun", "exactvol",
          "asymptotics", "maxwell", "oracles")

# private functions traced as well: (module, name, span layer)
EXTRA = (("specfun", "_core_log_table", "specfun"),
         ("specfun", "_tail_cutoff", "specfun"),
         ("oracles", "_project_outside", "oracles"),
         ("cli", "_pmap", "pool"),
         ("cli", "main", "cli"))

# functions whose time is also summed into a counter <name>_s
TIMED = {"specfun._tail_cutoff": "specfun.tail_cutoff",
         "oracles._project_outside": "oracles.projection",
         "oracles.steiner_mc_volume": "oracles.mc"}


class Tracer:
    """Spans and counters of one process, written out once at exit."""

    def __init__(self):
        self.spans = []          # (id, parent, name, layer, thread, t0, t1)
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.seen_rows = set()   # (p, t, nu-set, config) F-table rows
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.peaks[name] = max(self.peaks[name], value)

    def wrap(self, layer: str, fn, hook=None):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        timed = TIMED.get(name)
        local = self._local
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            crossing = not stack or stack[-1][1] != layer
            if crossing:
                sid = next(ids)
                parent = stack[-1][0] if stack else None
                stack.append((sid, layer))
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = time.perf_counter()
                if crossing:
                    stack.pop()
                    spans.append((sid, parent, name, layer,
                                  threading.get_ident(), t0, t1))
                if timed is not None:
                    self.add(timed + "_calls")
                    self.add(timed + "_s", t1 - t0)
                if hook is not None:
                    hook(args, kwargs, result, exc, crossing)

        traced.__wrapped__ = fn
        return traced


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


def _hooks(tr: Tracer, mods: dict) -> dict:
    """Counter hooks keyed by qualified function name."""
    specfun = mods["specfun"]
    # bound before install() rebinds them, so hooks open no spans
    as_exponent, as_cfg = specfun.as_exponent, specfun._cfg
    quadrature_failure = sys.modules["lpvol.errors"].QuadratureFailure
    bind_table = _binder(specfun.f_family_log_table)
    bind_loo = _binder(mods["symfun"].batched_loo_log)
    bind_mc = _binder(mods["oracles"].steiner_mc_volume)

    def table(args, kwargs, result, exc, crossing):
        tr.add("specfun.table_calls")
        if exc is not None:
            return
        a = bind_table(args, kwargs)
        ts = set(map(float, a["ts"]))
        nus = tuple(sorted(set(map(float, a["nus"]))))
        tr.add("specfun.cells", len(a["ts"]) * len(a["nus"]))
        tail = (as_exponent(a["p"]), nus, as_cfg(a["cfg"]).cache_key())
        with tr._lock:
            repeats = 0
            for t in ts:
                key = (t,) + tail
                if key in tr.seen_rows:
                    repeats += 1
                else:
                    tr.seen_rows.add(key)
            tr.counts["specfun.rows"] += len(ts)
            tr.counts["specfun.repeat_rows"] += repeats

    def core(args, kwargs, result, exc, crossing):
        tr.add("specfun.core_builds")

    def gk(args, kwargs, result, exc, crossing):
        tr.add("quadrature.gk_calls")
        if exc is None:
            tr.add("quadrature.gk_intervals", result[2])
            tr.peak("quadrature.budget_peak",
                    result[2] / kwargs["max_subdivisions"])
        elif crossing and isinstance(exc, quadrature_failure):
            tr.add("quadrature.failures")

    def theta(args, kwargs, result, exc, crossing):
        tr.add("quadrature.theta_integrals")
        if exc is None:
            tr.add("quadrature.theta_nodes", result[2])
        elif crossing and isinstance(exc, quadrature_failure):
            tr.add("quadrature.failures")

    def logsumexp(args, kwargs, result, exc, crossing):
        tr.add("logspace.logsumexp_calls")

    def loo(args, kwargs, result, exc, crossing):
        tr.add("symfun.loo_calls")
        a = bind_loo(args, kwargs)
        shape = getattr(a["logv"], "shape", ())
        if exc is None and len(shape) == 2:
            t_rows, n = shape
            m = int(a["m"])
            tr.add("symfun.loo_cells", t_rows * n * m)
            tr.add("symfun.bytes_computed", 2 * t_rows * (n + 1) * m * 8)

    def volume_result(args, kwargs, result, exc, crossing):
        if exc is None:
            tr.peak("exactvol.max_est_rel_error", result.est_rel_error)

    def phase(args, kwargs, result, exc, crossing):
        tr.add("asymptotics.phase_solves")

    def rows(args, kwargs, result, exc, crossing):
        if exc is None:
            tr.add("maxwell.rows", len(result))

    def mc(args, kwargs, result, exc, crossing):
        tr.add("oracles.mc_draws", bind_mc(args, kwargs)["mc"].sample_count)

    return {"specfun.f_family_log_table": table,
            "specfun._core_log_table": core,
            "quadrature.quad_gk": gk, "quadrature.quad_gk_log": gk,
            "quadrature.log_theta_integral": theta,
            "logspace.logsumexp_arr": logsumexp,
            "symfun.batched_loo_log": loo,
            "exactvol.intrinsic_volume": volume_result,
            "exactvol.intrinsic_volume_weighted": volume_result,
            "asymptotics.phase_maximizer": phase,
            "maxwell.convergence_table": rows,
            "oracles.steiner_mc_volume": mc}


def _public_functions(mod):
    names = getattr(mod, "__all__", None) or [
        n for n in vars(mod) if not n.startswith("_")]
    for n in names:
        obj = getattr(mod, n)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield n, obj


def install(tr: Tracer) -> None:
    """Wrap every traced function and rebind it wherever lpvol holds it."""
    mods = {name: sys.modules[f"lpvol.{name}"] for name in LAYERS + ("cli",)}
    hooks = _hooks(tr, mods)
    targets = [(layer, fn) for layer in LAYERS
               for _, fn in _public_functions(mods[layer])]
    targets += [(layer, getattr(mods[mod], name))
                for mod, name, layer in EXTRA]
    replace = {}
    for layer, fn in targets:
        qual = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        replace[fn] = tr.wrap(layer, fn, hooks.get(qual))
    holders = [m for n, m in sys.modules.items()
               if n == "lpvol" or n.startswith("lpvol.")]
    for mod in holders:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replace:
                setattr(mod, attr, replace[value])


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE.json ARGV...", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[1:]
    tr = Tracer()
    install(tr)
    t0 = time.perf_counter()
    try:
        code = lpvol.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        doc = {"import_s": IMPORT_S, "main_s": time.perf_counter() - t0,
               "counts": dict(tr.counts), "peaks": dict(tr.peaks),
               "spans": tr.spans}
        with open(out_path, "w") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
