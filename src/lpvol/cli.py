"""Batch command-line front end.

Subcommands compute plot-ready tables (intrinsic volumes, asymptotic
comparisons, exponential profiles, curvature records, limit-law
convergence) and run self-contained validation suites.  Every output
embeds a manifest (command, parameters, quadrature config, seed, tool
version) and re-running the same invocation reproduces the bytes
exactly, Monte Carlo included; wall time goes to stderr only so it
cannot perturb the output.

Output schema: JSON is canonical ({"schema_version": 1, "manifest":
..., "columns": [...], "rows": [[...]]}, sorted keys, no whitespace,
non-finite numbers as null); CSV is a projection of the same rows with
the manifest on a leading "# manifest=" comment line.  Every numeric
row carries an estimated-error column.

Config files are key=value lines (# comments allowed) overriding the
quadrature defaults: rel_tol, max_subdivisions.

Exit codes: 0 success, 1 validation-suite failure, 2 invalid arguments,
3 quadrature or solver failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .errors import (ConvergenceFailure, DegenerateInput, DomainError,
                     QuadratureFailure)
from .specfun import DEFAULT_CONFIG, QuadConfig
from .exactvol import (PBallSpec, intrinsic_volume, intrinsic_volumes,
                       steiner_polynomial)
from . import oracles
from .oracles import McConfig, steiner_mc_volume
from .asymptotics import (REGIME_PARAMETER, _left_edge_log,
                          bulk_asymptotic, exp_profile, face_index,
                          phase_maximizer, profile_references,
                          right_edge_asymptotic, surface_area_asymptotic)
from .curvature import (boundary_point, curvature_density, gauss_curvature,
                        gauss_map, principal_curvatures, sigma_curvatures,
                        support_function)
from .maxwell import convergence_table

__all__ = ["main"]

SCHEMA_VERSION = 1

# engineering bound for the error columns of solver-backed values
# (documented here, not re-estimated per call): profile/curvature
# solvers iterate to machine precision
_SOLVER_ERR = 1e-12


def _manifest(command: str, parameters: dict, cfg: QuadConfig,
              seed=None) -> dict:
    """Provenance embedded in every output: enough to re-run it."""
    return {"command": command, "parameters": parameters,
            "config": asdict(cfg), "seed": seed, "version": __version__}


# -- argument helpers ------------------------------------------------------

def _float_list(text: str, flag: str, kind=float) -> list:
    """Comma-separated values of flag, each parsed by kind (float or
    int)."""
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        noun = "integer" if kind is int else "number"
        raise DomainError(f"{flag} expects a comma-separated {noun} list, "
                          f"got {text!r}")


def _weights_arg(text: str) -> list:
    """--weights takes an inline comma list or a path to a file holding
    one (whitespace or comma separated)."""
    if os.path.exists(text):
        with open(text) as fh:
            text = ",".join(fh.read().replace(",", " ").split())
    return _float_list(text, "--weights")


def _regime_arg(args) -> dict:
    """{flag: value} of the flag that fixes the face index in args.regime
    (REGIME_PARAMETER), for face_index to check; {} on the surface."""
    flag = REGIME_PARAMETER[args.regime]
    return {} if flag is None else {flag: getattr(args, flag)}


def _load_config(path) -> QuadConfig:
    if path is None:
        return DEFAULT_CONFIG
    # each key parses as the type of its default (int or float)
    kinds = {f.name: type(getattr(DEFAULT_CONFIG, f.name))
             for f in fields(QuadConfig)}
    overrides = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, "
                              f"got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in kinds:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = kinds[key](val)
        except ValueError:
            raise DomainError(f"{path}:{lineno}: bad value {val!r} "
                              f"for {key}")
    return replace(DEFAULT_CONFIG, **overrides)


def _pmap(fn, items):
    """Ordered map over the independent rows of a table."""
    return [fn(it) for it in items]


# -- output ----------------------------------------------------------------

def _jsonable(v):
    if isinstance(v, (np.floating, float)):
        v = float(v)
        return v if math.isfinite(v) else None
    if isinstance(v, (np.integer, int)):
        return int(v)
    return v


def _csv_cell(v):
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def _emit(args, manifest: dict, columns, rows) -> None:
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "manifest": manifest,
               "columns": list(columns),
               "rows": [[_jsonable(v) for v in row] for row in rows]}
        text = json.dumps(doc, sort_keys=True,
                          separators=(",", ":")) + "\n"
    else:
        buf = io.StringIO()
        buf.write("# manifest=" + json.dumps(
            {"schema_version": SCHEMA_VERSION, **manifest},
            sort_keys=True, separators=(",", ":")) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -----------------------------------------------------------

def _spec_from(args) -> PBallSpec:
    if args.weights is not None:
        w = _weights_arg(args.weights)
        if len(w) != args.n:
            raise DomainError(f"-n {args.n} but --weights has {len(w)} "
                              f"entries")
        return PBallSpec(p=args.p, weights=w)
    return PBallSpec.unit(args.p, args.n)


def cmd_intrinsic(args) -> int:
    cfg = _load_config(args.config)
    spec = _spec_from(args)
    if args.all:
        js = list(range(spec.n + 1))
        results = intrinsic_volumes(spec, js, cfg)
    elif args.j is None:
        raise DomainError("give -j or --all")
    else:
        js = [args.j]
        results = [intrinsic_volume(spec, args.j, cfg)]
    rows = [(res.j, res.value.value, res.value.log10(), res.est_rel_error)
            for res in results]
    if args.all:
        # the volume sequence must be log-concave: V_j^2 >= V_(j-1) V_(j+1)
        logs = [r[2] for r in rows]
        for j in range(1, spec.n):
            if 2.0 * logs[j] < logs[j - 1] + logs[j + 1] - 1e-9:
                print(f"warning: log-concavity violated at j={j}",
                      file=sys.stderr)
    manifest = _manifest("intrinsic",
                         {"p": args.p, "n": spec.n, "j": js,
                          "weights": None if spec.is_unit
                          else list(map(float, spec.weights))}, cfg)
    _emit(args, manifest,
          ["j", "intrinsic_volume", "log10_intrinsic_volume",
           "est_rel_error"], rows)
    return 0


def cmd_asymptotic(args) -> int:
    cfg = _load_config(args.config)
    ns = _float_list(args.n, "--n", int)
    p = args.p
    kw = _regime_arg(args)
    params = {"p": p, "regime": args.regime, "n": ns, **kw}
    # every row's index is checked before any row is computed
    rows_j = [(n, face_index(args.regime, n, **kw)) for n in ns]

    def row(n_j):
        n, j = n_j
        res = intrinsic_volume(PBallSpec.unit(p, n), j, cfg)
        log_exact = res.value.log_abs
        if args.regime == "surface":
            # the surface area is 2 V_(n-1)
            log_exact += math.log(2.0)
            log_asym = surface_area_asymptotic(p, n).log_abs
        elif args.regime == "bulk":
            log_asym = bulk_asymptotic(p, n, j, cfg).log_abs
        elif args.regime == "left":
            log_asym = _left_edge_log(p, n, j)
        else:
            log_asym = right_edge_asymptotic(p, n, args.m).log_abs
        ln10 = math.log(10.0)
        return (n, log_exact / ln10, log_asym / ln10,
                math.exp(log_exact - log_asym), res.est_rel_error)

    rows = _pmap(row, rows_j)
    _emit(args, _manifest("asymptotic", params, cfg),
          ["n", "log10_exact", "log10_asymptotic", "exact_over_asymptotic",
           "est_rel_error"], rows)
    return 0


def cmd_profile(args) -> int:
    cfg = _load_config(args.config)
    if args.alphas is not None:
        grid = _float_list(args.alphas, "--alphas")
    else:
        step = args.grid
        if not (0.0 < step <= 0.5):
            raise DomainError(f"--grid must lie in (0, 0.5], got {step}")
        count = int(round(1.0 / step))
        grid = [min(1.0, k * step) for k in range(count + 1)]

    def row(alpha):
        pt = exp_profile(args.p, alpha, cfg)
        refs = profile_references(alpha)
        return (alpha, pt.g_value, pt.kappa_term, pt.sup_psi,
                refs.g_inf, refs.g_2, refs.g_1, refs.g_simplex, _SOLVER_ERR)

    rows = _pmap(row, grid)
    _emit(args, _manifest("profile", {"p": args.p, "alpha": grid}, cfg),
          ["alpha", "g_value", "kappa_term", "sup_psi", "g_inf", "g_2",
           "g_1", "g_simplex", "est_error"], rows)
    return 0


def cmd_curvature(args) -> int:
    cfg = _load_config(args.config)
    weights = _weights_arg(args.weights) if args.weights else None
    point = _float_list(args.point, "--point")
    n = len(point)
    if weights is not None and len(weights) != n:
        raise DomainError(f"--point has {n} entries but --weights has "
                          f"{len(weights)}")
    spec = (PBallSpec(p=args.p, weights=weights) if weights
            else PBallSpec.unit(args.p, n))
    m = args.m
    if not 1 <= m <= n:
        raise DomainError(f"--m must lie in 1..{n}, got {m}")
    pt = boundary_point(spec, point)
    lam = principal_curvatures(pt)
    normal = gauss_map(pt)
    rows = []
    for i, v in enumerate(pt.coords):
        rows.append((f"boundary_point_{i + 1}", float(v), 0.0))
    for i, v in enumerate(normal):
        rows.append((f"unit_normal_{i + 1}", float(v), _SOLVER_ERR))
    named = [(f"principal_curvature_{i + 1}", float(v))
             for i, v in enumerate(lam)]
    named += [(f"sigma_{m - 1}_of_curvatures", sigma_curvatures(pt, m)),
              ("gauss_curvature", gauss_curvature(pt)),
              (f"curvature_density_m{m}", curvature_density(pt, m)),
              ("support_at_normal", support_function(spec, normal))]
    for name, v in named:
        rows.append((name, v, _SOLVER_ERR * max(1.0, abs(v))))
    manifest = _manifest("curvature",
                         {"p": args.p, "weights": weights, "point": point,
                          "m": m}, cfg)
    _emit(args, manifest, ["quantity", "value", "est_error"], rows)
    return 0


def cmd_maxwell(args) -> int:
    cfg = _load_config(args.config)
    ns = _float_list(args.n, "--n", int)
    lambdas = _float_list(args.lambdas, "--lambda")
    kw = _regime_arg(args)
    params = {"p": args.p, "regime": args.regime, "lambda": lambdas,
              "n": ns, **kw}
    rows = convergence_table(args.p, args.regime, lambdas, ns, cfg=cfg, **kw)
    _emit(args, _manifest("maxwell", params, cfg),
          ["n", "scaled_moment", "limit", "rel_gap", "est_rel_error"], rows)
    return 0


# -- validation suites -----------------------------------------------------

# (label, body, offset t, closed-form volume of the parallel body or None
# for the Steiner polynomial)
_STEINER_N2 = (
    ("disk parallel volume t=1 vs 4pi", PBallSpec.unit(2.0, 2), 1.0,
     4.0 * math.pi),
    ("p=3 disk parallel volume t=0.5 vs polynomial", PBallSpec.unit(3.0, 2),
     0.5, None),
)
_STEINER_N3 = (
    ("ball parallel volume t=0.5 vs closed form", PBallSpec.unit(2.0, 3),
     0.5, 4.0 * math.pi / 3.0 * 1.5 ** 3),
    ("weighted p=1.5 parallel volume t=1 vs polynomial",
     PBallSpec(p=1.5, weights=(1.0, 2.0, 1.0)), 1.0, None),
)


def _suite_steiner(checks, cfg, seed):
    mc = McConfig(sample_count=200_000, seed=seed)
    out = []
    for label, spec, t, ref in checks:
        if ref is None:
            ref = steiner_polynomial(spec, t, cfg)
        est, se = steiner_mc_volume(spec, t, mc)
        out.append((label, abs(est - ref) <= 3.0 * se,
                    f"est={est:.6f} ref={ref:.6f} se={se:.2e}"))
    return out


def _worst_check(label, devs, bound, what="rel dev"):
    """One suite check: it passes when the largest of the deviations is
    at most bound (a nan deviation fails it)."""
    worst = float(np.max(devs))
    return label, worst <= bound, f"worst {what} {worst:.2e}"


def _suite_ball(cfg, seed):
    devs = []
    for n in (2, 4, 6):
        for res in intrinsic_volumes(PBallSpec.unit(2.0, n), range(n + 1),
                                     cfg):
            ref = oracles.ball_vj(n, res.j)
            devs.append(abs(res.value.value - ref) / ref)
    return [_worst_check("round-ball volumes vs closed form, n <= 6", devs,
                         1e-8)]


def _suite_ellipsoid(cfg, seed):
    w = (1.0, 2.0, 4.0)
    spec = PBallSpec(p=2.0, weights=w)
    semi = [1.0 / a for a in w]
    devs = []
    for j in (1, 2):
        got = intrinsic_volume(spec, j, cfg).value.value
        for form in ("A", "B"):
            ref = oracles.ellipsoid_vj(semi, j, cfg, form=form)
            devs.append(abs(got - ref) / ref)
    return [_worst_check("ellipsoid volumes vs both single-integral forms",
                         devs, 1e-7)]


def _suite_phase(cfg, seed):
    devs = []
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
        ref = (1.0 - beta) / beta
        devs.append(abs(phase_maximizer(2.0, beta, cfg).theta_star - ref)
                    / ref)
    residuals = [phase_maximizer(p, beta, cfg).residual
                 for p in (1.2, 5.0) for beta in (0.2, 0.8)]
    return [_worst_check("p=2 phase maximizer vs (1-beta)/beta", devs, 1e-10),
            _worst_check("stationarity residual at general p", residuals,
                         1e-10, "residual")]


def _suite_profile(cfg, seed):
    alphas = [min(1.0, 0.05 * k) for k in range(21)]
    devs = [abs(exp_profile(2.0, a, cfg).g_value
                - profile_references(a).g_2) for a in alphas]
    got = exp_profile(3.0, 1.0, cfg).g_value
    ref = math.log(2.0 * (3.0 * math.e) ** (1.0 / 3.0)
                   * math.gamma(4.0 / 3.0))
    return [_worst_check("p=2 profile vs closed form on 0.05 grid", devs,
                         1e-8, "abs dev"),
            ("g_p(1) closed form at p=3", abs(got - ref) <= 1e-10,
             f"dev {abs(got - ref):.2e}")]


_SUITES = {
    "steiner-n2": partial(_suite_steiner, _STEINER_N2),
    "steiner-n3": partial(_suite_steiner, _STEINER_N3),
    "ball": _suite_ball,
    "ellipsoid": _suite_ellipsoid,
    "phase": _suite_phase,
    "profile": _suite_profile,
}


def cmd_validate(args) -> int:
    if args.list:
        for name in sorted(_SUITES):
            print(name)
        return 0
    if not args.suites:
        raise DomainError("name at least one suite, or use --list")
    cfg = _load_config(args.config)
    failures = 0
    for name in args.suites:
        if name not in _SUITES:
            raise DomainError(f"unknown suite {name!r}; "
                              f"try: {', '.join(sorted(_SUITES))}")
        for label, ok, detail in _SUITES[name](cfg, args.seed):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {label} ({detail})")
            failures += 0 if ok else 1
    return 1 if failures else 0


# -- parser ----------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output format (default csv)")
    sp.add_argument("--output", metavar="PATH",
                    help="write to a file instead of stdout")
    sp.add_argument("--config", metavar="PATH",
                    help="key=value file overriding quadrature defaults")


def _add_regime_args(sp, regimes):
    """-p, --regime, the list of n, the flag that fixes the face index in
    each regime, and the common flags."""
    sp.add_argument("-p", type=float, required=True)
    sp.add_argument("--regime", required=True, choices=regimes)
    sp.add_argument("--n", required=True, metavar="N1,N2,..")
    sp.add_argument("--alpha", type=float, help="bulk: j = floor(alpha n)")
    sp.add_argument("--j", type=int, help="left: fixed index")
    sp.add_argument("--m", type=int, help="right: codimension, j = n - m")
    _add_common(sp)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpvol",
        description="Exact and asymptotic intrinsic-volume tables for "
                    "coordinate-weighted p-balls.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("intrinsic",
                        help="table of intrinsic volumes V_0..V_n")
    sp.add_argument("-p", type=float, required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-j", type=int, help="single index")
    sp.add_argument("--all", action="store_true", help="all j = 0..n")
    sp.add_argument("--weights",
                    help="comma list a_1,..,a_n or a file holding one")
    _add_common(sp)
    sp.set_defaults(func=cmd_intrinsic)

    sp = sub.add_parser("asymptotic",
                        help="exact vs asymptotic volumes across n")
    _add_regime_args(sp, ("bulk", "left", "right", "surface"))
    sp.set_defaults(func=cmd_asymptotic)

    sp = sub.add_parser("profile",
                        help="exponential growth profile with references")
    sp.add_argument("-p", type=float, required=True)
    sp.add_argument("--grid", type=float, default=0.05,
                    metavar="STEP", help="alpha step (default 0.05)")
    sp.add_argument("--alphas", metavar="A1,A2,..",
                    help="explicit alpha list instead of a grid")
    _add_common(sp)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("curvature",
                        help="curvature record at one boundary point")
    sp.add_argument("-p", type=float, required=True)
    sp.add_argument("--point", required=True, metavar="X1,X2,..",
                    help="any nonzero vector; lifted radially to the "
                         "boundary")
    sp.add_argument("--weights",
                    help="comma list a_1,..,a_n or a file holding one")
    sp.add_argument("--m", type=int, default=1,
                    help="codimension for sigma and density (default 1)")
    _add_common(sp)
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("maxwell",
                        help="scaled moments vs limit-law values")
    _add_regime_args(sp, ("bulk", "left", "right"))
    sp.add_argument("--lambda", dest="lambdas", required=True,
                    metavar="L1,L2,..", help="moment exponents")
    sp.set_defaults(func=cmd_maxwell)

    sp = sub.add_parser("validate", help="run self-check suites")
    sp.add_argument("suites", nargs="*", metavar="SUITE")
    sp.add_argument("--list", action="store_true",
                    help="list available suites")
    sp.add_argument("--seed", type=int, default=0,
                    help="Monte Carlo seed (default 0)")
    sp.add_argument("--config", metavar="PATH",
                    help="key=value file overriding quadrature defaults")
    sp.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:        # argparse already printed the message
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except (DomainError, DegenerateInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureFailure, ConvergenceFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"# wall_time_s={time.perf_counter() - start:.3f}",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
