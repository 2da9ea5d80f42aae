"""Correctness checks behind the benchmark's failure count.

An operation is one output row, or one check of `lpvol validate`.  It
fails when its process exits with an unexpected code, when the row or
check is missing, when a value is not finite, when its reported error
is not a finite number in [0, MAX_EST_ERROR], or when a value misses its
reference by more than the tolerance below.

References, in order of preference:
- closed forms, valid for every seed (V_0 = 1, the volume V_n, the
  Euclidean ball's intrinsic volumes and surface area, the p = 2 and
  cube growth profiles, g_p(1), the Monte Carlo closed-form bodies);
- values recorded at this benchmark's default seed (references.json),
  used for commands whose inputs do not depend on the seed, and for
  seed-dependent commands only at the recorded seed.  Other seeds get
  the finite-value and reported-error checks only.

Monte Carlo checks: `lpvol validate` prints PASS/FAIL at 3 standard
errors, so a correct program fails one of its four checks in about one
seed in a hundred.  The benchmark records each 3-sigma outcome, but it
counts a check as failed only when the estimate misses the benchmark's
own reference by more than MC_SIGMAS standard errors (about 6e-7 false
alarms per check).

Run `python bench/checks.py --record` to rewrite references.json from
the working tree at the default seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "references.json")

REL_TOL = 1e-8          # relative, on values and (via logs) log values
MAX_EST_ERROR = 1e-6    # largest reported relative error accepted
MC_SIGMAS = 5.0
MC_REF_ABS = 1e-6       # validate prints its reference with 6 decimals

LN10 = math.log(10.0)

COLUMNS = {
    "intrinsic": (("j", "key"), ("intrinsic_volume", "lin"),
                  ("log10_intrinsic_volume", "log10"),
                  ("est_rel_error", "err")),
    "asymptotic": (("n", "key"), ("log10_exact", "log10"),
                   ("log10_asymptotic", "log10"),
                   ("exact_over_asymptotic", "lin"),
                   ("est_rel_error", "err")),
    "profile": (("alpha", "key"), ("g_value", "abs"), ("kappa_term", "abs"),
                ("sup_psi", "abs"), ("g_inf", "abs"), ("g_2", "abs"),
                ("g_1", "abs"), ("g_simplex", "abs"), ("est_error", "err")),
    "maxwell": (("n", "key"), ("scaled_moment", "lin"), ("limit", "lin"),
                ("rel_gap", "abs"), ("est_rel_error", "err")),
}

_VALIDATE_LINE = re.compile(
    r"^(PASS|FAIL) [\w-]+: (.*) \(est=(\S+) ref=(\S+) se=(\S+)\)$")


@dataclass
class Outcome:
    """Result of checking one process: counts and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    mc_3sigma_fails: int = 0

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.mc_3sigma_fails += other.mc_3sigma_fails


# -- closed forms ------------------------------------------------------------

def _log_kappa(m: float) -> float:
    """log volume of the m-dimensional Euclidean unit ball."""
    return 0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m + 1.0)


def _log_volume(p: float, n: int) -> float:
    """log volume of the unit lp-ball, (2 Gamma(1 + 1/p))^n / Gamma(1 + n/p)."""
    return (n * (math.log(2.0) + math.lgamma(1.0 + 1.0 / p))
            - math.lgamma(1.0 + n / p))


def _log_ball_vj(n: int, j: int) -> float:
    log_choose = (math.lgamma(n + 1.0) - math.lgamma(j + 1.0)
                  - math.lgamma(n - j + 1.0))
    return log_choose + _log_kappa(n) - _log_kappa(n - j)


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def _closed_forms(key: str, row: dict) -> list:
    """(column, expected, kind) triples that hold for every seed."""
    out = []
    if key in ("intrinsic_p3_n60", "intrinsic_p2_n40"):
        p, n = (3.0, 60) if key == "intrinsic_p3_n60" else (2.0, 40)
        j = int(row["j"])
        log_v = None
        if j == 0:
            log_v = 0.0
        elif j == n:
            log_v = _log_volume(p, n)
        elif p == 2.0:
            log_v = _log_ball_vj(n, j)
        if log_v is not None:
            out.append(("intrinsic_volume", math.exp(log_v), "lin"))
            out.append(("log10_intrinsic_volume", log_v / LN10, "log10"))
    elif key == "asymptotic_p2_surface":
        n = int(row["n"])
        log_s = math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)
        out.append(("log10_exact", log_s / LN10, "log10"))
    elif key == "profile_p3":
        a = row["alpha"]
        out.append(("g_inf", -_xlogx(a) - _xlogx(1.0 - a) + a * math.log(2.0),
                    "abs"))
        out.append(("g_2", -_xlogx(a) - 0.5 * _xlogx(1.0 - a)
                    + 0.5 * a * math.log(2.0 * math.pi * math.e), "abs"))
        if a == 1.0:
            out.append(("g_value", math.log(2.0 * (3.0 * math.e) ** (1.0 / 3.0)
                                            * math.gamma(4.0 / 3.0)), "abs"))
    return out


MC_CLOSED_FORMS = {
    "disk parallel volume t=1 vs 4pi": 4.0 * math.pi,
    "ball parallel volume t=0.5 vs closed form": 4.0 * math.pi / 3.0 * 1.5 ** 3,
}


# -- comparisons -------------------------------------------------------------

def _mismatch(got: float, want: float, kind: str) -> bool:
    if kind == "lin":
        return abs(got - want) > REL_TOL * abs(want) if want != 0.0 \
            else abs(got) > REL_TOL
    if kind == "log10":
        return abs(got - want) > REL_TOL / LN10
    if kind == "abs":
        return abs(got - want) > REL_TOL
    return got != want


def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _reference_for(command, refs: dict, seed: int):
    entry = refs.get(command.key)
    if entry is None:
        return None
    if command.seed_dependent and entry.get("seed") != seed:
        return None
    return entry


def parse_table(stdout: str):
    """CSV document -> (header, rows as float lists); raises ValueError."""
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("# manifest="):
        raise ValueError("output does not start with a manifest line")
    reader = csv.reader(lines[1:])
    header = next(reader)
    rows = [[float(cell) for cell in row] for row in reader if row]
    return header, rows


def _check_table(command, code: int, stdout: str, refs: dict,
                 seed: int) -> Outcome:
    out = Outcome(attempted=len(command.keys))
    columns = COLUMNS[command.kind]
    if code != 0:
        out.failed = out.attempted
        out.problems.append(f"{command.key}: exit code {code}")
        return out
    try:
        header, rows = parse_table(stdout)
    except (ValueError, StopIteration) as exc:
        out.failed = out.attempted
        out.problems.append(f"{command.key}: unparsable output ({exc})")
        return out
    if tuple(header) != tuple(name for name, _ in columns):
        out.failed = out.attempted
        out.problems.append(f"{command.key}: unexpected columns {header}")
        return out
    ref = _reference_for(command, refs, seed)
    ref_rows = {r[0]: r for r in ref["rows"]} if ref else {}
    by_key = {r[0]: r for r in rows}
    for key in command.keys:
        problem = None
        row = by_key.get(float(key))
        if row is None:
            problem = "missing row"
        elif not all(math.isfinite(v) for v in row):
            problem = f"non-finite value in {row}"
        else:
            named = dict(zip(header, row))
            for name, kind in columns:
                if (problem is None and kind == "err"
                        and not 0.0 <= named[name] <= MAX_EST_ERROR):
                    problem = f"{name}={named[name]!r} outside [0, {MAX_EST_ERROR}]"
            expected = _closed_forms(command.key, named)
            if float(key) in ref_rows:
                expected += [(name, ref_rows[float(key)][i], kind)
                             for i, (name, kind) in enumerate(columns)
                             if kind in ("lin", "log10", "abs")]
            for name, want, kind in expected:
                if problem is None and _mismatch(named[name], want, kind):
                    problem = f"{name}={named[name]!r}, reference {want!r}"
        if problem is not None:
            out.failed += 1
            out.problems.append(f"{command.key} row {key}: {problem}")
    return out


def parse_validate(stdout: str) -> dict:
    """validate output -> {label: (passed, est, ref, se)}."""
    found = {}
    for line in stdout.splitlines():
        m = _VALIDATE_LINE.match(line.strip())
        if m:
            found[m.group(2)] = (m.group(1) == "PASS", float(m.group(3)),
                                 float(m.group(4)), float(m.group(5)))
    return found


def _check_validate(command, code: int, stdout: str, refs: dict) -> Outcome:
    out = Outcome(attempted=len(command.keys))
    found = parse_validate(stdout)
    if code not in (0, 1) or (code == 1) != any(
            not rec[0] for rec in found.values()):
        out.failed = out.attempted
        out.problems.append(f"{command.key}: exit code {code} with "
                            f"{sum(not r[0] for r in found.values())} FAIL lines")
        return out
    recorded = refs.get("mc_references", {})
    for label in command.keys:
        rec = found.get(label)
        problem = None
        if rec is None:
            problem = "missing check"
        else:
            passed, est, ref, se = rec
            out.mc_3sigma_fails += 0 if passed else 1
            want = MC_CLOSED_FORMS.get(label, recorded.get(label))
            if not all(math.isfinite(v) for v in (est, ref, se)) or se <= 0.0:
                problem = f"non-finite or non-positive value in {rec}"
            elif want is not None and abs(ref - want) > MC_REF_ABS:
                problem = f"ref={ref!r}, reference {want!r}"
            elif want is not None and abs(est - want) > MC_SIGMAS * se:
                problem = (f"est={est!r} is {abs(est - want) / se:.1f} se "
                           f"from {want!r}")
        if problem is not None:
            out.failed += 1
            out.problems.append(f"{command.key} {label!r}: {problem}")
    return out


def check(command, code: int, stdout: str, refs: dict, seed: int) -> Outcome:
    """Check the output of one process running command."""
    if command.kind == "validate":
        return _check_validate(command, code, stdout, refs)
    return _check_table(command, code, stdout, refs, seed)


# -- recording ---------------------------------------------------------------

def record() -> None:
    """Rewrite references.json from the working tree at the default seed."""
    root = os.path.dirname(HERE)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("LPVOL_THREADS", None)
    inputs = workloads.make_inputs(workloads.DEFAULT_SEED)
    refs = {"mc_references": {}}
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench_work_") as work:
        for name in workloads.WORKLOADS:
            for command in workloads.build(name, inputs, work):
                done = subprocess.run(
                    [sys.executable, "-m", "lpvol.cli", *command.argv],
                    capture_output=True, text=True, env=env, cwd=root,
                    check=False)
                if command.kind == "validate":
                    for label, rec in parse_validate(done.stdout).items():
                        if label not in MC_CLOSED_FORMS:
                            refs["mc_references"][label] = rec[2]
                    continue
                if done.returncode != 0:
                    raise SystemExit(f"{command.key} exited "
                                     f"{done.returncode}: {done.stderr}")
                _, rows = parse_table(done.stdout)
                argv = [os.path.basename(a) if a.startswith(work) else a
                        for a in command.argv]
                entry = {"argv": argv, "rows": rows}
                if command.seed_dependent:
                    entry["seed"] = inputs.seed
                refs[command.key] = entry
    with open(REFERENCE_FILE, "w") as fh:
        fh.write(_format(refs))


def _format(refs: dict) -> str:
    """JSON with one table row per line, so reference diffs stay readable."""
    parts = []
    for key in sorted(refs):
        entry = refs[key]
        if isinstance(entry, dict) and "rows" in entry:
            head = {k: v for k, v in entry.items() if k != "rows"}
            rows = ",\n".join("   " + json.dumps(r) for r in entry["rows"])
            body = json.dumps(head, sort_keys=True)[:-1]
            text = f'{body}, "rows": [\n{rows}\n  ]}}'
        else:
            text = json.dumps(entry, sort_keys=True)
        parts.append(f" {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python bench/checks.py --record")
    record()
