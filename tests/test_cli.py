"""End-to-end tests of the command-line front end, run in process.

Focus areas: correctness of the emitted tables against closed forms,
byte determinism across reruns, the documented output schema, the
exit-code contract, and what a fresh process imports at start-up.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lpvol import cli, maxwell
from lpvol.cli import main
from lpvol.exactvol import PBallSpec, intrinsic_volume
from lpvol.specfun import DEFAULT_CONFIG


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestIntrinsicCommand:
    def test_round_ball_table(self, capsys):
        rc, out, _ = run(capsys, [
            "intrinsic", "-p", "2", "-n", "3", "--all", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(out)
        values = {row[0]: row[1] for row in doc["rows"]}
        assert values[0] == pytest.approx(1.0, rel=1e-10)
        assert values[1] == pytest.approx(4.0, rel=1e-10)
        assert values[2] == pytest.approx(2.0 * math.pi, rel=1e-10)
        assert values[3] == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)
        assert doc["columns"][:2] == ["j", "intrinsic_volume"]

    def test_weighted_ellipse_area(self, capsys):
        rc, out, _ = run(capsys, [
            "intrinsic", "-p", "2", "-n", "2", "-j", "2",
            "--weights", "1,2", "--format", "json",
        ])
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert row[1] == pytest.approx(math.pi / 2.0, rel=1e-9)

    def test_weights_file(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.0 2.0\n")
        rc, out, _ = run(capsys, [
            "intrinsic", "-p", "2", "-n", "2", "-j", "2",
            "--weights", str(path), "--format", "json",
        ])
        assert rc == 0
        assert json.loads(out)["rows"][0][1] == pytest.approx(
            math.pi / 2.0, rel=1e-9
        )

    def test_input_files_are_closed(self, tmp_path):
        # an unclosed weights or config file is reported on stderr as
        # "Exception ignored ... unclosed file" when the process ends
        weights = tmp_path / "w.txt"
        weights.write_text("1.0 2.0\n")
        config = tmp_path / "q.cfg"
        config.write_text("rel_tol=1e-10\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m",
             "lpvol.cli", "intrinsic", "-p", "2", "-n", "2", "-j", "1",
             "--weights", str(weights), "--config", str(config)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert "Exception" not in proc.stderr

    def test_requires_index_choice(self, capsys):
        rc, _, err = run(capsys, ["intrinsic", "-p", "2", "-n", "3"])
        assert rc == 2
        assert "give -j or --all" in err

    def test_no_concavity_warning_for_ball(self, capsys):
        rc, _, err = run(capsys, [
            "intrinsic", "-p", "2", "-n", "5", "--all",
        ])
        assert rc == 0
        assert "log-concavity" not in err

    def test_thousand_equal_weights_scale_the_unit_ball(self, capsys,
                                                        tmp_path):
        # weights all 2 give the unit ball scaled by 1/2, so V_500 is
        # 2^-500 times the unit ball's; n = 1000 runs the leave-one-out
        # engine over 1000 factors
        path = tmp_path / "w.txt"
        path.write_text(",".join(["2.0"] * 1000) + "\n")
        rows = []
        for extra in (["--weights", str(path)], []):
            rc, out, err = run(capsys, [
                "intrinsic", "-p", "3", "-n", "1000", "-j", "500",
                "--format", "json", *extra,
            ])
            assert rc == 0, err
            rows.append(json.loads(out)["rows"][0])
        (_, weighted, _, err_w), (_, unit, _, err_u) = rows
        gap = abs(math.log(weighted) + 500.0 * math.log(2.0)
                  - math.log(unit))
        assert gap <= err_w + err_u

    @pytest.mark.parametrize("argv, weights", [
        (["-p", "3", "-n", "60"], None),
        (["-p", "3", "-n", "5", "--weights", "1,2,0.5,1.5,0.8"],
         (1.0, 2.0, 0.5, 1.5, 0.8)),
        (["-p", "1.5", "-n", "5", "--weights", "1,2,0.5,1.5,0.8"],
         (1.0, 2.0, 0.5, 1.5, 0.8)),
    ])
    def test_all_rows_match_single_index_calls(self, capsys, cfg, argv,
                                               weights):
        # --all integrates every j on one shared theta mesh; each row must
        # agree with the single-index call within its own reported error
        rc, out, _ = run(capsys, ["intrinsic", *argv, "--all",
                                  "--format", "json"])
        assert rc == 0
        rows = json.loads(out)["rows"]
        n = int(argv[3])
        spec = (PBallSpec.unit(float(argv[1]), n) if weights is None
                else PBallSpec(float(argv[1]), weights))
        assert [row[0] for row in rows] == list(range(n + 1))
        for j, value, _, err in rows:
            single = intrinsic_volume(spec, j, cfg)
            assert abs(value - single.value.value) <= value * err, j

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights, want", [
        ("1e100,1,1", 0), ("1e-154,1,1", 0),
        ("1e150,1,1", 2), ("1e160,1,1", 2), ("1e-300,1,1", 2),
    ])
    def test_extreme_weights_give_values_or_exit_two(self, capsys, weights,
                                                     want):
        # theta a^2 (1e150), a^2 (1e160) or log a^2 (1e-300) once left
        # the double range: a numpy warning, an error in this test, or
        # the F-table's internal t-argument check
        rc, out, err = run(capsys, [
            "intrinsic", "-p", "3", "-n", "3", "--all",
            "--weights", weights, "--format", "json",
        ])
        assert rc == want, err
        if rc == 2:
            assert "weights must lie in [1e-154, 1e+100]" in err
        else:
            assert all(isinstance(row[1], float) and row[1] > 0.0
                       for row in json.loads(out)["rows"])

    def test_large_exponent_volumes_rise_to_the_cube(self, capsys):
        # V_1 of the unit p-ball in R^5 rises to the cube's 2n = 10 as
        # 10 - c/p; from p ~ 1.6e4 on the F-table once missed its
        # kernel's drop at u = 1 and printed V_1 = 7.2e-77 with exit 0
        deficits = []
        for p in ("1e4", "2e4", "1e5"):
            rc, out, err = run(capsys, [
                "intrinsic", "-p", p, "-n", "5", "-j", "1", "--format", "json",
            ])
            assert rc == 0, err
            ((_, v1, _, rel),) = json.loads(out)["rows"]
            assert v1 < 10.0 and rel < 1e-8
            deficits.append(float(p) * (10.0 - v1))
        assert max(deficits) / min(deficits) - 1.0 < 1e-3

    def test_exponent_beyond_the_table_is_two(self, capsys):
        rc, out, err = run(capsys, [
            "intrinsic", "-p", "2e5", "-n", "5", "-j", "1",
        ])
        assert rc == 2 and out == ""
        assert "F-family table" in err

    def test_weight_length_mismatch(self, capsys):
        rc, _, err = run(capsys, [
            "intrinsic", "-p", "2", "-n", "3", "-j", "1", "--weights", "1,2",
        ])
        assert rc == 2

    def test_weights_directory_is_two(self, capsys, tmp_path):
        rc, out, err = run(capsys, [
            "intrinsic", "-p", "3", "-n", "4", "-j", "2",
            "--weights", str(tmp_path),
        ])
        assert rc == 2 and out == ""
        assert err.startswith(f"error: cannot read --weights file {tmp_path}")


class TestCommandContract:
    """Each table command returns (parameters, columns, rows) and writes
    nothing; main alone writes the manifest and the table."""

    @pytest.mark.parametrize("argv", [
        ["intrinsic", "-p", "3", "-n", "8", "--all"],
        ["intrinsic", "-p", "1.5", "-n", "4", "-j", "2",
         "--weights", "0.5,1.2,1.9,0.8"],
        ["asymptotic", "-p", "1.5", "--regime", "bulk", "--alpha", "0.5",
         "--n", "20,40"],
        ["asymptotic", "-p", "2", "--regime", "surface", "--n", "20,40"],
        ["profile", "-p", "3", "--grid", "0.25"],
        ["curvature", "-p", "3", "--point", "1,2,3", "--m", "2"],
        ["maxwell", "-p", "3", "--regime", "bulk", "--alpha", "0.5",
         "--lambda", "2", "--n", "16,32"],
        ["maxwell", "-p", "1.5", "--regime", "left", "--j", "2",
         "--lambda", "2", "--n", "16,32"],
    ])
    def test_command_returns_its_table(self, capsys, argv):
        args = cli._build_parser().parse_args(argv)
        result = args.func(args, DEFAULT_CONFIG)
        assert capsys.readouterr().out == ""
        assert isinstance(result, tuple) and len(result) == 3
        params, columns, rows = result
        assert isinstance(params, dict)
        assert rows and all(len(row) == len(columns) for row in rows)


class TestOutputContract:
    ARGV = ["intrinsic", "-p", "2.5", "-n", "3", "--all"]

    def test_json_is_canonical(self, capsys):
        rc, out, _ = run(capsys, self.ARGV + ["--format", "json"])
        assert rc == 0
        doc = json.loads(out)
        assert out == json.dumps(
            doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert doc["schema_version"] == 1
        man = doc["manifest"]
        assert man["command"] == "intrinsic"
        assert man["parameters"]["p"] == 2.5
        assert set(man["config"]) == {"rel_tol", "max_subdivisions"}
        assert "seed" in man and "version" in man

    def test_csv_projection_round_trips(self, capsys):
        rc, csv_out, _ = run(capsys, self.ARGV)
        rc2, json_out, _ = run(capsys, self.ARGV + ["--format", "json"])
        assert rc == 0 and rc2 == 0
        lines = csv_out.splitlines()
        head = "# manifest="
        assert lines[0].startswith(head)
        man = json.loads(lines[0][len(head):])
        assert man["schema_version"] == 1
        doc = json.loads(json_out)
        assert lines[1].split(",") == doc["columns"]
        for line, row in zip(lines[2:], doc["rows"]):
            cells = line.split(",")
            # repr floats reproduce the exact binary values
            assert int(cells[0]) == row[0]
            for cell, val in zip(cells[1:], row[1:]):
                assert float(cell) == val

    def test_reruns_are_byte_identical(self, capsys):
        # The last two commands printed different bytes from run to run
        # while table rows were computed on a thread pool, but only some
        # of the time, so one passing run of them proved little.
        for argv in (self.ARGV + ["--format", "json"],
                     ["intrinsic", "-p", "3", "-n", "60", "--all"],
                     ["intrinsic", "-p", "1.5", "-n", "5", "--all",
                      "--weights", "1,2,0.5,1.5,0.8"],
                     ["asymptotic", "-p", "1.5", "--regime", "bulk",
                      "--alpha", "0.5", "--n", "20,40,80,160"]):
            rc, first, _ = run(capsys, argv)
            _, second, _ = run(capsys, argv)
            assert rc == 0
            assert first == second, argv

    def test_fresh_processes_print_the_same_table(self):
        # a process's first --all table, with the F-interpolant built
        # inside it, is what a user gets
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "lpvol.cli", "intrinsic", "-p", "3",
                "-n", "60", "--all"]
        first, second = (subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=120,
            check=True).stdout for _ in range(2))
        assert first.count("\n") == 63
        assert first == second

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, self.ARGV)
        path = tmp_path / "table.csv"
        rc, out, _ = run(capsys, self.ARGV + ["--output", str(path)])
        assert rc == 0
        assert out == ""
        assert path.read_text() == stdout_text

    @pytest.mark.parametrize("target", ["missing/table.csv", "."])
    def test_unwritable_output_is_two(self, capsys, tmp_path, target):
        # a missing parent directory, and a directory in place of a file
        path = tmp_path / target
        rc, out, err = run(capsys, ["intrinsic", "-p", "3", "-n", "2", "-j",
                                    "1", "--output", str(path)])
        assert rc == 2 and out == ""
        assert err.startswith(f"error: cannot write --output file {path}")

    def test_config_override_lands_in_manifest(self, capsys, tmp_path):
        path = tmp_path / "quad.cfg"
        path.write_text("# loose run\nrel_tol = 1e-06\n")
        rc, out, _ = run(capsys, self.ARGV + [
            "--format", "json", "--config", str(path),
        ])
        assert rc == 0
        assert json.loads(out)["manifest"]["config"]["rel_tol"] == 1e-06

    def test_unknown_config_key(self, capsys, tmp_path):
        path = tmp_path / "quad.cfg"
        path.write_text("rel_tol=1e-8\nspeed=11\n")
        rc, _, err = run(capsys, self.ARGV + ["--config", str(path)])
        assert rc == 2
        assert f"{path}:2" in err and "speed" in err

    @pytest.mark.parametrize("key", ["theta_truncation_factor",
                                     "singularity_split", "abs_tol"])
    def test_former_config_key_is_unknown(self, capsys, tmp_path, key):
        path = tmp_path / "quad.cfg"
        path.write_text(f"{key}=0.5\n")
        rc, _, err = run(capsys, self.ARGV + ["--config", str(path)])
        assert rc == 2
        assert "unknown config key" in err and key in err

    def test_bad_config_value(self, capsys, tmp_path):
        path = tmp_path / "quad.cfg"
        path.write_text("rel_tol=fast\n")
        rc, _, err = run(capsys, self.ARGV + ["--config", str(path)])
        assert rc == 2
        assert f"{path}:1" in err

    def test_wall_time_only_on_stderr(self, capsys):
        rc, out, err = run(capsys, self.ARGV)
        assert rc == 0
        assert "wall_time" not in out
        assert "# wall_time_s=" in err


class TestAsymptoticCommand:
    def test_surface_regime(self, capsys):
        rc, out, _ = run(capsys, [
            "asymptotic", "-p", "2", "--regime", "surface",
            "--n", "20,40", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(out)
        assert doc["columns"][3] == "exact_over_asymptotic"
        ratios = [row[3] for row in doc["rows"]]
        # the raw-surface law is already within a percent here
        assert all(abs(r - 1.0) <= 0.02 for r in ratios)
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        # at p = 2 the exact column is the sphere area 2 pi^(n/2)/Gamma(n/2),
        # and each row's error estimate is a real one that bounds it
        for n, log10_exact, _, _, err in doc["rows"]:
            ln10 = math.log(10.0)
            ref = (math.log(2.0) + 0.5 * n * math.log(math.pi)
                   - math.lgamma(0.5 * n)) / ln10
            assert log10_exact == pytest.approx(ref, abs=1e-10 / ln10)
            actual = abs(math.expm1((log10_exact - ref) * ln10))
            assert 0.0 < err < 1e-9
            assert err >= actual

    def test_left_regime_round_ball(self, capsys):
        rc, out, _ = run(capsys, [
            "asymptotic", "-p", "2", "--regime", "left", "--j", "1",
            "--n", "50", "--format", "json",
        ])
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert 10.0 ** row[2] == pytest.approx(
            math.sqrt(2.0 * math.pi * 50.0), rel=1e-9
        )

    def test_left_regime_beyond_double_range(self, capsys):
        # the law is e^1133 here: its row is taken in logs
        rc, out, _ = run(capsys, [
            "asymptotic", "-p", "3", "--regime", "left", "--j", "300",
            "--n", "100000", "--format", "json",
        ])
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert all(isinstance(v, (int, float)) for v in row)
        assert row[2] == pytest.approx(1133.21 / math.log(10.0), rel=1e-5)

    def test_bulk_needs_alpha(self, capsys):
        rc, _, err = run(capsys, [
            "asymptotic", "-p", "2", "--regime", "bulk", "--n", "10",
        ])
        assert rc == 2
        assert "--alpha" in err

    def test_row_validation_precedes_output(self, capsys):
        # alpha too small at the given n: fails fast, emits nothing
        rc, out, _ = run(capsys, [
            "asymptotic", "-p", "2", "--regime", "bulk", "--alpha", "0.01",
            "--n", "20,40",
        ])
        assert rc == 2
        assert out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["--regime", "right", "--m", "30"], "--m"),
        (["--regime", "left", "--j", "30"], "--j"),
    ])
    def test_edge_index_checked_before_any_row(self, capsys, monkeypatch,
                                               argv, flag):
        # j = n - m = -10 and j = 30 lie outside 0..19 at n = 20; the
        # valid row n = 40 must not be computed first
        computed = []
        monkeypatch.setattr(cli, "intrinsic_volume",
                            lambda *a: computed.append(a))
        rc, out, err = run(capsys, ["asymptotic", "-p", "3", *argv,
                                    "--n", "40,20"])
        assert rc == 2 and out == "" and computed == []
        assert err.startswith("error: ") and flag in err
        assert "outside 0..19 at n=20" in err

    def test_huge_alpha_message_names_the_range(self, capsys):
        # floor(alpha n) has 301 digits here; the message leaves them out
        rc, out, err = run(capsys, [
            "asymptotic", "-p", "3", "--regime", "bulk", "--alpha", "1e300",
            "--n", "10",
        ])
        assert rc == 2 and out == ""
        assert err == "error: --alpha 1e+300 gives j outside 1..9 at n=10\n"
        assert len(err) <= 60

    def test_right_regime_ratio_approaches_one(self, capsys):
        rc, out, _ = run(capsys, [
            "asymptotic", "-p", "3", "--regime", "right", "--m", "3",
            "--n", "20,40,80", "--format", "json",
        ])
        assert rc == 0
        ratios = [row[3] for row in json.loads(out)["rows"]]
        assert ratios[0] < ratios[1] < ratios[2] < 1.0
        # 1 - ratio is O(1/n): about halved by each doubling of n
        for a, b in zip(ratios, ratios[1:]):
            assert 0.4 < (1.0 - b) / (1.0 - a) < 0.6

    @pytest.mark.parametrize("argv, message", [
        (["asymptotic", "-p", "2", "--regime", "surface", "--n", "20,x"],
         "--n expects a comma-separated integer list"),
        (["maxwell", "-p", "2", "--regime", "right", "--m", "1",
          "--lambda", "2,y", "--n", "20"],
         "--lambda expects a comma-separated number list"),
        # an empty list would print a header-only table or the empty
        # product
        (["asymptotic", "-p", "3", "--regime", "right", "--m", "1",
          "--n", ","], "--n expects a comma-separated integer list"),
        (["maxwell", "-p", "3", "--regime", "right", "--m", "1",
          "--lambda", ",", "--n", "10"],
         "--lambda expects a comma-separated number list"),
        (["profile", "-p", "3", "--alphas", ","],
         "--alphas expects a comma-separated number list"),
    ])
    def test_bad_list_is_two(self, capsys, argv, message):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert message in err


class TestProfileCommand:
    def test_round_ball_matches_reference_column(self, capsys):
        rc, out, _ = run(capsys, [
            "profile", "-p", "2", "--alphas", "0.0,0.25,0.5,1.0",
            "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(out)
        cols = doc["columns"]
        gi = cols.index("g_value")
        ref = cols.index("g_2")
        for row in doc["rows"]:
            assert row[gi] == pytest.approx(row[ref], abs=1e-8)

    def test_subnormal_alpha_is_a_solver_failure(self, capsys):
        # alpha / p underflows to 0 here, so the kappa term must not take
        # its log
        rc, _, err = run(capsys, ["profile", "-p", "3", "--alphas", "5e-324"])
        assert rc == 3
        assert "Traceback" not in err

    def test_grid_rows_match_reference_column(self, capsys):
        rc, out, _ = run(capsys, [
            "profile", "-p", "2", "--grid", "0.25", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(out)
        cols = doc["columns"]
        assert [row[0] for row in doc["rows"]] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for row in doc["rows"]:
            assert row[cols.index("g_value")] == pytest.approx(
                row[cols.index("g_2")], abs=1e-8)

    def test_grid_step_validated(self, capsys):
        rc, _, err = run(capsys, ["profile", "-p", "2", "--grid", "0.7"])
        assert rc == 2


class TestCurvatureCommand:
    def test_unit_circle_record(self, capsys):
        rc, out, _ = run(capsys, [
            "curvature", "-p", "2", "--point", "1,1", "--format", "json",
        ])
        assert rc == 0
        rows = {row[0]: row[1] for row in json.loads(out)["rows"]}
        s = math.sqrt(0.5)
        assert rows["boundary_point_1"] == pytest.approx(s, rel=1e-12)
        assert rows["unit_normal_2"] == pytest.approx(s, rel=1e-12)
        assert rows["principal_curvature_1"] == pytest.approx(1.0, rel=1e-10)
        assert rows["sigma_0_of_curvatures"] == pytest.approx(1.0, rel=1e-10)
        assert rows["gauss_curvature"] == pytest.approx(1.0, rel=1e-10)
        assert rows["curvature_density_m1"] == pytest.approx(0.5, rel=1e-10)
        assert rows["support_at_normal"] == pytest.approx(1.0, rel=1e-10)

    def test_degenerate_point_rejected(self, capsys):
        rc, _, err = run(capsys, [
            "curvature", "-p", "3", "--point", "1,0",
        ])
        assert rc == 2
        assert "nonzero" in err

    def test_m_range_checked(self, capsys):
        rc, _, _ = run(capsys, [
            "curvature", "-p", "2", "--point", "1,1", "--m", "3",
        ])
        assert rc == 2

    def test_weight_length_mismatch(self, capsys):
        rc, out, err = run(capsys, [
            "curvature", "-p", "2", "--point", "1,1", "--weights", "1,2,3",
        ])
        assert rc == 2 and out == ""
        assert "--point gives n=2 but --weights has 3 entries" in err

    @pytest.mark.parametrize("argv", [
        ["-p", "1000", "--point", "3,1"],
        ["-p", "400", "--point", "0.01,0.02,0.03", "--m", "2"],
        ["-p", "1100", "--point", "1,1", "--weights", "2,1"],
        ["-p", "1000", "--point", "1,1", "--weights", "0.001,0.001"],
    ])
    def test_large_exponent_record_is_finite(self, argv):
        # the radial lift once overflowed here and reported the zero
        # vector, and a_i^p overflows (or underflows) at large p with
        # weights; every warning is an error in this process
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lpvol.cli", "curvature",
             *argv, "--format", "json"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        rows = json.loads(proc.stdout)["rows"]
        # non-finite numbers would print as null
        assert all(isinstance(row[1], float) for row in rows)

    def test_curvature_beyond_the_double_range_is_two(self, capsys):
        rc, out, err = run(capsys, [
            "curvature", "-p", "1.01", "--point", "1,1e-300,1e-300",
            "--m", "3",
        ])
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "double range" in err


class TestMaxwellCommand:
    def test_round_ball_fourth_moment_gaps(self, capsys):
        rc, out, _ = run(capsys, [
            "maxwell", "-p", "2", "--regime", "right", "--m", "1",
            "--lambda", "4", "--n", "20,50,100", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(out)
        gaps = [row[3] for row in doc["rows"]]
        for (n, gap) in zip((20, 50, 100), gaps):
            assert gap == pytest.approx(2.0 / (n + 2.0), rel=1e-8)
        assert gaps[0] > gaps[1] > gaps[2]
        # est_rel_error is each row's own quadrature estimate, and it
        # bounds the error against n^2 E X_1^4 = 3n/(n+2) on the sphere
        for n, moment, _, _, err in doc["rows"]:
            actual = abs(moment / (3.0 * n / (n + 2.0)) - 1.0)
            assert 0.0 < err <= 1e-6
            assert err >= actual
        assert len({row[4] for row in doc["rows"]}) == 3

    def test_round_ball_second_moment_exact(self, capsys):
        rc, out, _ = run(capsys, [
            "maxwell", "-p", "2", "--regime", "bulk", "--alpha", "0.5",
            "--lambda", "2", "--n", "10,20", "--format", "json",
        ])
        assert rc == 0
        assert all(row[3] <= 1e-9 for row in json.loads(out)["rows"])

    def test_regime_parameter_required(self, capsys):
        rc, _, err = run(capsys, [
            "maxwell", "-p", "2", "--regime", "left",
            "--lambda", "2", "--n", "10",
        ])
        assert rc == 2
        assert "--j" in err

    @pytest.mark.parametrize("argv, message", [
        (["--regime", "left", "--j", "30", "--n", "2000,20"],
         "--j 30 gives j=30 outside 0..19 at n=20"),
        (["--regime", "right", "--m", "30", "--n", "40,20"],
         "--m 30 gives j=-10 outside 0..19 at n=20"),
        # a bulk row needs a face on each side of j = floor(alpha n)
        (["--regime", "bulk", "--alpha", "0.01", "--n", "40,20"],
         "--alpha 0.01 gives j=0 outside 1..39 at n=40"),
    ])
    def test_face_index_checked_before_any_row(self, capsys, monkeypatch,
                                               argv, message):
        computed = []
        monkeypatch.setattr(maxwell, "finite_n_moment_ratio",
                            lambda *a: computed.append(a))
        rc, out, err = run(capsys, ["maxwell", "-p", "1.5", "--lambda", "2",
                                    *argv])
        assert rc == 2 and out == "" and computed == []
        assert err == f"error: {message}\n"

    def test_gap_shrinks_at_a_thousand_factors(self, capsys):
        rc, out, err = run(capsys, [
            "maxwell", "-p", "3", "--regime", "bulk", "--alpha", "0.5",
            "--lambda", "2", "--n", "512,1000", "--format", "json",
        ])
        assert rc == 0, err
        (n0, *_, gap0, _), (n1, *_, gap1, _) = json.loads(out)["rows"]
        assert (n0, n1) == (512, 1000)
        assert 0.0 < gap1 < gap0

    def test_bulk_at_large_exponent_under_warnings_as_errors(self):
        # the phase solve's Newton step once overflowed here, which exits
        # 1 when every warning is an error
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lpvol.cli", "maxwell",
             "-p", "4096", "--regime", "bulk", "--alpha", "0.5",
             "--lambda", "2", "--n", "64", "--format", "json"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        (row,) = json.loads(proc.stdout)["rows"]
        assert all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in row)

    def test_left_edge_near_p_one(self, capsys):
        # the gamma value inside lambda0 overflowed a double here; lambda0
        # itself is about 184
        rc, out, err = run(capsys, [
            "maxwell", "-p", "1.001", "--regime", "left", "--j", "2",
            "--lambda", "2", "--n", "64", "--format", "json",
        ])
        assert rc == 0, err
        (row,) = json.loads(out)["rows"]
        assert all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in row)
        rc, out, err = run(capsys, [
            "maxwell", "-p", "1.001", "--regime", "left", "--j", "2",
            "--lambda", "3", "--n", "64",
        ])
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "double range" in err

    @pytest.mark.parametrize("argv", [
        ["-p", "3", "--regime", "right", "--m", "3", "--lambda", "1000"],
        ["-p", "3", "--regime", "left", "--j", "2", "--lambda", "1000"],
        ["-p", "2", "--regime", "left", "--j", "2", "--lambda", "700"],
        ["-p", "3", "--regime", "right", "--m", "3", "--lambda", "500"],
    ])
    def test_moment_beyond_double_range_is_a_domain_error(self, capsys,
                                                          argv):
        rc, out, err = run(capsys, ["maxwell", *argv, "--n", "64"])
        assert rc == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "double range" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["-p", "3", "--regime", "right", "--m", "3", "--lambda", "400",
         "--n", "64,256"],
        # the F-table at nu = 200 and p = 1.5 overflowed u^nu
        ["-p", "1.5", "--regime", "bulk", "--alpha", "0.5", "--lambda",
         "200", "--n", "64"],
    ])
    def test_high_moment_in_range_prints_finite_rows(self, capsys, argv):
        rc, out, _ = run(capsys, ["maxwell", *argv, "--format", "json"])
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == len(argv[-1].split(","))
        # non-finite numbers would print as null
        assert all(isinstance(v, (int, float)) and math.isfinite(v)
                   for row in rows for v in row)


_SCIPY_AFTER_RUNS = """
import contextlib, io, sys
import lpvol.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

# the package metadata reader pulls in the email package
print(sorted(m for m in sys.modules
             if m == "importlib.metadata" or m.split(".")[0] == "email"))
print(scipy_modules())
for argv in (["intrinsic", "-p", "1.5", "-n", "6", "--all"],
             ["asymptotic", "-p", "1.5", "--regime", "bulk",
              "--alpha", "0.5", "--n", "20"],
             ["profile", "-p", "3", "--grid", "0.25"],
             ["maxwell", "-p", "3", "--regime", "bulk", "--alpha", "0.5",
              "--lambda", "2", "--n", "8"],
             ["maxwell", "-p", "1.5", "--regime", "left", "--j", "2",
              "--lambda", "2", "--n", "8"],
             ["maxwell", "-p", "3", "--regime", "right", "--m", "1",
              "--lambda", "2", "--n", "8"]):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert lpvol.cli.main(argv) == 0
    print(scipy_modules())
"""


class TestStartup:
    def test_cli_runs_without_scipy(self):
        # importing scipy is most of a CLI process's start-up; the
        # F-tables, the phase functions, the profiles and the limit laws
        # need none of it, and only the oracles import it when they run.
        # The manifest version comes from lpvol.__version__, so neither
        # importlib.metadata nor email is imported either.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", _SCIPY_AFTER_RUNS],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.split() == ["[]"] * 8


class TestValidateCommand:
    def test_list(self, capsys):
        rc, out, _ = run(capsys, ["validate", "--list"])
        assert rc == 0
        names = out.split()
        assert names == sorted(names)
        assert "ball" in names and "phase" in names

    def test_fast_suites_pass(self, capsys):
        rc, out, _ = run(capsys, [
            "validate", "ball", "ellipsoid", "phase", "profile",
        ])
        assert rc == 0
        lines = [l for l in out.splitlines() if l]
        assert lines and all(l.startswith("PASS") for l in lines)

    def test_unknown_suite(self, capsys):
        rc, _, err = run(capsys, ["validate", "everything"])
        assert rc == 2
        assert "unknown suite" in err

    def test_requires_a_suite(self, capsys):
        rc, _, err = run(capsys, ["validate"])
        assert rc == 2

    def test_config_is_read_before_list(self, capsys):
        rc, out, err = run(capsys, ["validate", "--list",
                                    "--config", "/nonexistent"])
        assert rc == 2 and out == ""
        assert "cannot read config file /nonexistent" in err

    @pytest.mark.parametrize("seed, lines", [
        (0, ("est=12.568160 ref=12.566371 se=1.47e-02",
             "est=7.694100 ref=7.691172 se=7.09e-03",
             "est=14.104935 ref=14.137167 se=3.02e-02",
             "est=22.559040 ref=22.570788 se=5.36e-02")),
        (1, ("est=12.559760 ref=12.566371 se=1.47e-02",
             "est=7.684425 ref=7.691172 se=7.11e-03",
             "est=14.133150 ref=14.137167 se=3.02e-02",
             "est=22.569360 ref=22.570788 se=5.36e-02")),
        (1536780855, ("est=12.582000 ref=12.566371 se=1.47e-02",
                      "est=7.698735 ref=7.691172 se=7.08e-03",
                      "est=14.181750 ref=14.137167 se=3.01e-02",
                      "est=22.599360 ref=22.570788 se=5.36e-02")),
    ])
    def test_steiner_suites_print_fixed_bytes(self, capsys, seed, lines):
        labels = ("steiner-n2: disk parallel volume t=1 vs 4pi",
                  "steiner-n2: p=3 disk parallel volume t=0.5 vs polynomial",
                  "steiner-n3: ball parallel volume t=0.5 vs closed form",
                  "steiner-n3: weighted p=1.5 parallel volume t=1 vs "
                  "polynomial")
        rc, out, _ = run(capsys, ["validate", "steiner-n2", "steiner-n3",
                                  "--seed", str(seed)])
        assert rc == 0
        assert out == "".join(f"PASS {label} ({detail})\n"
                              for label, detail in zip(labels, lines))

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli._SUITES, "rigged",
            lambda cfg, seed: [("always fails", False, "rigged")],
        )
        rc, out, _ = run(capsys, ["validate", "rigged"])
        assert rc == 1
        assert "FAIL rigged: always fails" in out


class TestExitCodes:
    def test_solver_failure_is_three(self, capsys, tmp_path):
        # starving the subdivision budget at a tight tolerance is an
        # honest quadrature failure
        path = tmp_path / "starve.cfg"
        path.write_text("rel_tol=1e-14\nmax_subdivisions=8\n")
        rc, out, err = run(capsys, [
            "intrinsic", "-p", "1.3", "-n", "6", "--all",
            "--config", str(path),
        ])
        assert rc == 3
        assert "error:" in err

    @pytest.mark.parametrize("command, regime, choices", [
        (["asymptotic"], "uniform", "'bulk', 'left', 'right', 'surface'"),
        (["maxwell", "--lambda", "2"], "surface", "'bulk', 'left', 'right'"),
    ])
    def test_regime_choices(self, capsys, command, regime, choices):
        # asymptotic offers every face_index regime, maxwell every regime
        # with a limit law
        rc, out, err = run(capsys, [*command, "-p", "3", "--regime", regime,
                                    "--n", "10"])
        assert rc == 2 and out == ""
        assert f"invalid choice: '{regime}' (choose from {choices})" in err

    def test_unknown_command_is_two(self, capsys):
        rc, _, _ = run(capsys, ["frobnicate"])
        assert rc == 2

    def test_missing_arguments_is_two(self, capsys):
        rc, _, _ = run(capsys, [])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["intrinsic", "-p", "3", "-n", "-5", "--all"],
        ["asymptotic", "-p", "3", "--regime", "surface", "--n", "40,-5"],
        ["asymptotic", "-p", "3", "--regime", "left", "--j", "0",
         "--n", "-5"],
        ["maxwell", "-p", "3", "--regime", "bulk", "--alpha", "0.5",
         "--lambda", "2", "--n", "-5"],
    ])
    def test_negative_dimension_is_two(self, capsys, argv):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert "need dimension n >= 2" in err

    def test_bad_exponent_is_two(self, capsys):
        rc, _, err = run(capsys, [
            "intrinsic", "-p", "0.5", "-n", "3", "--all",
        ])
        assert rc == 2

    @pytest.mark.parametrize("command", [
        ["asymptotic"], ["maxwell", "--lambda", "2"],
    ])
    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e308"])
    def test_bulk_alpha_without_a_finite_index_is_two(self, capsys,
                                                      command, alpha):
        rc, out, err = run(capsys, [
            *command, "-p", "3", "--regime", "bulk", f"--alpha={alpha}",
            "--n", "10",
        ])
        assert rc == 2 and out == ""
        assert "gives no finite face index at n=10" in err
