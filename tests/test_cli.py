import json
import subprocess
import sys
from pathlib import Path

import pytest

import qzeta
from qzeta import UsageError
from qzeta.cli import main, parse_cli


class TestParsing:
    def test_defaults_reproduce_reference_run(self):
        config, out = parse_cli([])
        assert config.a == 750.0
        assert config.d == 2.0
        assert config.y_max == 48.5406
        assert config.y_list is None
        assert config.target == "sharp"
        assert config.search.c_initial == 4
        assert config.search.c_schedule == (4, 6, 9)
        assert config.output_format == "text"
        assert out is None

    def test_explicit_seeds(self):
        config, _ = parse_cli(["--y", "14.2", "--y", "21.1"])
        assert config.y_max is None
        assert config.y_list == (14.2, 21.1)

    def test_polynomial_target(self):
        config, _ = parse_cli(["--target", "poly:1,0,-1", "--y", "1"])
        assert config.target == "poly"
        assert config.poly_coefficients == (1 + 0j, 0j, -1 + 0j)
        assert config.y_list == (1.0,)

    def test_complex_coefficients(self):
        config, _ = parse_cli(["--target", "poly:1,-1-2j", "--y", "2"])
        assert config.poly_coefficients == (1 + 0j, -1 - 2j)

    def test_search_knobs(self):
        config, _ = parse_cli(
            ["--kappa", "0.4", "--vv-max", "0.7", "--de-admissible", "1e-5",
             "--c-schedule", "4,8", "--newton-max-iters", "3"]
        )
        assert config.search.kappa == 0.4
        assert config.search.vv_max == 0.7
        assert config.search.de_admissible == 1e-5
        assert config.search.c_schedule == (4, 8)
        assert config.search.newton_max_iters == 3

    def test_c_override_builds_schedule(self):
        config, _ = parse_cli(["--c", "6"])
        assert config.search.c_initial == 6
        assert config.search.c_schedule == (6, 9, 14)

    def test_bad_target(self):
        with pytest.raises(UsageError):
            parse_cli(["--target", "spline"])
        with pytest.raises(UsageError):
            parse_cli(["--target", "poly:one,two"])

    def test_bad_schedule(self):
        with pytest.raises(UsageError):
            parse_cli(["--c-schedule", "9,6"])

    def test_seed_flags_are_exclusive(self):
        with pytest.raises(UsageError):
            parse_cli(["--y", "14.2", "--y-max", "30"])


class TestMain:
    def test_small_run_exit_zero(self, capsys):
        assert main(["--y-max", "15"]) == 0
        out = capsys.readouterr().out
        assert "FINAL LIST OF Q-ZEROS:" in out

    def test_json_format(self, capsys):
        assert main(["--y-max", "15", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["zeros"]) == 1

    def test_csv_format(self, capsys):
        assert main(["--y-max", "15", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("y,re_za,im_za")

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        assert main(["--y-max", "15", "--format", "json", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["config"]["y_max"] == 15.0

    def test_usage_error_exit_two(self, capsys):
        assert main(["--target", "spline"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["--bogus"])
        assert info.value.code == 2

    def test_plot_data_appended(self, capsys):
        assert main(["--y-max", "15", "--plot-data"]) == 0
        out = capsys.readouterr().out
        assert "FINAL LIST OF Q-ZEROS:" in out
        assert "y,re_za,im_za" in out

    def test_poly_linear_run(self, capsys):
        code = main(["--target", "poly:1,-0.3-20j", "--y", "20", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2


class TestConsoleScript:
    def test_entry_point_runs(self):
        process = subprocess.run(
            [sys.executable, "-m", "qzeta.cli", "--y-max", "10"],
            # run the package under test, installed or not
            cwd=Path(qzeta.__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == 0
        assert "no zeros requested" in process.stdout
