import json
import subprocess
import sys
from pathlib import Path

import pytest

import qzeta
import qzeta.pipeline
from qzeta import UsageError
from qzeta.cli import main, parse_cli


class TestParsing:
    def test_defaults_reproduce_reference_run(self):
        config, args = parse_cli([])
        assert config.a == 750.0
        assert config.d == 2.0
        assert config.y_max == 48.5406
        assert config.y_list is None
        assert config.target == "sharp"
        assert config.search.c_schedule[0] == 4
        assert config.search.c_schedule == (4, 6, 9)
        assert args.format == "text"
        assert args.out is None

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
        config, _ = parse_cli(["--c", "4,8"])
        assert config.search.c_schedule == (4, 8)
        # the protocol's thresholds are constants of the search, not flags
        for flag in ("--kappa", "--vv-max", "--char-tol", "--newton-max-iters"):
            with pytest.raises(SystemExit):
                parse_cli([flag, "1"])

    def test_c_override_builds_schedule(self):
        config, _ = parse_cli(["--c", "6"])
        assert config.search.c_schedule[0] == 6
        assert config.search.c_schedule == (6, 9, 14)
        config, _ = parse_cli(["--c", "4,6,9"])
        assert config.search.c_schedule == (4, 6, 9)
        config, _ = parse_cli(["--c", "5,8"])
        assert config.search.c_schedule == (5, 8)

    def test_bad_target(self):
        with pytest.raises(UsageError):
            parse_cli(["--target", "spline"])
        with pytest.raises(UsageError):
            parse_cli(["--target", "poly:one,two"])
        with pytest.raises(UsageError, match="two coefficients"):
            parse_cli(["--target", "poly:1", "--y", "1"])

    def test_bad_schedule(self):
        for c in ("9,6", "4,,6", "four", ""):
            with pytest.raises(UsageError):
                parse_cli(["--c", c])

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

    @pytest.mark.parametrize(
        "argv",
        [["--y", "0"], ["--y", "-5"], ["--c", "2"], ["--b", "0"], ["--a", "inf"],
         ["--y-max", "0"], ["--y-max", "-3"], ["--y-max", "nan"], ["--y-max", "inf"],
         ["--y-max", "150"], ["--target", "poly:1,-1-2j", "--y", "2", "--b", "5"]],
    )
    def test_config_error_exit_two(self, argv, capsys):
        assert main(argv + ["--format", "csv"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_non_finite_prediction_exit_one(self, capsys):
        # at a=1e308 the first-order correction's denominator overflows
        assert main(["--a", "1e308", "--y-max", "15"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: first-order prediction at y=14.1347")
        assert "a=1e+308" in err
        assert "Traceback" not in err

    def test_region_top_below_axis_exit_one(self, capsys):
        # the prediction 6464.9 - 223.9i leaves no search region above Im k = 0
        assert main(["--a", "0.5", "--d", "0.01", "--y-max", "15"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed 1 (y=14.1347)")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,seeds",
        # seeds above the pole line Im k = 2*eps open rectangles that reach
        # past the series' evaluation band
        [(["--y-max", "100"], 29), (["--a", "500", "--d", "3"], 9)],
    )
    def test_seed_outside_evaluation_band_fails_alone(self, argv, seeds, capsys):
        # zero 7 of a=500, d=3 concludes at Im k = 41.57, above 2*eps = 32.36
        escaped = [7] if "500" in argv else []
        assert main(argv + ["--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        zeros = json.loads(captured.out)["zeros"]
        assert [z["index"] for z in zeros] == list(range(1, seeds + 1))
        stopped = [z for z in zeros if "reason" in z]
        assert stopped
        for z in stopped:
            assert z["verdict"] == "failed"
            if z["index"] in escaped:
                assert z["reason"].endswith(") escaped the search strip")
            else:
                assert z["reason"].startswith("RangeUnsupported: Im k = ")
        assert {z["index"] for z in stopped} >= set(escaped)
        assert main(argv) == 1
        final = capsys.readouterr().out.split("FINAL LIST OF Q-ZEROS:")[1]
        for z in stopped:
            entry = final[final.index(f"failed {z['index']}  "):].splitlines()
            assert entry[2] == f"  reason: {z['reason']}"

    def test_escaped_zero_fails_alone(self, monkeypatch, capsys):
        real = qzeta.pipeline.run_variants

        def escaping(functions, seeds, cfg):
            records = real(functions, seeds, cfg)
            # Re k = -100 lies past the strip's half-width 2*eps = 48.54
            records[0].z = complex(-100.0, records[0].z.imag)
            return records

        monkeypatch.setattr(qzeta.pipeline, "run_variants", escaping)
        assert main(["--y-max", "22"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        final = captured.out.split("FINAL LIST OF Q-ZEROS:")[1].splitlines()
        final = [line for line in final if line]
        assert final[0].startswith("failed 1  14.1347  z: -100.0000 + ")
        assert final[2].startswith("  reason: accepted zero (-100+14.")
        assert final[2].endswith("j) escaped the search strip")
        assert final[3].startswith("very good 2  21.022  z: ")

    def test_b_keeping_no_terms_exit_two(self, capsys):
        assert main(["--a", "1e-3", "--d", "1", "--b", "5", "--y-max", "15"]) == 2
        err = capsys.readouterr().err
        assert "error: truncation b*sqrt(a/d) keeps no terms" in err
        assert "Traceback" not in err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["--bogus"])
        assert info.value.code == 2

    def test_plot_data_appended(self, capsys):
        assert main(["--y-max", "15", "--plot-data"]) == 0
        out = capsys.readouterr().out
        assert "FINAL LIST OF Q-ZEROS:" in out
        assert "y,re_za,im_za" in out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_plot_data_needs_text_format(self, fmt, capsys):
        assert main(["--y-max", "15", "--format", fmt, "--plot-data"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --plot-data needs --format text\n"

    def test_poly_linear_run(self, capsys):
        code = main(["--target", "poly:1,-0.3-20j", "--y", "20", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2


class TestConsoleScript:
    @pytest.mark.parametrize("module", ["qzeta", "qzeta.cli"])
    def test_entry_point_runs(self, module):
        process = subprocess.run(
            [sys.executable, "-m", module, "--y-max", "10"],
            # run the package under test, installed or not
            cwd=Path(qzeta.__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == 0
        assert "no zeros requested" in process.stdout

    def test_overflowing_truncation_estimate_exit_one(self):
        # e^(l/a) overflows in every truncation estimate at a=1e-3; a child
        # process, so that a return of the endless candidate loop fails the
        # test at its time limit instead of hanging it
        process = subprocess.run(
            [sys.executable, "-m", "qzeta", "--a", "1e-3", "--d", "1",
             "--y-max", "15"],
            cwd=Path(qzeta.__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert process.returncode == 1
        assert process.stderr.startswith("error: truncation estimate not finite")
        assert "a=0.001, d=1" in process.stderr

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            # b = 5 would keep 1.1e9 terms: a regime error
            (["--a", "1e17", "--y-max", "15"], 1,
             "error: no truncation b keeping at most 100000 series terms"),
            # a --b that keeps 5e6 terms is a usage error
            (["--a", "1e12", "--d", "1", "--b", "5", "--y-max", "15"], 2,
             "error: truncation b*sqrt(a/d) keeps more than 100000 terms"),
        ],
    )
    def test_series_length_cap(self, argv, code, message):
        # a child process, so that an allocation of the uncapped length
        # fails the test at its time limit instead of exhausting memory
        process = subprocess.run(
            [sys.executable, "-m", "qzeta", *argv],
            cwd=Path(qzeta.__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert process.returncode == code
        assert process.stderr.startswith(message)
