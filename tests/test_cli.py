import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qzeta
import qzeta.cli
import qzeta.pipeline
from qzeta import QZetaError, RangeUnsupported
from qzeta.cli import build_parser, main, parse_cli
from qzeta.search import escalation_schedule


OUTPUTS_SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "outputs.py"


def _bad_command_lines():
    """The argv of each of ``.github/outputs.py``'s ``BAD_COMMAND_LINES``."""
    spec = importlib.util.spec_from_file_location("outputs", OUTPUTS_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [flags.split() for flags in module.BAD_COMMAND_LINES]


def _reject(constant):
    """parse_constant for strict JSON, which has no NaN or Infinity."""
    raise ValueError(f"non-standard JSON constant {constant}")


def _usage_error(run, argv, capsys):
    """run(argv) ends in argparse's usage error: exit status 2, nothing on
    stdout, and on stderr the usage line, then ``qzeta: error: ...``.
    Returns that last line."""
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qzeta ") and "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert last.startswith("qzeta: error: ")
    return last


def _planning_failed(argv, reason):
    """Run the CLI in a child process, where a planning step that hangs or
    allocates without bound meets a time limit.  The one seed fails at
    planning, without a search and with the error as its reason, and the
    run ends with a report (JSON and text), exit 1 and no error line."""

    def run(*extra):
        process = subprocess.run(
            [sys.executable, "-m", "qzeta", *argv, *extra],
            cwd=Path(qzeta.__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert process.returncode == 1
        assert process.stderr == ""
        return process.stdout

    (zero,) = json.loads(run("--format", "json"), parse_constant=_reject)["zeros"]
    assert zero["verdict"] == "failed"
    assert zero["integrations"] == []
    assert zero["b"] is None
    assert zero["reason"].startswith(reason)
    text = run()
    assert text.split("FINAL LIST OF Q-ZEROS:")[1].split()[:4] == [
        "failed", "1", f"{zero['y']:.6g}", "z:"
    ]
    assert text.endswith(f"\n  reason: {zero['reason']}\n")
    return zero


class TestParsing:
    def test_defaults_reproduce_reference_run(self):
        config, args = parse_cli([])
        assert config.a == 750.0
        assert config.d == 2.0
        assert config.y_max == 48.5406
        assert config.y_list is None
        assert config.target == "sharp"
        assert config.c == 4
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
        config, _ = parse_cli(["--c", "8"])
        assert config.c == 8
        # the protocol's thresholds are constants of the search, not flags
        for flag in ("--kappa", "--vv-max", "--char-tol", "--newton-max-iters"):
            with pytest.raises(SystemExit):
                parse_cli([flag, "1"])

    def test_c_override_builds_schedule(self):
        config, _ = parse_cli(["--c", "6"])
        assert config.c == 6
        assert escalation_schedule(config.c) == (6, 9, 14)

    def test_bad_target(self, capsys):
        assert _usage_error(parse_cli, ["--target", "spline"], capsys) == (
            "qzeta: error: argument --target: unknown target 'spline' (use 'sharp' or 'poly:...')"
        )
        assert _usage_error(parse_cli, ["--target", "poly:one,two"], capsys) == (
            "qzeta: error: argument --target: bad polynomial coefficients 'one,two'"
        )
        assert "two coefficients" in _usage_error(parse_cli, ["--target", "poly:1", "--y", "1"],
                                                  capsys)

    def test_bad_schedule(self, capsys):
        # --c takes one integer density
        for c in ("9,6", "4,,6", "four", ""):
            with pytest.raises(SystemExit) as info:
                parse_cli(["--c", c])
            assert info.value.code == 2
        assert "3 or more" in _usage_error(parse_cli, ["--c", "2"], capsys)

    def test_seed_flags_are_exclusive(self, capsys):
        assert _usage_error(parse_cli, ["--y", "14.2", "--y-max", "30"], capsys) == (
            "qzeta: error: argument --y-max: not allowed with argument --y"
        )


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

    def test_unwritable_out_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.txt"
        assert main(["--y-max", "15", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not path.parent.exists()

    def test_usage_error_exit_two(self, capsys):
        assert "unknown target" in _usage_error(main, ["--target", "spline"], capsys)

    def test_run_error_exit_one(self, monkeypatch, capsys):
        def failing(config):
            raise QZetaError("x")

        monkeypatch.setattr(qzeta.cli, "execute", failing)
        assert main(["--y-max", "15"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: x\n"
        assert captured.out == ""

    # values that RunConfig rejects, a bad type, a bad target and a
    # seed-flag clash end the same way
    @pytest.mark.parametrize("argv", _bad_command_lines())
    def test_config_error_exit_two(self, argv, capsys):
        _usage_error(main, argv + ["--format", "csv"], capsys)

    def test_non_finite_prediction_exit_one(self):
        # at a=1e308 the first-order correction's denominator overflows
        zero = _planning_failed(
            ["--a", "1e308", "--y-max", "15"],
            "NonFiniteResult: first-order prediction at y=14.1347",
        )
        assert "a=1e+308" in zero["reason"]
        # no prediction: z and za read null
        assert all(zero[key][part] is None for key in ("z", "za") for part in ("re", "im"))

    def test_region_top_below_axis_exit_one(self):
        # the prediction 6464.9 - 223.9i leaves no search region above Im k = 0
        zero = _planning_failed(
            ["--a", "0.5", "--d", "0.01", "--y-max", "15"],
            "RangeUnsupported: the prediction 6464.88-223.924j puts the top",
        )
        assert zero["z"] == zero["za"]  # the prediction, which was not searched
        assert zero["za"]["im"] == pytest.approx(-223.924, abs=1e-3)

    def test_planning_error_fails_its_seed_alone(self, monkeypatch, capsys):
        real = qzeta.pipeline.select_truncation

        def failing_second(a, d, region_tops):
            # the entry of a rejected top carries its error
            return [
                RangeUnsupported("no truncation for this seed") if top > 20 else b
                for top, b in zip(region_tops, real(a, d, region_tops))
            ]

        monkeypatch.setattr(qzeta.pipeline, "select_truncation", failing_second)
        assert main(["--y-max", "22", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        first, second = json.loads(captured.out)["zeros"]
        assert first["verdict"] == "very_good" and "reason" not in first
        assert second["verdict"] == "failed" and second["integrations"] == []
        assert second["reason"] == "RangeUnsupported: no truncation for this seed"

    @pytest.mark.parametrize(
        "argv,seeds",
        # a seed predicted on or above the pole line Im k = 2*eps fails
        # without a search: 2*eps is 48.54 at the default a and d, 32.36 at
        # a=500, d=3
        [(["--y-max", "100"], 29), (["--a", "500", "--d", "3"], 9),
         (["--y-max", "60"], 13)],
    )
    def test_seed_outside_evaluation_band_fails_alone(self, argv, seeds, capsys):
        above = range(5, 10) if "500" in argv else range(10, seeds + 1)
        pole_line = "32.3604" if "500" in argv else "48.5406"
        assert main(argv + ["--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        zeros = json.loads(captured.out)["zeros"]
        assert [z["index"] for z in zeros] == list(range(1, seeds + 1))
        stopped = [z for z in zeros if "reason" in z]
        assert [z["index"] for z in stopped] == list(above)
        for z in stopped:
            assert z["verdict"] == "failed"
            assert z["integrations"] == []
            assert z["za"]["im"] >= float(pole_line)
            assert z["reason"].startswith("prediction (")
            assert z["reason"].endswith(
                f"j) lies on or above the pole line Im k = 2*eps = {pole_line}"
            )
        assert all(z["verdict"] == "very_good" for z in zeros if "reason" not in z)
        assert main(argv) == 1
        final = capsys.readouterr().out.split("FINAL LIST OF Q-ZEROS:")[1]
        for z in stopped:
            entry = final[final.index(f"failed {z['index']}  "):].splitlines()
            assert entry[2] == f"  reason: {z['reason']}"

    def test_escaped_zero_fails_alone(self, monkeypatch, capsys):
        real = qzeta.pipeline.run_variants

        def escaping(functions, seeds, c):
            records = real(functions, seeds, c)
            # one seed per call; Re k = -100 lies past the strip's
            # half-width 2*eps = 48.54
            if seeds[0][0] < 15.0:  # the seed at y ~ 14.13
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

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["--bogus"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        # the density schedule follows from one --c, the truncation comes
        # from select_truncation, and --format csv gives the CSV
        [["--c", "4,8"], ["--b", "5"], ["--plot-data"]],
        ids=["c-list", "b", "plot-data"],
    )
    def test_removed_options_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--y-max", "15", *argv])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_eight_options(self):
        options = [a.option_strings[0] for a in build_parser()._actions]
        assert options == ["-h", "--a", "--d", "--y-max", "--y", "--c", "--format",
                           "--target", "--out"]

    def test_non_finite_winding_defect_exit_one(self):
        # f = 1e308 + k overflows on the opening contour, so the zero fails
        # before its first integration, with the point as its reason
        process = subprocess.run(
            [sys.executable, "-m", "qzeta", "--target", "poly:1e308,1", "--y", "2"],
            cwd=Path(qzeta.__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert process.returncode == 1
        assert process.stderr == ""
        assert process.stdout.split("FINAL LIST OF Q-ZEROS:")[1].split()[:2] == ["failed", "1"]
        assert process.stdout.endswith(
            "\n  reason: NonFiniteResult: f is not finite at (-0.001+1.9995j)\n"
        )

    def test_non_finite_contour_fails_before_integrating(self, capsys):
        # a search used to integrate such a contour 14 times, each with a
        # null winding defect, residual ratio and estimate, and no reason
        assert main(["--target", "poly:1e308,1", "--y", "2", "--format", "json"]) == 1
        (zero,) = json.loads(capsys.readouterr().out, parse_constant=_reject)["zeros"]
        assert zero["verdict"] == "failed"
        assert zero["integrations"] == []
        assert zero["vv"] == 1.0
        assert zero["reason"] == "NonFiniteResult: f is not finite at (-0.001+1.9995j)"

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
        # e^(l/a) overflows in every truncation estimate at a=1e-3, where an
        # unchecked candidate loop would never end
        zero = _planning_failed(
            ["--a", "1e-3", "--d", "1", "--y-max", "15"],
            "RangeUnsupported: truncation estimate not finite",
        )
        assert "a=0.001, d=1" in zero["reason"]

    def test_overflowing_prediction_modulus_exit_one(self):
        # the prediction is finite, but its modulus overflows
        _planning_failed(
            ["--a", "1.071210389082412e-213", "--d", "1.3218244786546675e-93",
             "--y", "62.00076705331232"],
            "NonFiniteResult: first-order prediction at y=62.0008",
        )

    def test_tiny_a_over_d_exit_one(self):
        # b*sqrt(a/d) keeps no term below b = 2**53, where an unbounded
        # candidate list would grow until memory runs out
        zero = _planning_failed(
            ["--a", "1e-30", "--d", "1e35", "--y-max", "15"],
            "RangeUnsupported: truncation b*sqrt(a/d) keeps no term",
        )
        assert "a=1e-30, d=1e+35" in zero["reason"]

    def test_no_truncation_within_the_series_length_cap_exit_one(self):
        # b = 5 would keep 1.1e9 terms, an allocation the cap must prevent
        _planning_failed(
            ["--a", "1e17", "--y-max", "15"],
            "RangeUnsupported: no truncation b keeping at most 100000 series terms",
        )
