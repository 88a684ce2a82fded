import csv
import io
import json

import pytest

from qzeta import (
    RunConfig,
    RunResult,
    ZeroRecord,
    execute,
    emit_json,
    emit_plot_data,
    emit_text_report,
)
from qzeta.report import _char_str


@pytest.fixture(scope="module")
def one_zero_run():
    return execute(RunConfig(y_max=15.0))


@pytest.fixture(scope="module")
def planning_failure_run():
    # the prediction is not finite, so the zero fails before its search
    return execute(RunConfig(a=1e308, y_max=15.0))


@pytest.fixture(scope="module")
def empty_run():
    return execute(RunConfig(y_max=10.0))


@pytest.fixture(scope="module")
def poly_run():
    return execute(
        RunConfig(
            y_max=None,
            y_list=(2.0,),
            poly_coefficients=(1 + 0j, -(1 + 2j)),
        )
    )


class TestTextReport:
    def test_sections_present(self, one_zero_run):
        text = emit_text_report(one_zero_run)
        assert "CLASSICAL ZEROS AND APPROXIMATIONS:" in text
        assert "VARIANT= 1  c= 4" in text
        assert "FINAL LIST OF Q-ZEROS:" in text
        assert "angles over the rd*rad rectangle:" in text
        assert "second try:" in text
        assert "very good" in text

    def test_final_list_four_decimal_values(self, one_zero_run):
        text = emit_text_report(one_zero_run)
        assert "0.1304" in text
        assert "14.1450" in text

    def test_seed_table_row(self, one_zero_run):
        text = emit_text_report(one_zero_run)
        assert "1  y= 14.1347  za= 0.130263 + 14.1465 I  b= 15" in text

    def test_empty_run(self, empty_run):
        text = emit_text_report(empty_run)
        assert "no zeros requested" in text
        assert "CLASSICAL ZEROS AND APPROXIMATIONS:" in text

    def test_polynomial_target_resolves_root(self, poly_run):
        record = poly_run.records[0]
        assert abs(record.z - (1 + 2j)) < 1e-6
        text = emit_text_report(poly_run)
        assert "1.0000 + 2.0000 I" in text

    @pytest.mark.parametrize(
        "value,shown",
        [(0.0, "0."), (1e-10, "0."), (1.0 - 5e-10, "1."), (-1.0 + 5e-10, "-1."), (2.0, "2."),
         (0.3, "0.3"), (1.0 + 2e-9, "1"), (float("nan"), "nan"), (float("inf"), "inf"),
         (float("-inf"), "-inf")],
    )
    def test_winding_defect_listing(self, value, shown):
        # within 1e-9 of an integer the classic "1." form; otherwise, and
        # when the defect is not finite, six significant digits
        assert _char_str(value) == shown


class TestJson:
    def test_schema_and_roundtrip(self, one_zero_run):
        doc = json.loads(emit_json(one_zero_run))
        assert set(doc) == {"config", "zeros"}
        assert doc["config"]["a"] == 750.0
        zeros = doc["zeros"]
        assert len(zeros) == 1
        entry = zeros[0]
        expected_keys = {
            "index", "y", "b", "za", "z", "de", "vv", "verdict",
            "newton_applied", "integrations",
        }
        assert set(entry) == expected_keys
        assert entry["verdict"] == "very_good"
        assert entry["za"].keys() == {"re", "im"}
        record = one_zero_run.records[0]
        assert entry["z"]["re"] == record.z.real  # lossless float round-trip
        assert entry["z"]["im"] == record.z.imag
        for integration in entry["integrations"]:
            assert {"variant", "zn", "rd", "rad", "c", "char", "fo", "vv",
                    "z_estimate", "angles"} == set(integration)
            assert integration["angles"]

    def test_empty_run(self, empty_run):
        doc = json.loads(emit_json(empty_run))
        assert doc["zeros"] == []

    def test_byte_determinism(self):
        first = emit_json(execute(RunConfig(y_max=15.0)))
        second = emit_json(execute(RunConfig(y_max=15.0)))
        assert first == second


class TestPlotData:
    def test_columns_and_rows(self, one_zero_run):
        csv_text = emit_plot_data(one_zero_run)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "y,re_za,im_za,re_z,im_z,de,vv"
        assert len(lines) == 2

    def test_header_only_when_empty(self, empty_run):
        lines = emit_plot_data(empty_run).strip().splitlines()
        assert len(lines) == 1

    def test_values_match_records(self, one_zero_run):
        lines = emit_plot_data(one_zero_run).strip().splitlines()
        row = lines[1].split(",")
        record = one_zero_run.records[0]
        assert float(row[3]) == record.z.real
        assert float(row[4]) == record.z.imag
        assert float(row[6]) == record.vv_final

    @pytest.mark.parametrize("run", ["one_zero_run", "planning_failure_run"])
    def test_rows_match_json_entries(self, request, run):
        """Each cell is the repr of its JSON number; a null reads nan in za
        and z, and an empty cell in de."""
        result = request.getfixturevalue(run)
        zeros = json.loads(emit_json(result))["zeros"]
        rows = list(csv.reader(io.StringIO(emit_plot_data(result))))[1:]
        assert len(rows) == len(zeros) == 1

        def cells(entry):
            parts = [entry[key][part] for key in ("za", "z") for part in ("re", "im")]
            return [
                repr(entry["y"]),
                *("nan" if part is None else repr(part) for part in parts),
                "" if entry["de"] is None else repr(entry["de"]),
                repr(entry["vv"]),
            ]

        assert rows == [cells(entry) for entry in zeros]

    def test_planning_failure_row(self, planning_failure_run):
        lines = emit_plot_data(planning_failure_run).splitlines()
        assert lines[1] == "14.134725141984639,nan,nan,nan,nan,,1.0"


class TestCrossEmitterConsistency:
    def test_text_matches_json_numbers(self, one_zero_run):
        doc = json.loads(emit_json(one_zero_run))
        text = emit_text_report(one_zero_run)
        entry = doc["zeros"][0]
        assert f"{entry['z']['re']:.4f}" in text
        assert f"{entry['z']['im']:.4f}" in text
        assert f"vv= {entry['vv']:.6f}" in text


class TestStoppedSearchReason:
    """A search an error stopped adds its reason to the text and JSON
    reports; records without one report exactly as before."""

    def test_reason_only_where_set(self, one_zero_run):
        reason = "RangeUnsupported: Im k = 9 outside evaluation band [-1, 3]"
        found = one_zero_run.records[0]
        record = ZeroRecord(z=found.z, de=found.de, vv_final=found.vv_final,
                            verdict=found.verdict, newton_applied=found.newton_applied,
                            trace_log=found.trace_log, reason=reason)
        stopped = RunResult(config=one_zero_run.config, seeds=one_zero_run.seeds,
                            records=[record])
        assert emit_text_report(stopped) == (
            emit_text_report(one_zero_run) + f"  reason: {reason}\n"
        )
        (entry,) = json.loads(emit_json(stopped))["zeros"]
        assert entry.pop("reason") == reason
        assert entry == json.loads(emit_json(one_zero_run))["zeros"][0]
        assert emit_plot_data(stopped) == emit_plot_data(one_zero_run)
