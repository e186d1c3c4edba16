"""Dataset format, commands, CSV contracts, exit codes."""

import csv
import io

import pytest

from dsplim.bayes import bayes_upper_limit, prior_preset
from dsplim.cli import (
    DatasetFormatError,
    main,
    parse_dataset_file,
    write_dataset_file,
)
from dsplim.ds_limits import ChannelObservation

GOOD = """# example file
channels 1
scales 33 100
5 10 100
0 3 10   # trailing comment
"""


class TestParse:
    def test_single_channel(self):
        datasets = parse_dataset_file(io.StringIO(GOOD))
        assert len(datasets) == 2
        ch = datasets[0].channels[0]
        assert (ch.n, ch.y, ch.z, ch.t, ch.u) == (5, 10, 100, 33.0, 100.0)
        assert datasets[0].label == "0"

    def test_task2_style_ten_channels(self):
        lines = ["channels 10"]
        for i in range(1, 11):
            lines.append(f"scales {15 + 2 * i} {53 + 2 * i}")
        lines.append(" ".join("1 2 3" for _ in range(10)))
        datasets = parse_dataset_file(io.StringIO("\n".join(lines)))
        assert len(datasets[0].channels) == 10
        assert datasets[0].channels[0].t == 17.0
        assert datasets[0].channels[9].u == 73.0

    def test_wrong_field_count_names_row(self):
        bad = "channels 1\nscales 33 100\n5 10\n"
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset_file(io.StringIO(bad))
        assert err.value.line == 3
        assert "2 fields" in str(err.value)

    def test_negative_count_rejected(self):
        bad = "channels 1\nscales 33 100\n5 -1 100\n"
        with pytest.raises(DatasetFormatError):
            parse_dataset_file(io.StringIO(bad))

    def test_missing_header(self):
        with pytest.raises(DatasetFormatError):
            parse_dataset_file(io.StringIO("scales 1 2\n1 2 3\n"))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DatasetFormatError):
            parse_dataset_file(io.StringIO("channels 1\nscales 0 1\n1 2 3\n"))

    def test_round_trip(self):
        datasets = parse_dataset_file(io.StringIO(GOOD))
        out = io.StringIO()
        write_dataset_file(datasets, out)
        again = parse_dataset_file(io.StringIO(out.getvalue()))
        assert again == datasets


def _write_input(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestLimitsCommand:
    def test_ds_limits_csv(self, tmp_path):
        inp = _write_input(tmp_path, GOOD)
        out = str(tmp_path / "limits.csv")
        rc = main(["limits", "--input", inp, "--output", out])
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == ["dataset_id", "limit_0.9", "limit_0.99", "status"]
        assert len(rows) == 3
        assert rows[1][3] == "ok"
        assert float(rows[1][1]) < float(rows[1][2])

    def test_unbounded_only_exit_code(self, tmp_path):
        inp = _write_input(tmp_path, "channels 1\nscales 3.3 10\n5 2 0\n")
        out = str(tmp_path / "limits.csv")
        rc = main(["limits", "--input", inp, "--output", out])
        assert rc == 4
        rows = _read_csv(out)
        assert rows[1] == ["0", "", "", "unbounded"]

    def test_mixed_unbounded_rows(self, tmp_path):
        inp = _write_input(
            tmp_path, "channels 1\nscales 3.3 10\n5 2 0\n5 2 7\n"
        )
        out = str(tmp_path / "limits.csv")
        rc = main(["limits", "--input", inp, "--output", out])
        assert rc == 0
        rows = _read_csv(out)
        assert rows[1][3] == "unbounded"
        assert rows[2][3] == "ok"

    def test_bayes_method(self, tmp_path):
        inp = _write_input(tmp_path, GOOD)
        out = str(tmp_path / "limits.csv")
        rc = main(
            ["limits", "--input", inp, "--output", out, "--method", "bayes:B2"]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert all(row[3] == "ok" for row in rows[1:])

    def test_parse_error_exit_code(self, tmp_path):
        inp = _write_input(tmp_path, "channels 1\nscales 33 100\n5 10\n")
        out = str(tmp_path / "limits.csv")
        assert main(["limits", "--input", inp, "--output", out]) == 2

    def test_numerical_failure_names_row_and_channel(self, tmp_path, capsys):
        inp = _write_input(tmp_path, "channels 1\nscales 1 1e8\n5 2 40\n0 0 1\n")
        out = str(tmp_path / "limits.csv")
        assert main(["limits", "--input", inp, "--output", out]) == 3
        err = capsys.readouterr().err
        assert "dataset row 1:" in err
        assert "hard_cap" in err and "n=0, y=0, z=1" in err

    def test_bayes_numerical_failure_names_row(self, tmp_path, capsys):
        inp = _write_input(tmp_path, "channels 1\nscales 0.05 10\n3 2 5\n0 5000 1\n")
        out = str(tmp_path / "limits.csv")
        rc = main(["limits", "--input", inp, "--output", out, "--method", "bayes:B1"])
        assert rc == 3
        assert "dataset row 1: posterior mass" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["ds", "bayes:B1"])
    def test_failed_row_keeps_the_other_rows(self, tmp_path, capsys, method):
        # (0, 5000, 1) at t = 0.05: the conditioning probability underflows
        inp = _write_input(tmp_path, "channels 1\nscales 0.05 10\n3 2 5\n0 5000 1\n")
        out = str(tmp_path / "limits.csv")
        rc = main(["limits", "--input", inp, "--output", out, "--method", method])
        assert rc == 3
        rows = _read_csv(out)
        assert rows[1][0] == "0" and rows[1][3] == "ok"
        assert 0.0 < float(rows[1][1]) < float(rows[1][2])
        assert rows[2] == ["1", "", "", "failed"]
        err = capsys.readouterr().err
        assert "dataset row 1:" in err and "dataset row 0" not in err

    def test_bayes_limit_past_series_underflow(self, tmp_path):
        # B1 at (870, 870, 1), t = u = 1: the series underflows, so the
        # limit comes from the quadrature fallback of the scalar route.
        inp = _write_input(tmp_path, "channels 1\nscales 1 1\n3 2 5\n870 870 1\n")
        out = str(tmp_path / "limits.csv")
        args = ["--method", "bayes:B1", "--quantiles", "0.9"]
        assert main(["limits", "--input", inp, "--output", out, *args]) == 0
        rows = _read_csv(out)
        ch = ChannelObservation(870, 870, 1, 1.0, 1.0)
        want = bayes_upper_limit(ch, prior_preset("B1"), 0.9)
        assert rows[2] == ["1", f"{want:.17g}", "ok"]

    def test_background_probability_rounding_to_one_fails_row(self, tmp_path):
        inp = _write_input(tmp_path, "channels 1\nscales 1e-17 10\n5 3 10\n")
        out = str(tmp_path / "limits.csv")
        assert main(["limits", "--input", inp, "--output", out]) == 3
        assert _read_csv(out)[1] == ["0", "", "", "failed"]

    def test_bayes_method_rejects_multichannel(self, tmp_path, capsys):
        text = "channels 2\nscales 33 100\nscales 17 55\n5 10 100 1 2 3\n"
        inp = _write_input(tmp_path, text)
        out = str(tmp_path / "limits.csv")
        rc = main(["limits", "--input", inp, "--output", out, "--method", "bayes:B1"])
        assert rc == 2
        assert "single-channel" in capsys.readouterr().err

    def test_bytes_identical_across_worker_counts(self, tmp_path):
        inp = _write_input(
            tmp_path,
            "channels 1\nscales 3.3 10\n" +
            "\n".join(f"{n} {y} {z}" for n, y, z in
                      [(0, 1, 2), (3, 2, 1), (7, 0, 4), (2, 5, 3)]) + "\n",
        )
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["limits", "--input", inp, "--output", out1,
                     "--threads", "1"]) == 0
        assert main(["limits", "--input", inp, "--output", out2,
                     "--threads", "2"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()


class TestCurvesCommand:
    def test_curve_csv_invariants(self, tmp_path):
        inp = _write_input(tmp_path, GOOD)
        out = str(tmp_path / "curves.csv")
        rc = main(
            ["curves", "--input", inp, "--output", out, "--grid-points", "64"]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == [
            "dataset_id", "channel", "x", "f_lower", "f_upper", "r", "pdf", "cdf"
        ]
        chan = [r for r in rows[1:] if r[1] == "0"]
        comb = [r for r in rows[1:] if r[1] == "combined"]
        assert chan and comb
        for r in chan:
            assert float(r[4]) <= float(r[3]) + 1e-12
            assert float(r[5]) >= 0.0
        last = [r for r in comb if r[0] == "0"][-1]
        assert float(last[7]) >= 1.0 - 1e-6

    def test_all_unbounded_curves_exit_4(self, tmp_path):
        inp = _write_input(tmp_path, "channels 1\nscales 3.3 10\n5 2 0\n")
        out = str(tmp_path / "curves.csv")
        assert main(["curves", "--input", inp, "--output", out]) == 4


class TestCoverageCommand:
    def test_default_grid_has_101_rows(self, tmp_path):
        out = str(tmp_path / "cov.csv")
        rc = main(
            [
                "coverage", "--output", out, "--mode", "importance",
                "--t", "3.3", "--u", "10", "--eps", "0.1", "--b", "0.3",
                "--samples", "60", "--quantiles", "0.9",
                "--grid-points", "64",
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == ["s", "estimate", "std_err", "ess"]
        assert len(rows) == 1 + 101

    def test_enumerate_mode(self, tmp_path):
        out = str(tmp_path / "cov.csv")
        rc = main(
            [
                "coverage", "--output", out, "--mode", "enumerate",
                "--t", "3.3", "--u", "10", "--eps", "0.1", "--b", "0.3",
                "--s-grid", "0:10:5", "--enum-tail-eps", "1e-6",
                "--grid-points", "64", "--quantiles", "0.9",
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert len(rows) == 4
        assert all(0.0 <= float(r[1]) <= 1.0 for r in rows[1:])
        assert all(r[3] == "" for r in rows[1:])

    def test_box_beyond_cell_budget_is_an_error(self, tmp_path, capsys):
        out = str(tmp_path / "cov.csv")
        rc = main(
            [
                "coverage", "--output", out, "--mode", "enumerate",
                "--t", "33", "--u", "100", "--eps", "1", "--b", "3",
                "--s-grid", "0:40:5",
            ]
        )
        assert rc == 2
        assert "dsplim: error:" in capsys.readouterr().err

    def test_importance_needs_two_samples(self, tmp_path):
        out = str(tmp_path / "cov.csv")
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "coverage", "--output", out, "--mode", "importance",
                    "--t", "3.3", "--u", "10", "--eps", "0.1", "--b", "0.3",
                    "--samples", "1",
                ]
            )
        assert exc.value.code == 2


class TestCredibilityCommand:
    def test_credibility_in_unit_interval(self, tmp_path):
        inp = _write_input(tmp_path, GOOD)
        out = str(tmp_path / "cred.csv")
        rc = main(
            [
                "credibility", "--input", inp, "--output", out,
                "--samples", "2000", "--quantiles", "0.9",
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == ["dataset_id", "limit", "credibility"]
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:])

    def test_multichannel_rejected(self, tmp_path):
        text = (
            "channels 2\nscales 33 100\nscales 17 55\n5 10 100 1 2 3\n"
        )
        inp = _write_input(tmp_path, text)
        out = str(tmp_path / "cred.csv")
        assert main(["credibility", "--input", inp, "--output", out]) == 2

    def test_zero_samples_rejected(self, tmp_path):
        inp = _write_input(tmp_path, GOOD)
        out = str(tmp_path / "cred.csv")
        with pytest.raises(SystemExit) as exc:
            main(["credibility", "--input", inp, "--output", out, "--samples", "0"])
        assert exc.value.code == 2

    def test_no_posterior_mass_is_a_numerical_failure(self, tmp_path, capsys):
        inp = _write_input(tmp_path, "channels 1\nscales 1 100\n0 0 100\n")
        out = str(tmp_path / "cred.csv")
        rc = main(
            [
                "credibility", "--input", inp, "--output", out,
                "--b-prior", "900:1", "--samples", "100", "--quantiles", "0.9",
            ]
        )
        assert rc == 3
        assert "dsplim: numerical failure:" in capsys.readouterr().err


class TestSimulateCommand:
    def test_summary_csv(self, tmp_path):
        out = str(tmp_path / "sim.csv")
        per_s = str(tmp_path / "per_s.csv")
        rc = main(
            [
                "simulate", "--output", out, "--per-s-output", per_s,
                "--t", "3.3", "--u", "10", "--eps", "0.1", "--b", "0.3",
                "--s-grid", "20:40:10", "--reps", "12",
                "--methods", "ds,B1", "--grid-points", "64",
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == ["method", "level", "mean", "stdev"]
        assert len(rows) == 1 + 4  # 2 methods x 2 levels
        per_rows = _read_csv(per_s)
        assert per_rows[0] == ["method", "level", "s", "coverage"]
        assert len(per_rows) == 1 + 4 * 3

    def test_unknown_method_rejected(self, tmp_path):
        out = str(tmp_path / "sim.csv")
        rc = main(
            ["simulate", "--output", out, "--methods", "ds,B7",
             "--s-grid", "1:2:1", "--reps", "2"]
        )
        assert rc == 2


class TestCsvFormatting:
    def test_seventeen_significant_digits_and_lf(self, tmp_path):
        inp = _write_input(tmp_path, GOOD)
        out = str(tmp_path / "limits.csv")
        main(["limits", "--input", inp, "--output", out])
        raw = open(out, "rb").read()
        assert b"\r" not in raw
        text = raw.decode()
        value = text.splitlines()[1].split(",")[1]
        assert float(value) == pytest.approx(9.228904532545789, rel=1e-15)
        assert len(value.replace(".", "").lstrip("0")) >= 15
