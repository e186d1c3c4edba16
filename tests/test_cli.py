"""Dataset format, commands, CSV contracts, exit codes."""

import argparse
import csv
import io

import numpy as np
import pytest

from dsplim.bayes import bayes_upper_limits_batch, prior_preset
from dsplim.cli import (
    S_GRID_MAX_POINTS,
    DatasetFormatError,
    build_parser,
    main,
    parse_dataset_file,
)
from dsplim.ds_limits import (
    ChannelObservation,
    GridConfig,
    dataset_density,
    ds_upper_limits_batch,
)

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

    @pytest.mark.parametrize("count", [2**53 + 1, 2**63 - 1, 10**20])
    def test_count_beyond_float_shapes_rejected(self, count):
        bad = f"channels 1\nscales 3.3 10\n5 2 3\n5 2 {count}\n"
        with pytest.raises(DatasetFormatError, match="at most 2\\*\\*53") as err:
            parse_dataset_file(io.StringIO(bad))
        assert err.value.line == 4 and "dataset row 1" in str(err.value)
        ok = parse_dataset_file(io.StringIO(f"channels 1\nscales 3.3 10\n{2**53} 2 3\n"))
        assert ok[0].channels[0].n == 2**53

    @pytest.mark.parametrize("scales", ["inf 10", "3.3 inf", "nan 10", "3.3 -inf"])
    def test_nonfinite_scale_rejected(self, scales):
        bad = f"channels 2\nscales 3.3 10\nscales {scales}\n1 2 3 1 2 3\n"
        with pytest.raises(DatasetFormatError, match="positive and finite") as err:
            parse_dataset_file(io.StringIO(bad))
        assert err.value.line == 3
        with pytest.raises(ValueError, match="positive and finite"):
            ChannelObservation(1, 2, 3, *map(float, scales.split()))


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

    @pytest.mark.parametrize("command", ["limits", "credibility"])
    @pytest.mark.parametrize("text", [
        "channels 1\nscales 3.3 10\n5 2 99999999999999999999\n",
        "channels 1\nscales 3.3 10\n5 2 9223372036854775807\n",
        "channels 1\nscales inf 10\n5 2 3\n",
    ], ids=["count-1e20", "count-2**63-1", "scale-inf"])
    def test_unusable_input_exit_code_names_line(self, tmp_path, capsys, command, text):
        inp = _write_input(tmp_path, text)
        out = tmp_path / "out.csv"
        assert main([command, "--input", inp, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dsplim: error: line ") and "Traceback" not in err
        assert not out.exists()

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
        # B1 at (870, 870, 1), t = u = 1: the background block starts from
        # 2**-871, below the double range; the log-space series keeps it.
        inp = _write_input(tmp_path, "channels 1\nscales 1 1\n3 2 5\n870 870 1\n")
        out = str(tmp_path / "limits.csv")
        args = ["--method", "bayes:B1", "--quantiles", "0.9"]
        assert main(["limits", "--input", inp, "--output", out, *args]) == 0
        rows = _read_csv(out)
        want = bayes_upper_limits_batch([870], [870], [1], 1.0, 1.0,
                                        prior_preset("B1"), (0.9,))
        assert rows[2] == ["1", f"{want[0, 0]:.17g}", "ok"]

    def test_background_probability_rounding_to_one_gets_limit(self, tmp_path):
        # pb = (1/t) / (1 + 1/t) rounds to 1 at t = 1e-17; the row takes the
        # grid-free route, whose limits meet the scipy plausibility CDF
        # (tests/test_log_series.py)
        inp = _write_input(tmp_path, "channels 1\nscales 1e-17 10\n5 3 10\n")
        out = str(tmp_path / "limits.csv")
        assert main(["limits", "--input", inp, "--output", out]) == 0
        row = _read_csv(out)[1]
        assert row[0] == "0" and row[3] == "ok"
        exact = ds_upper_limits_batch([5], [3], [10], 1e-17, 10.0, (0.9, 0.99))
        assert [float(v) for v in row[1:3]] == list(exact[:, 0])

    def test_bayes_method_rejects_multichannel(self, tmp_path, capsys):
        text = "channels 2\nscales 33 100\nscales 17 55\n5 10 100 1 2 3\n"
        inp = _write_input(tmp_path, text)
        out = str(tmp_path / "limits.csv")
        rc = main(["limits", "--input", inp, "--output", out, "--method", "bayes:B1"])
        assert rc == 2
        assert "single-channel" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "channels 1\nscales 3.3 10\n0 1 2\n3 2 1\n7 0 4\n2 5 3\n",
        "channels 2\nscales 3.3 10\nscales 33 100\n0 1 2 5 10 100\n"
        "3 2 1 0 3 10\n7 0 4 2 5 3\n2 5 3 7 0 0\n",
    ], ids=["1ch", "2ch"])
    def test_bytes_identical_across_worker_counts(self, tmp_path, text):
        inp = _write_input(tmp_path, text)
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["limits", "--input", inp, "--output", out1,
                     "--threads", "1"]) == 0
        assert main(["limits", "--input", inp, "--output", out2,
                     "--threads", "2"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()


    def test_one_limit_per_row_with_credibility(self, tmp_path):
        # limits and credibility take each row through one path
        inp = _write_input(
            tmp_path, "channels 1\nscales 3.3 10\n0 0 2\n3 1 2\n5 2 3\n5 2 1\n5 2 0\n"
        )
        lim, cred = str(tmp_path / "limits.csv"), str(tmp_path / "cred.csv")
        assert main(["limits", "--input", inp, "--output", lim]) == 0
        assert main(["credibility", "--input", inp, "--output", cred,
                     "--samples", "100", "--quantiles", "0.9"]) == 0
        limits, creds = _read_csv(lim)[1:], _read_csv(cred)[1:]
        assert [r[3] for r in limits] == ["ok"] * 4 + ["unbounded"]
        for row, cred_row in zip(limits[:4], creds):
            assert row[1] == cred_row[1]
        # closed form for n = y = 0: u * ((1 - q)**(-1 / (z - 1)) - 1)
        assert float(limits[0][1]) == pytest.approx(90.0, rel=1e-9)

    def test_multichannel_failed_row_keeps_the_other_rows(self, tmp_path, capsys):
        head = "channels 2\nscales 3.3 10\nscales 1 1e8\n"
        good, failing = "5 2 7 5 2 40\n", "5 2 7 0 0 1\n"
        inp = _write_input(tmp_path, head + good + failing + good)
        out = str(tmp_path / "limits.csv")
        assert main(["limits", "--input", inp, "--output", out, "--threads", "2"]) == 3
        err = capsys.readouterr().err.splitlines()
        alone_inp = _write_input(tmp_path, head + good, name="alone.txt")
        alone_out = str(tmp_path / "alone.csv")
        assert main(["limits", "--input", alone_inp, "--output", alone_out]) == 0
        ok = _read_csv(alone_out)[1][1:]
        assert _read_csv(out)[1:] == [["0", *ok], ["1", "", "", "failed"], ["2", *ok]]
        assert [float(v) for v in ok[:2]] == pytest.approx(
            [19.329726651247292, 38.251323299777908], rel=1e-12
        )
        assert ok[2] == "ok"
        assert len(err) == 1
        assert err[0].startswith("dsplim: numerical failure: dataset row 1: ")
        assert "n=0, y=0, z=1" in err[0]


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

    def test_combined_columns_equal_dataset_density(self, tmp_path):
        text = (
            "channels 2\nscales 33 100\nscales 3.3 10\n"
            "5 10 100 2 3 0\n0 3 10 4 1 1\n12 0 25 0 0 2\n"
        )
        inp = _write_input(tmp_path, text)
        out = str(tmp_path / "curves.csv")
        assert main(["curves", "--input", inp, "--output", out, "--grid-points", "64"]) == 0
        rows = _read_csv(out)[1:]
        datasets = parse_dataset_file(io.StringIO(text))
        for ds in datasets:
            density = dataset_density(ds, GridConfig(points=64))
            comb = [r for r in rows if r[0] == ds.label and r[1] == "combined"]
            assert [float(r[2]) for r in comb] == density.xs.tolist()
            assert [float(r[6]) for r in comb] == density.pdf.tolist()
            assert [float(r[7]) for r in comb] == density.cdf.tolist()

    def test_coincident_knots_repeat_an_x_row(self, tmp_path):
        # At 200 points the grid of (27, 5, 4) at t = 1.2, u = 15 keeps two
        # coincident knot pairs as zero-width panels, so the CSV holds 200
        # rows per channel and per combined curve, two of them at a
        # repeated x.
        inp = _write_input(tmp_path, "channels 1\nscales 1.2 15\n27 5 4\n")
        out = str(tmp_path / "curves.csv")
        assert main(["curves", "--input", inp, "--output", out, "--grid-points", "200"]) == 0
        rows = _read_csv(out)[1:]
        for channel in ("0", "combined"):
            xs = np.array([float(r[2]) for r in rows if r[1] == channel])
            assert xs.size == 200
            assert np.all(np.diff(xs) >= 0) and int((np.diff(xs) == 0).sum()) == 2

    def test_failed_dataset_keeps_the_other_datasets(self, tmp_path, capsys):
        inp = _write_input(tmp_path, "channels 1\nscales 1 1e8\n5 2 40\n0 0 1\n")
        out = str(tmp_path / "curves.csv")
        rc = main(["curves", "--input", inp, "--output", out, "--grid-points", "16"])
        assert rc == 3
        rows = _read_csv(out)[1:]
        assert rows and {r[0] for r in rows} == {"0"}
        err = capsys.readouterr().err
        assert err.count("dataset row") == 1
        assert "dataset row 1: grid search exceeded hard_cap" in err

    @pytest.mark.parametrize("flags", [["--method", "bayes:B1"], ["--prior", "B1"]])
    def test_bayes_method_rejected(self, tmp_path, capsys, flags):
        # curves draws belief-interval curves only and takes no method
        inp = _write_input(tmp_path, GOOD)
        out = tmp_path / "curves.csv"
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--input", inp, "--output", str(out), *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("tail_eps", ["0", "1", "-1", "2"])
    def test_enum_tail_eps_outside_unit_interval(self, tmp_path, capsys, tail_eps):
        out = tmp_path / "cov.csv"
        rc = main(
            [
                "coverage", "--output", str(out), "--mode", "enumerate",
                "--t", "3.3", "--u", "10", "--eps", "0.1", "--b", "0.3",
                "--s-grid", "0:10:5", "--enum-tail-eps", tail_eps,
            ]
        )
        assert rc == 2
        assert "dsplim: error: tail_eps must lie strictly inside (0, 1)" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "option, value, name",
        [("--b-prior", "nan:0.3", "b"), ("--e-prior", "inf:0.1", "eps"),
         ("--b-prior", "3:inf", "b")],
    )
    def test_nonfinite_prior_rejected(self, tmp_path, capsys, option, value, name):
        inp = _write_input(tmp_path, GOOD)
        out = str(tmp_path / "cred.csv")
        rc = main(["credibility", "--input", inp, "--output", out, option, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"dsplim: error: the {name} prior's mean and sd must be positive" in err

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

    @pytest.mark.parametrize("method", ["ds", "bayes:B1"])
    def test_failed_row_keeps_the_other_rows(self, tmp_path, capsys, method):
        # (0, 5000, 1) at t = 0.05: the conditioning probability underflows
        args = ["--method", method, "--samples", "200", "--quantiles", "0.9"]
        inp = _write_input(tmp_path, "channels 1\nscales 0.05 10\n3 2 5\n0 5000 1\n")
        out = str(tmp_path / "cred.csv")
        rc = main(["credibility", "--input", inp, "--output", out, *args])
        assert rc == 3
        rows = _read_csv(out)
        assert rows[0] == ["dataset_id", "limit", "credibility"]
        assert rows[2] == ["1", "", ""]
        err = capsys.readouterr().err
        assert err.count("dataset row") == 1 and "dataset row 1: " in err
        # the good row reads as it does in a file of its own
        good = "channels 1\nscales 0.05 10\n3 2 5\n"
        alone = _write_input(tmp_path, good, "one.txt")
        assert main(["credibility", "--input", alone, "--output", out, *args]) == 0
        assert rows[1] == _read_csv(out)[1]

    def test_row_without_posterior_mass_keeps_the_other_rows(self, tmp_path, capsys):
        # With b near 900, P(n + 1, b) is 1 for n = 0: no posterior mass
        inp = _write_input(tmp_path, "channels 1\nscales 1 100\n1000 900 100\n0 0 100\n")
        out = str(tmp_path / "cred.csv")
        rc = main(
            [
                "credibility", "--input", inp, "--output", out,
                "--b-prior", "900:1", "--samples", "100", "--quantiles", "0.9",
            ]
        )
        assert rc == 3
        rows = _read_csv(out)
        assert 0.0 < float(rows[1][2]) < 1.0
        assert rows[2][0] == "1" and float(rows[2][1]) > 0.0 and rows[2][2] == ""
        err = capsys.readouterr().err
        assert err.count("dataset row") == 1 and "dataset row 1: posterior" in err


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

    @pytest.mark.parametrize("methods,message", [
        (",", "--methods names no method"),
        ("ds,ds", "--methods names 'ds' twice"),
        ("B1,ds,B1", "--methods names 'B1' twice"),
        ("DS", "unknown method 'DS'; choose from ['B1', 'B2', 'ds', 'lower', 'upper']"),
    ], ids=["empty", "ds-twice", "B1-twice", "DS"])
    def test_bad_method_list_rejected(self, tmp_path, capsys, methods, message):
        out = tmp_path / "sim.csv"
        rc = main(
            ["simulate", "--output", str(out), "--methods", methods,
             "--s-grid", "20:21:1", "--reps", "2"]
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_summary_range_rejected(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        rc = main(
            ["simulate", "--output", str(out), "--t", "3.3", "--u", "10",
             "--eps", "0.1", "--b", "0.3", "--s-grid", "5:6:1", "--reps", "3",
             "--methods", "ds"]
        )
        assert rc == 2
        assert "--summary-range 20:40 holds no point of --s-grid" in (
            capsys.readouterr().err
        )
        assert not out.exists()


class TestOptions:
    """Each subcommand takes exactly the options its command reads."""

    GRID = {"--grid-points", "--tail-eps"}
    SURFACE = {
        "limits": {"--input", "--output", "--method", "--quantiles", "--threads"}
        | GRID,
        "curves": {"--input", "--output"} | GRID,
        "coverage": {
            "--output", "--seed", "--method", "--quantiles", "--threads",
            "--mode", "--t", "--u", "--eps", "--b", "--s-grid", "--samples",
            "--s-ref", "--enum-tail-eps",
        } | GRID,
        "credibility": {
            "--input", "--output", "--seed", "--method", "--quantiles",
            "--threads", "--b-prior", "--e-prior", "--samples",
        } | GRID,
        "simulate": {
            "--output", "--seed", "--quantiles", "--threads", "--t", "--u",
            "--eps", "--b", "--s-grid", "--reps", "--methods",
            "--summary-range", "--per-s-output",
        } | GRID,
    }

    @staticmethod
    def _subparsers():
        (action,) = (
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return action.choices

    def test_every_subcommand_is_pinned(self):
        assert set(self._subparsers()) == set(self.SURFACE)

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_option_surface(self, command):
        sub = self._subparsers()[command]
        got = {
            flag
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
        }
        assert got == self.SURFACE[command]

    @pytest.mark.parametrize("argv", [
        ["coverage", "--mode", "enumerate", "--t", "3.3", "--u", "10",
         "--eps", "0.1", "--b", "0.3", "--s-grid=-5:0:1"],
        ["simulate", "--s-grid=-2:1:1", "--summary-range=-2:1", "--reps", "2"],
        ["simulate", "--s-grid=0:inf:1", "--reps", "2"],
    ], ids=["coverage-negative", "simulate-negative", "simulate-inf"])
    def test_s_grid_outside_zero_to_inf_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(out)])
        assert exc.value.code == 2
        assert "s-grid must satisfy 0 <= lo <= hi" in capsys.readouterr().err
        assert not out.exists()

    BOX = ["--t", "3.3", "--u", "10", "--eps", "0.1", "--b", "0.3"]

    @pytest.mark.parametrize("command, flag, value, message", [
        ("enumerate", "--t", "-1", "positive"),
        ("enumerate", "--u", "inf", "positive"),
        ("enumerate", "--b", "-0.3", "nonnegative"),
        ("enumerate", "--t", "nan", "positive"),
        ("enumerate", "--eps", "-0.1", "nonnegative"),
        ("importance", "--t", "-1", "positive"),
        ("importance", "--u", "0", "positive"),
        ("simulate", "--t", "inf", "positive"),
        ("simulate", "--eps", "nan", "nonnegative"),
        ("simulate", "--b", "-inf", "nonnegative"),
    ])
    def test_scale_and_truth_flags_rejected(self, tmp_path, capsys, command, flag, value,
                                            message):
        # The flag's value follows the valid box, so it is the one parsed last.
        argv = {"simulate": ["simulate", "--reps", "1"]}.get(
            command, ["coverage", "--mode", command, *self.BOX])
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={value}", "--output", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: must be {message} and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_efficiency_accepted(self, tmp_path):
        out = tmp_path / "out.csv"
        argv = ["coverage", "--mode", "enumerate", *self.BOX, "--eps", "0",
                "--s-grid", "5:6:1", "--quantiles", "0.9"]
        assert main([*argv, "--output", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--s-grid", "0:1:1e-15", "--reps", "1"],
        ["simulate", "--s-grid", "0:40:1e-320", "--reps", "1"],
        ["coverage", "--mode", "enumerate", "--s-grid", "0:25:1e-4"],
    ], ids=["simulate-1e15-points", "simulate-inf-points", "coverage-250001-points"])
    def test_s_grid_point_count_bounded(self, tmp_path, capsys, argv):
        # rejected while parsing, before any grid is allocated
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(out)])
        assert exc.value.code == 2
        assert f"more than {S_GRID_MAX_POINTS}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_threads_rejected(self, tmp_path, capsys):
        inp = _write_input(tmp_path, GOOD)
        out = tmp_path / "limits.csv"
        with pytest.raises(SystemExit) as exc:
            main(["limits", "--input", inp, "--output", str(out), "--threads", "-4"])
        assert exc.value.code == 2
        assert "--threads: must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, message", [
        ("-1", "must be an integer >= 0"), ("2.5", "invalid integer value: '2.5'"),
    ])
    @pytest.mark.parametrize("command", ["coverage", "credibility", "simulate"])
    def test_bad_seed_rejected(self, tmp_path, capsys, command, value, message):
        # rejected while parsing, so credibility computes no limit first
        argv = {
            "coverage": ["coverage", "--mode", "importance", *self.BOX],
            "credibility": ["credibility", "--input", _write_input(tmp_path, GOOD)],
            "simulate": ["simulate", "--reps", "1"],
        }[command]
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", value, "--output", str(out)])
        assert exc.value.code == 2
        assert f"argument --seed: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
    def test_bad_threads_variable_is_named(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("DSPLIM_THREADS", value)
        inp = _write_input(tmp_path, GOOD)
        out = tmp_path / "limits.csv"
        assert main(["limits", "--input", inp, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"dsplim: error: DSPLIM_THREADS must be an integer >= 0, not {value!r}\n"
        )
        assert not out.exists()
        # a --threads flag overrides the variable
        assert main(["limits", "--input", inp, "--output", str(out),
                     "--threads", "1"]) == 0

    @pytest.mark.parametrize("argv", [
        ["simulate", "--s-grid", "20:20:1", "--methods", "B1", "--reps"],
        ["coverage", "--mode", "importance", "--t", "3.3", "--u", "10", "--eps", "0.1",
         "--b", "0.3", "--s-grid", "5:6:1", "--quantiles", "0.9", "--samples"],
        ["credibility", "--input", "{input}", "--samples"],
    ], ids=["simulate", "coverage-importance", "credibility"])
    def test_allocation_failure_exits_2(self, tmp_path, capsys, argv):
        # 10**17 draws need 711 PiB, past any address space, so numpy
        # raises before it allocates.
        inp = _write_input(tmp_path, GOOD)
        argv = [inp if a == "{input}" else a for a in argv]
        assert main([*argv, str(10**17), "--output", str(tmp_path / "out.csv")]) == 2
        assert "dsplim: error: Unable to allocate" in capsys.readouterr().err


class TestCsvFormatting:
    def test_seventeen_significant_digits_and_lf(self, tmp_path):
        inp = _write_input(tmp_path, GOOD)
        out = str(tmp_path / "limits.csv")
        main(["limits", "--input", inp, "--output", out])
        raw = open(out, "rb").read()
        assert b"\r" not in raw
        text = raw.decode()
        value = text.splitlines()[1].split(",")[1]
        assert float(value) == pytest.approx(9.226124729926541, rel=1e-15)
        assert len(value.replace(".", "").lstrip("0")) >= 15
