"""Command-line entry points: run, masks, cost."""

import json
import re

import pytest

from tinyproto import cli
from tinyproto.cli import main

_CONFIG = """
seed = 7
M = 4
K = 3
D = 6
d = 12
s = 3
alpha = 0.5
lambda = 1.0
mu = 1.0
lr = 0.01
batch_size = 8
local_epochs = 1
rounds = 2
participation = 1.0
aggregator = scaled
cps = on
per_class = 30
"""


class TestRun:
    def test_writes_outputs_and_prints_summary(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(_CONFIG)
        out = tmp_path / "results"
        assert main(["run", str(config), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rounds"] == 2
        assert (out / "rounds.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "masks.txt").exists()

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(_CONFIG)
        assert main(["run", str(config), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_bad_config_reports_problems(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("s = 50\nd = 16\n")
        assert main(["run", str(config)]) == 2
        assert "s:" in capsys.readouterr().err

    def test_failed_round_is_an_error_without_traceback(self, tmp_path, capsys):
        # the desk config of demos/03 with a learning rate that overflows
        # the features in the first round: no numpy warning, one error line
        config = tmp_path / "run.cfg"
        config.write_text(
            "seed = 7\nM = 6\nK = 4\nD = 8\nd = 16\ns = 4\nalpha = 0.5\n"
            "per_class = 400\nsigma = 0.35\nrounds = 5\nlr = 1e9\n"
        )
        error = r"error: client \d+, round \d+: training diverged: overflow encountered in \w+\n"
        assert main(["run", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(error, captured.err)
        # the directories made for --out are removed, leaf first
        assert main(["run", str(config), "--out", str(tmp_path / "a" / "b")]) == 1
        assert re.fullmatch(error, capsys.readouterr().err)
        assert not (tmp_path / "a").exists()
        # one that already existed is kept
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main(["run", str(config), "--out", str(kept)]) == 1
        assert kept.is_dir() and not any(kept.iterdir())

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(_CONFIG.replace("seed = 7", "seed = -1"))
        assert main(["run", str(config)]) == 2
        assert "seed: must be >= 0" in capsys.readouterr().err

    def test_non_finite_float_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(_CONFIG.replace("lr = 0.01", "lr = nan"))
        assert main(["run", str(config)]) == 2
        assert "lr: must be finite, got nan" in capsys.readouterr().err


class TestMasks:
    def test_prints_rows(self, capsys):
        assert main(["masks", "5", "5", "1", "0"]) == 0
        out = capsys.readouterr().out
        assert out == "10000\n01000\n00100\n00010\n00001\n"

    def test_writes_file(self, tmp_path, capsys):
        assert main(["masks", "3", "8", "2", "1", "--out", str(tmp_path), "--quiet"]) == 0
        rows = (tmp_path / "masks.txt").read_text().strip().split("\n")
        assert len(rows) == 3

    def test_s_larger_than_d_is_an_error(self, capsys):
        assert main(["masks", "3", "4", "5", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "s=5" in err

    def test_no_classes_is_an_error(self, capsys):
        assert main(["masks", "0", "4", "2", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "n_classes=0" in err

    @pytest.mark.parametrize("shape", [["30", "24", "6"], ["3", "8", "2"]])
    def test_negative_seed_is_an_error(self, shape, capsys):
        # (30, 24, 6) searches overlapping masks; (3, 8, 2) is disjoint
        assert main(["masks", *shape, "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "seed=-1" in err


class TestCost:
    def test_emits_csv_for_multiple_algorithms(self, tmp_path, capsys):
        query = tmp_path / "query.cfg"
        query.write_text(
            "algorithm = FedProto, TinyProto\nM = 20\nK = 100\nK_i = 100\nd = 500\ns = 50\n"
        )
        assert main(["cost", str(query)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "algorithm,params,params_millions"
        assert lines[1] == "FedProto,2000000,2.00"
        assert lines[2] == "TinyProto,200000,0.20"

    def test_writes_csv_file(self, tmp_path):
        query = tmp_path / "query.cfg"
        query.write_text("algorithm = FedAvg\nM = 2\nfull_model_params = 10\n")
        assert main(["cost", str(query), "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "costs.csv").read_text().strip().split("\n")[1] == "FedAvg,40,0.00"

    def test_missing_field_is_an_error(self, tmp_path, capsys):
        query = tmp_path / "query.cfg"
        query.write_text("algorithm = TinyProto\nM = 2\nK = 3\nK_i = 2\n")
        assert main(["cost", str(query)]) == 2
        assert "comp_dim" in capsys.readouterr().err

    def test_line_without_equals_is_an_error(self, tmp_path, capsys):
        query = tmp_path / "query.cfg"
        query.write_text("algorithm = TinyProto\nM 10\nK = 3\nK_i = 2\nd = 8\ns = 2\n")
        assert main(["cost", str(query)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_key_is_an_error(self, tmp_path, capsys):
        query = tmp_path / "query.cfg"
        query.write_text("algorithm = FedAvg\nM = 2\nfull_model_params = 10\nbogus = 1\n")
        assert main(["cost", str(query)]) == 2
        assert "bogus: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("M = abc", "M: expected an integer, got 'abc'"),
            ("K_i = 3,x", "K_i: expected an integer, got 'x'"),
            ("r = fast", "r: expected a number, got 'fast'"),
        ],
        ids=["M", "K_i", "r"],
    )
    def test_bad_value_is_named_by_its_key(self, tmp_path, capsys, line, message):
        query = tmp_path / "query.cfg"
        query.write_text(f"algorithm = TinyProto\nK = 3\nd = 8\ns = 2\n{line}\n")
        assert main(["cost", str(query)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("algorithm = TinyProto\nK = 3\nK_i = 2\nd = 8\ns = 2\nM = -3\n",
             "M: expected a non-negative integer, got '-3'"),
            ("algorithm = TinyProto\nK = 3\nd = 8\ns = 2\nK_i = 2,-1\n",
             "K_i: expected a non-negative integer, got '-1'"),
            ("algorithm = FedKD\nM = 2\naux_extractor_params = 5\n"
             "aux_classifier_params = 3\nr = -0.5\n",
             "r: expected a non-negative number, got '-0.5'"),
        ],
        ids=["M", "K_i", "r"],
    )
    def test_negative_value_is_named_by_its_key(self, tmp_path, capsys, lines, message):
        query = tmp_path / "query.cfg"
        query.write_text(lines)
        assert main(["cost", str(query)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    def test_repeated_key_is_an_error(self, tmp_path, capsys):
        query = tmp_path / "query.cfg"
        query.write_text("algorithm = TinyProto\nM = 4\nK = 4\nK_i = 2\nd = 8\ns = 2\nK = 400\n")
        assert main(["cost", str(query)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "K: set more than once (lines 3 and 7)" in captured.err

    @pytest.mark.parametrize("r", ["inf", "nan"])
    def test_non_finite_r_is_named(self, tmp_path, capsys, r):
        query = tmp_path / "query.cfg"
        query.write_text(
            "algorithm = FedKD\nM = 2\naux_extractor_params = 5\n"
            f"aux_classifier_params = 3\nr = {r}\n"
        )
        assert main(["cost", str(query)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"r: expected a finite number, got '{r}'" in err


def _assert_file_error(capsys, path):
    """Exit status 2 with one ``error:`` line naming ``path``, no traceback."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert repr(str(path)) in captured.err
    return captured.err


class TestFileErrors:
    """A file that cannot be read or written ends every subcommand alike."""

    def test_missing_config(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        assert main(["run", str(path)]) == 2
        _assert_file_error(capsys, path)

    def test_directory_as_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        _assert_file_error(capsys, tmp_path)

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(_CONFIG.encode() + b"# caf\xe9\n")
        assert main(["run", str(path)]) == 2
        assert "not UTF-8 text" in _assert_file_error(capsys, path)

    def test_masks_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["masks", "3", "8", "2", "1", "--out", str(out)]) == 2
        _assert_file_error(capsys, out)

    def test_run_out_is_a_file_fails_before_training(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "run.cfg"
        config.write_text(_CONFIG)
        out = tmp_path / "taken"
        out.write_text("")

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the output directory was checked")

        monkeypatch.setattr(cli, "run_experiment", no_training)
        assert main(["run", str(config), "--out", str(out)]) == 2
        _assert_file_error(capsys, out)
