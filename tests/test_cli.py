"""Command-line entry points: run, masks, cost."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tinyproto import cli
from tinyproto.cli import main
from tinyproto.costmodel import CostQuery
from tinyproto.masking import format_mask_rows, generate_masks

_ROOT = Path(__file__).resolve().parent.parent

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

    def test_every_client_dropped_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 1\nM = 50\nK = 2\nper_class = 1\n")
        assert main(["run", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: every client was dropped; nothing to train\n"

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"\xef\xbb\xbfseed = 7\nM = 3\nK = 3\nrounds = 1\nper_class = 20\n")
        assert main(["run", str(config), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

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

    def test_sigma_whose_samples_overflow_is_a_config_error(self, tmp_path, capsys):
        # the config's ranges pass; only the drawn data shows the overflow
        config = tmp_path / "run.cfg"
        config.write_text(
            "seed = 1\nM = 3\nK = 3\nrounds = 2\nper_class = 5\nsigma = 1e308\n"
        )
        message = "invalid config:\n  sigma: sigma=1e+308 draws samples that overflow to inf\n"
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err == message
        # the directories made for --out are removed
        assert main(["run", str(config), "--out", str(tmp_path / "a" / "b")]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("n_clients", [3, 40])
    def test_alpha_whose_shares_overflow_is_a_config_error(self, tmp_path, capsys, n_clients):
        # alpha * M overflows, so the Dirichlet draw has no shares: with 3
        # clients the deal cannot place every sample, and with 40 it would
        # hand every sample to the first 20 clients
        config = tmp_path / "run.cfg"
        config.write_text(
            f"seed = 7\nM = {n_clients}\nK = 3\nalpha = 1e308\nrounds = 1\nper_class = 20\n"
        )
        message = (
            "invalid config:\n"
            "  alpha: alpha=1e+308 draws no client shares (alpha * n_clients overflows)\n"
        )
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err == message
        assert main(["run", str(config), "--out", str(tmp_path / "a" / "b")]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "a").exists()


class TestMasks:
    def test_prints_rows(self, capsys):
        assert main(["masks", "5", "5", "1", "0"]) == 0
        out = capsys.readouterr().out
        assert out == "10000\n01000\n00100\n00010\n00001\n"

    def test_module_entry_point_prints_rows(self):
        # ``python -m tinyproto`` reaches the same main() the tests call
        env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "tinyproto", "masks", "5", "5", "1", "0"],
            cwd=_ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == format_mask_rows(generate_masks(5, 5, 1, 0))

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

    def test_query_with_byte_order_mark(self, tmp_path, capsys):
        query = tmp_path / "query.cfg"
        query.write_bytes(b"\xef\xbb\xbfalgorithm = FedAvg\nM = 2\nfull_model_params = 10\n")
        assert main(["cost", str(query)]) == 0
        assert capsys.readouterr().out.split("\n")[1] == "FedAvg,40,0.00"

    @pytest.mark.parametrize(
        "algorithms, names",
        [
            ("FedProto,", ["FedProto"]),
            ("FedProto, ,TinyProto,", ["FedProto", "TinyProto"]),
            (",FedProto,,TinyProto", ["FedProto", "TinyProto"]),
        ],
    )
    def test_empty_algorithm_names_are_skipped(self, tmp_path, capsys, algorithms, names):
        # as an empty K_i entry is
        query = tmp_path / "query.cfg"
        query.write_text(f"algorithm = {algorithms}\nM = 2\nK = 3\nK_i = 2,\nd = 16\ns = 4\n")
        assert main(["cost", str(query)]) == 0
        rows = {"FedProto": "FedProto,160,0.00", "TinyProto": "TinyProto,40,0.00"}
        assert capsys.readouterr().out.split("\n")[1:-1] == [rows[n] for n in names]

    @pytest.mark.parametrize("line", ["algorithm = ,", "algorithm =", "M = 2"])
    def test_query_naming_no_algorithm_is_an_error(self, tmp_path, capsys, line):
        query = tmp_path / "query.cfg"
        query.write_text(f"{line}\nfull_model_params = 10\n")
        assert main(["cost", str(query)]) == 2
        assert capsys.readouterr().err == "error: query file must set 'algorithm'\n"

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

    def test_fedkd_product_past_the_float_range_is_an_error(self, tmp_path, capsys):
        query = tmp_path / "query.cfg"
        query.write_text(
            "algorithm = FedKD\nM = 3\naux_extractor_params = 10\n"
            "aux_classifier_params = 2\nr = 1e308\n"
        )
        assert main(["cost", str(query)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: r: FedKD cost") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, algorithm",
        [
            ("algorithm = FedAvg\nM = 1\nfull_model_params = 1" + "0" * 400 + "\n", "FedAvg"),
            ("algorithm = TinyProto\nM = 1\nK = 1" + "0" * 400 + "\nK_i = 1\ns = 1\n", "TinyProto"),
        ],
        ids=["FedAvg-400-digit-params", "TinyProto-401-digit-K"],
    )
    def test_millions_past_the_float_range_is_an_error(self, tmp_path, capsys, text, algorithm):
        query = tmp_path / "query.cfg"
        query.write_text(text)
        assert main(["cost", str(query)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {algorithm} cost in millions is past the float range\n"
        assert captured.out == ""

    def test_count_past_the_float_range_with_millions_inside_it(self, tmp_path, capsys):
        query = tmp_path / "query.cfg"
        query.write_text("algorithm = FedAvg\nM = 1\nfull_model_params = 1" + "0" * 310 + "\n")
        assert main(["cost", str(query)]) == 0
        algo, params, millions = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert (algo, int(params), float(millions)) == ("FedAvg", 2 * 10**310, 2e304)

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

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("algorithm = FedProto\nM = 2\nK = 3\nK_i = 2\n",
             "d: FedProto cost requires field 'proto_dim'"),
            ("algorithm = TinyProto\nK = 3\nK_i = 2\ns = 2\n",
             "M: TinyProto cost requires field 'n_clients'"),
            ("algorithm = TinyProto\nM = 3\nK = 3\nK_i = 2,3\ns = 2\n",
             "K_i, M: classes_per_client has 2 entries but n_clients=3"),
        ],
        ids=["missing-d", "missing-M", "K_i-against-M"],
    )
    def test_missing_or_inconsistent_value_is_named_by_its_key(
        self, tmp_path, capsys, lines, message
    ):
        query = tmp_path / "query.cfg"
        query.write_text(lines)
        assert main(["cost", str(query)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_repeated_key_is_an_error(self, tmp_path, capsys):
        query = tmp_path / "query.cfg"
        query.write_text("algorithm = TinyProto\nM = 4\nK = 4\nK_i = 2\nd = 8\ns = 2\nK = 400\n")
        assert main(["cost", str(query)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "K: set more than once (lines 3 and 7)" in captured.err

    # the message for a bad value, by the field's kind and the value
    _QUERY_FIELDS = [f for f in dataclasses.fields(CostQuery) if f.metadata]
    _EXPECTED = {
        int: {"abc": "an integer", "-7": "a non-negative integer"},
        float: {"abc": "a number", "-7": "a non-negative number"},
    }

    @staticmethod
    def _query(tmp_path, f, text):
        """A query setting field ``f`` to ``text``, twice over when it is listed."""
        query = tmp_path / "query.cfg"
        value = f"{text}, {text}" if f.metadata["listed"] else text
        query.write_text(f"algorithm = FedAvg\n{f.metadata['key']} = {value}\n")
        return str(query)

    @pytest.mark.parametrize("f", _QUERY_FIELDS, ids=lambda f: f.metadata["key"])
    def test_each_field_parses_its_value_as_its_kind(self, tmp_path, f):
        kind, listed = f.metadata["kind"], f.metadata["listed"]
        (parsed,) = cli._parse_cost_query_file(self._query(tmp_path, f, "7"))
        value = getattr(parsed, f.name)
        assert value == ([kind(7)] * 2 if listed else kind(7))
        assert all(type(item) is kind for item in (value if listed else [value]))
        others = [g.name for g in self._QUERY_FIELDS if g is not f]
        assert all(getattr(parsed, name) is None for name in others)

    @pytest.mark.parametrize("f", _QUERY_FIELDS, ids=lambda f: f.metadata["key"])
    @pytest.mark.parametrize("text", ["abc", "-7"], ids=["unparsable", "negative"])
    def test_each_field_names_a_bad_value_by_its_kind(self, tmp_path, capsys, f, text):
        assert main(["cost", self._query(tmp_path, f, text)]) == 2
        what = self._EXPECTED[f.metadata["kind"]][text]
        line = f"  {f.metadata['key']}: expected {what}, got {text!r}\n"
        times = 2 if f.metadata["listed"] else 1
        assert capsys.readouterr().err == "error: invalid query file:\n" + line * times

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

    def test_config_not_utf8_after_byte_order_mark(self, tmp_path, capsys):
        # the byte is counted from the start of the file, the mark included
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfseed = 7\n# caf\xe9\n")
        assert main(["run", str(path)]) == 2
        assert "invalid continuation byte at byte 17" in _assert_file_error(capsys, path)

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
