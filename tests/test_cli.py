"""Command-line tests, run in-process through main() with captured stdio."""
from __future__ import annotations

import csv
import io
import json

import pytest

from minelab.board import Boundary, generate_board
from minelab.cli import main
from minelab.cnf import build_formula, export_gcnf
from minelab.harness import GAMES_COLUMNS, game_seed, parse_sweep_config
from minelab.player import play_game

from conftest import load_state


def run_cli(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlay:
    def test_row_matches_library_call(self, capsys):
        code, out, err = run_cli(capsys, "play", "--n", "6", "--rho", "0.1",
                                 "--seed", "2", "--master", "5")
        assert code == 0 and err == ""
        cells = next(csv.reader(io.StringIO(out)))
        assert len(cells) == len(GAMES_COLUMNS)
        board = generate_board(6, 0.1, game_seed(5, 0.1, 2))
        record = play_game(board, "sat", rho=0.1, seed=2)
        assert cells[0] == "6"
        assert float(cells[1]) == 0.1
        assert cells[2] == "sat"
        assert cells[3] == "2"
        assert float(cells[4]) == record.alpha
        assert int(cells[5]) == record.max_core
        assert int(cells[6]) == record.turns
        assert cells[7] == record.outcome.value
        assert float(cells[8]) >= 0.0

    def test_trace_lines_then_row(self, capsys):
        code, out, _ = run_cli(capsys, "play", "--n", "6", "--rho", "0.12",
                               "--trace")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 2
        for line in lines[:-1]:
            entry = json.loads(line)
            assert set(entry) == {"turn", "inferences", "safe", "mine",
                                  "core_size"}
            assert entry["safe"] + entry["mine"] == entry["inferences"]
        turns = [json.loads(line)["turn"] for line in lines[:-1]]
        assert turns == list(range(1, len(turns) + 1))

    def test_kset_policy_and_no_cores(self, capsys):
        code, out, _ = run_cli(capsys, "play", "--n", "6", "--rho", "0.1",
                               "--policy", "kset:2", "--no-cores")
        assert code == 0
        cells = next(csv.reader(io.StringIO(out)))
        assert cells[2] == "kset:2"
        assert cells[5] == ""      # no max_core column for k-set play

    def test_impossible_board_prints_exhausted_row(self, capsys):
        code, out, _ = run_cli(capsys, "play", "--n", "4", "--rho", "0.5625")
        assert code == 0
        cells = next(csv.reader(io.StringIO(out)))
        assert cells[7] == "generation_exhausted"
        assert cells[4] == ""


class TestKsetBatch:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "kset", "--k", "1", "--n", "6",
                               "--rho", "0.1", "--seeds", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(GAMES_COLUMNS)
        assert len(rows) == 4
        assert [r[3] for r in rows[1:]] == ["0", "1", "2"]
        assert all(r[2] == "kset:1" for r in rows[1:])


class TestSolve:
    def test_sat_with_model(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "SAT"
        assert lines[1] == "v -1 2 0"

    def test_unsat(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert out.strip() == "UNSAT"

    def test_gcnf_input(self, capsys, tmp_path):
        state = load_state("mine_row.state", board_name="mine_row.board")
        path = tmp_path / "f.gcnf"
        path.write_text(export_gcnf(build_formula(state)))
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert out.strip().splitlines()[0] == "SAT"

    def test_rejects_unknown_format(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            run_cli(capsys, "solve", str(path))


class TestCore:
    def test_groups_printed_one_based(self, capsys, tmp_path):
        state = load_state("mine_row.state", board_name="mine_row.board")
        path = tmp_path / "f.gcnf"
        path.write_text(export_gcnf(build_formula(state)))
        code, out, _ = run_cli(capsys, "core", str(path), "--", "-1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "groups: 1"
        assert lines[1] == "C = 1"

    @pytest.mark.parametrize("pivot", ["0", "3", "-3"])
    def test_out_of_range_pivot_fails(self, capsys, tmp_path, pivot):
        path = tmp_path / "f.gcnf"
        path.write_text("p gcnf 2 1 1\n{1} 1 2 0\n")
        code, out, err = run_cli(capsys, "core", str(path), "--", pivot)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert f"pivot {pivot} " in err

    def test_satisfiable_pivot_fails(self, capsys, tmp_path):
        path = tmp_path / "f.gcnf"
        path.write_text("p gcnf 2 1 1\n{1} 1 2 0\n")
        code, out, err = run_cli(capsys, "core", str(path), "1")
        assert code == 1
        assert out == ""
        assert "not unsat" in err


class TestPercolation:
    def test_csv_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "percolation", "--mode", "independent",
                               "--param-grid", "0.4,0.5", "--n", "12",
                               "--samples", "5", "--seed", "7")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["mode", "param", "n", "s_avg_mean", "s_avg_se",
                           "samples"]
        assert len(rows) == 3
        from minelab.percolation import PercolationConfig, percolation_sweep
        records = percolation_sweep(PercolationConfig(
            mode="independent", params=[0.4, 0.5], n=12, samples=5, seed=7))
        for row, rec in zip(rows[1:], records):
            assert row[0] == rec.mode
            assert float(row[1]) == rec.param
            assert float(row[3]) == rec.s_avg_mean
            assert int(row[5]) == rec.samples

    def test_range_grid_and_svg(self, capsys, tmp_path):
        svg = tmp_path / "perc.svg"
        code, out, _ = run_cli(capsys, "percolation", "--mode", "independent",
                               "--param-grid", "0.4:0.6:0.1", "--n", "10",
                               "--samples", "3", "--svg", str(svg))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[1] for r in rows[1:]] == ["0.4", "0.5", "0.6"]
        assert svg.exists()
        assert "<svg" in svg.read_text()

    def test_grid_parses_like_sweep_rho(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr("minelab.cli.percolation_sweep",
                            lambda config: seen.append(config.params) or [])
        grid = "0.05,0.1:0.3:0.05,0.4"
        code, _, _ = run_cli(capsys, "percolation", "--mode", "independent",
                             "--param-grid", grid)
        assert code == 0
        expect = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4)
        assert tuple(seen[0]) == expect
        assert parse_sweep_config(f"rho = {grid}\n").rhos == expect


class TestSweep:
    def test_end_to_end(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("n = 5\nrho = 0.1\npolicies = sat\ngames = 2\n"
                          f"outdir = {tmp_path / 'out'}\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 0, err
        assert out.strip().endswith("1 points -> " + str(tmp_path / "out"))
        assert (tmp_path / "out" / "games.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "alpha.svg").exists()
        assert (tmp_path / "out" / "core.svg").exists()

    def test_outdir_flag_overrides(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("n = 5\nrho = 0.1\npolicies = kset:1\ngames = 2\n")
        code, _, _ = run_cli(capsys, "sweep", "--config", str(config),
                             "--outdir", str(tmp_path / "alt"))
        assert code == 0
        assert (tmp_path / "alt" / "games.csv").exists()
        # k-set games carry no cores, so no core chart is produced.
        assert not (tmp_path / "alt" / "core.svg").exists()

    def test_missing_outdir_fails(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("n = 5\nrho = 0.1\ngames = 1\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 1
        assert "outdir" in err
