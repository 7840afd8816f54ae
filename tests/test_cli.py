"""Command-line tests, run in-process through main() with captured stdio."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import random

import pytest

from minelab.board import generate_board
from minelab.cli import main
from minelab.cnf import export_gcnf
from minelab.harness import GAMES_COLUMNS, game_seed, parse_sweep_config
from minelab.player import play_game

from conftest import load_state, state_formula


def run_cli(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(result: tuple, command: str, message: str) -> None:
    """Exit status 2, no output, and one error line naming the problem."""
    code, out, err = result
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"minelab {command}: ")
    assert message in err


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

    def test_time_budget_off_by_default(self, capsys, hour_clock):
        code, out, _ = run_cli(capsys, "play", "--n", "8", "--rho", "0.15")
        assert code == 0
        cells = next(csv.reader(io.StringIO(out)))
        assert cells[7] != "stuck_timeout" and int(cells[6]) > 0

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

    @pytest.mark.parametrize("policy", ["kset:x", "kset:0", "dpll"])
    def test_bad_policy_fails_before_output(self, capsys, policy):
        code, out, err = run_cli(capsys, "play", "--n", "6", "--rho", "0.1",
                                 "--policy", policy)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("minelab play: ")
        assert repr(policy) in err

    def test_bad_board_size_fails_before_output(self, capsys):
        assert_input_error(run_cli(capsys, "play", "--n", "0", "--rho", "0.1"),
                           "play", "at least one empty site")

    @pytest.mark.parametrize("flag, message", [
        ("--seed", "non-negative integer"),
        ("--master", "non-negative integer"),
    ])
    def test_negative_seed_fails_before_output(self, capsys, flag, message):
        assert_input_error(run_cli(capsys, "play", "--n", "10", "--rho",
                                   "0.1", flag, "-1"), "play", message)

    def test_small_torus_fails_before_output(self, capsys):
        assert_input_error(run_cli(capsys, "play", "--n", "2", "--rho", "0.1"),
                           "play", "n >= 3")

    @pytest.mark.parametrize("args, message", [
        (("--time-budget", "-1"), "time budget must be positive"),
        (("--time-budget", "0"), "time budget must be positive"),
        (("--time-budget", "nan"), "time budget must be positive"),
        (("--conflict-budget", "-3"), "conflict budget must not be negative"),
    ])
    def test_bad_budget_fails_before_output(self, capsys, args, message):
        assert_input_error(run_cli(capsys, "play", "--n", "10", "--rho",
                                   "0.1", *args), "play", message)

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

    def test_time_budget_off_by_default(self, capsys, hour_clock):
        code, out, _ = run_cli(capsys, "kset", "--k", "1", "--n", "8",
                               "--rho", "0.15", "--seeds", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert all(r[7] != "stuck_timeout" and int(r[6]) > 0 for r in rows)

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_bad_arity_fails_before_output(self, capsys, k):
        code, out, err = run_cli(capsys, "kset", "--k", k, "--n", "6",
                                 "--rho", "0.1", "--seeds", "3")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("minelab kset: ")
        assert f"kset:{k}" in err

    @pytest.mark.parametrize("args, message", [
        (("--n", "0", "--rho", "0.1"), "at least one empty site"),
        (("--n", "6", "--rho", "1.5"), "rho must lie in [0, 1]"),
        (("--n", "6", "--rho", "0.1", "--master", "-2"),
         "non-negative integer"),
        (("--n", "6", "--rho", "0.1", "--seeds", "-1"),
         "--seeds must be at least 1"),
        (("--n", "6", "--rho", "0.1", "--seeds", "0"),
         "--seeds must be at least 1"),
        (("--n", "6", "--rho", "0.1", "--time-budget", "-1"),
         "time budget must be positive"),
    ])
    def test_bad_board_fails_before_output(self, capsys, args, message):
        assert_input_error(run_cli(capsys, "kset", "--k", "1", "--seeds", "1",
                                   *args), "kset", message)


class TestSolve:
    def test_sat_with_model(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "SAT"
        assert lines[1] == "v -1 2 0"

    @pytest.mark.parametrize("text, model", [
        # Variables no clause mentions read False.
        ("p cnf 3 1\n2 0\n", "v -1 2 -3 0"),
        # Sparse group tags: group 2 has no clause.
        ("p gcnf 4 2 3\n{1} 1 2 0\n{3} -2 0\n", "v 1 -2 -3 -4 0"),
    ])
    def test_model_line_covers_every_variable(self, capsys, tmp_path,
                                              text, model):
        path = tmp_path / "f.txt"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert out.splitlines() == ["SAT", model]

    def test_unsat(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert out.strip() == "UNSAT"

    def test_exceeded_conflict_budget_prints_unknown(self, capsys, tmp_path):
        # Unsatisfiable, and the search needs conflicts to show it.
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        code, out, err = run_cli(capsys, "solve", str(path),
                                 "--conflict-budget", "0")
        assert code == 1
        assert out == "UNKNOWN\n"
        assert err == "minelab solve: conflict budget 0 exceeded\n"
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert (code, out) == (0, "UNSAT\n")

    def test_gcnf_input(self, capsys, tmp_path):
        state = load_state("mine_row.state", board_name="mine_row.board")
        path = tmp_path / "f.gcnf"
        path.write_text(export_gcnf(state_formula(state)))
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert out.strip().splitlines()[0] == "SAT"

    def test_negative_conflict_budget_fails_before_output(self, capsys,
                                                           tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 1\n1 0\n")
        assert_input_error(run_cli(capsys, "solve", str(path),
                                   "--conflict-budget", "-3"),
                           "solve", "conflict budget must not be negative")

    def test_rejects_unknown_format(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("hello\n")
        assert_input_error(run_cli(capsys, "solve", str(path)), "solve",
                           "neither DIMACS")

    @pytest.mark.parametrize("command", ["solve", "core"])
    @pytest.mark.parametrize("text, message", [
        ("p cnf x 1\n1 0\n", "line 1: expected an integer, got 'x'"),
        ("p cnf 2 1\n1 a 0\n", "line 2: expected an integer, got 'a'"),
        ("p gcnf 2 1 1\n{x} 1 0\n", "line 2: expected an integer, got 'x'"),
        ("p cnf -2 0\n", "line 1: negative count"),
        ("p gcnf 2 1 -1\n", "line 1: negative count"),
        (None, "No such file"),
    ])
    def test_rejects_malformed_input(self, capsys, tmp_path, command, text,
                                     message):
        path = tmp_path / "f.txt"
        if text is not None:
            path.write_text(text)
        argv = [command, str(path)] + (["1"] if command == "core" else [])
        assert_input_error(run_cli(capsys, *argv), command, message)


class TestCore:
    def test_groups_printed_one_based(self, capsys, tmp_path):
        state = load_state("mine_row.state", board_name="mine_row.board")
        path = tmp_path / "f.gcnf"
        path.write_text(export_gcnf(state_formula(state)))
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

    def test_bad_grid_fails_before_output(self, capsys):
        assert_input_error(
            run_cli(capsys, "percolation", "--mode", "independent",
                    "--param-grid", "x"),
            "percolation", "could not convert string to float: 'x'")

    @pytest.mark.parametrize("grid, message", [
        pytest.param(grid, f"bad range '{grid}', expected start:stop:step",
                     id=grid) for grid in ("0.1:0.2", "0.1:0.2:0.05:1")] + [
        pytest.param(grid, "range bounds and step must be finite", id=grid)
        for grid in ("0:inf:0.1", "0:0.5:inf", "nan:0.5:0.1")] + [
        pytest.param("0.3,0.7:0.5:0.1", "empty range '0.7:0.5:0.1'",
                     id="0.3,0.7:0.5:0.1")])
    def test_malformed_range_fails_before_output(self, capsys, grid,
                                                 message):
        assert_input_error(
            run_cli(capsys, "percolation", "--mode", "independent",
                    "--param-grid", grid),
            "percolation", message)

    @pytest.mark.parametrize("args, message", [
        (("--samples", "0"), "samples must be at least 1"),
        (("--n", "0"), "n must be at least 1"),
    ])
    def test_bad_count_fails_before_output(self, capsys, args, message):
        assert_input_error(
            run_cli(capsys, "percolation", "--mode", "independent",
                    "--param-grid", "0.1", *args),
            "percolation", message)

    @pytest.mark.parametrize("svg", ["afile/p.svg", "afile/sub/p.svg"])
    def test_unusable_svg_path_fails_before_any_sample(self, capsys, tmp_path,
                                                       monkeypatch, svg):
        sweeps = []
        monkeypatch.setattr("minelab.cli.percolation_sweep",
                            lambda config: sweeps.append(config) or [])
        (tmp_path / "afile").write_text("")
        assert_input_error(
            run_cli(capsys, "percolation", "--mode", "independent",
                    "--param-grid", "0.4", "--svg", str(tmp_path / svg)),
            "percolation", str(tmp_path / "afile"))
        assert sweeps == []

    @pytest.mark.parametrize("mode, grid, message", [
        ("independent", "0.4,1.5", "p must lie in [0, 1]"),
        ("minesweeper", "0.1,1.0", "board must keep at least one empty site"),
        ("independent", "0.7:0.5:0.1", "empty range '0.7:0.5:0.1'"),
        ("independent", "0.5,0.5",
         "params lists 0.5 and 0.5, which name the same grid point"),
        ("minesweeper", "0.1,0.05:0.15:0.05",
         "params lists 0.1 and 0.1, which name the same grid point"),
    ])
    def test_bad_param_fails_before_any_sample(self, capsys, tmp_path,
                                              monkeypatch, mode, grid,
                                              message):
        samples = []
        monkeypatch.setattr("minelab.percolation._cluster_sizes",
                            lambda *args: samples.append(args))
        assert_input_error(
            run_cli(capsys, "percolation", "--mode", mode, "--param-grid",
                    grid, "--n", "6", "--svg", str(tmp_path / "new" / "p.svg")),
            "percolation", message)
        assert samples == []
        assert not (tmp_path / "new").exists()

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

    @pytest.mark.parametrize("text, message", [
        ("n = 5\nrho = 0.1\ngames = x\n", "line 3: "),
        ("n = 5\nrho = 0.1\ngames = 0\n", "games must be at least 1"),
        ("n = 5\nrho = 0.1\nworkers = 0\n", "workers must be at least 1"),
        ("n = 5, 2\nrho = 0.1\n", "torus boundary requires n >= 3"),
        ("n = 5\npolicies = dpll\n", "'dpll'"),
        ("n = 5\nrho = 0.1\ntime_budget_s = -2\n",
         "time budget must be positive"),
        ("n = 5\nrho = 0.1\nconflict_budget = -3\n",
         "conflict budget must not be negative"),
        ("n = 5\nrho = 0.1:0.2\n",
         "line 2: bad range '0.1:0.2', expected start:stop:step"),
        ("n = 5\nrho = 0.1:0.2:0.05:0.3\n",
         "line 2: bad range '0.1:0.2:0.05:0.3', expected start:stop:step"),
        ("n = 8, 8\nrho = 0.1\n", "n lists 8 and 8"),
        ("n = 8\nrho = 0.1, 0.1000000001\n",
         "rho lists 0.1 and 0.1000000001"),
        ("n = 8\nrho = 0.1\npolicies = kset:1, kset:01\n",
         "policies lists 'kset:1' and 'kset:01'"),
        (None, "No such file"),
    ])
    def test_bad_config_fails_before_output(self, capsys, tmp_path, text,
                                            message):
        config = tmp_path / "sweep.cfg"
        if text is not None:
            config.write_text(text + f"outdir = {tmp_path / 'out'}\n")
        assert_input_error(run_cli(capsys, "sweep", "--config", str(config)),
                           "sweep", message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("outdir", ["afile", "afile/out"])
    def test_unusable_outdir_fails_before_any_game(self, capsys, tmp_path,
                                                   monkeypatch, outdir):
        games = []
        monkeypatch.setattr("minelab.harness.play_seeded_game",
                            lambda *args, **kwargs: games.append(args))
        (tmp_path / "afile").write_text("")
        config = tmp_path / "sweep.cfg"
        config.write_text("n = 5\nrho = 0.1\ngames = 2\n"
                          f"outdir = {tmp_path / outdir}\n")
        assert_input_error(run_cli(capsys, "sweep", "--config", str(config)),
                           "sweep", str(tmp_path / "afile"))
        assert games == []

    def test_points_file_in_outdir_fails_before_any_game(self, capsys,
                                                         tmp_path,
                                                         monkeypatch):
        # The sweep keeps its point files under <outdir>/points, so a file
        # of that name is as unusable as the outdir being a file.
        games = []
        monkeypatch.setattr("minelab.harness.play_seeded_game",
                            lambda *args, **kwargs: games.append(args))
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "points").write_text("")
        config = tmp_path / "sweep.cfg"
        config.write_text("n = 5\nrho = 0.1\ngames = 2\n"
                          f"outdir = {tmp_path / 'out'}\n")
        assert_input_error(run_cli(capsys, "sweep", "--config", str(config)),
                           "sweep", str(tmp_path / "out" / "points"))
        assert games == []

    def test_missing_outdir_fails(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("n = 5\nrho = 0.1\ngames = 1\n")
        assert_input_error(run_cli(capsys, "sweep", "--config", str(config)),
                           "sweep", "outdir")


def random_formula_text(rng: random.Random, index: int) -> str:
    """A seeded random 3-SAT file near the threshold: DIMACS for every third
    index, otherwise GCNF with groups of one to three consecutive clauses."""
    nv = rng.randint(6, 80)
    clauses = []
    for _ in range(round(nv * rng.uniform(3.6, 5.0))):
        vs = rng.sample(range(1, nv + 1), 3)
        clauses.append(" ".join(str(v if rng.random() < 0.5 else -v)
                                for v in vs) + " 0")
    if index % 3 == 0:
        return f"p cnf {nv} {len(clauses)}\n" + "\n".join(clauses) + "\n"
    tags = []
    g = 0
    while len(tags) < len(clauses):
        g += 1
        tags.extend([g] * rng.randint(1, 3))
    lines = [f"{{{t}}} {c}" for t, c in zip(tags, clauses)]
    return (f"p gcnf {nv} {len(clauses)} {g}\n" + "\n".join(lines) + "\n")


class TestPinnedOutput:
    # sha256 of every solve and core run below: exit code, stdout, stderr.
    DIGEST = "26bdfddff062d5cc0e927743c684ede39e5a55c32758f20a02b47fe4bd370da6"

    def test_solve_and_core_output_digest(self, capsys, tmp_path):
        rng = random.Random(2610)
        digest = hashlib.sha256()
        for index in range(30):
            text = random_formula_text(rng, index)
            path = tmp_path / f"f{index}.txt"
            path.write_text(text)
            nv = int(text.split()[2])
            pivot = rng.randint(1, nv) * rng.choice((1, -1))
            for argv in (("solve", str(path)),
                         ("core", str(path), "--", str(pivot))):
                code, out, err = run_cli(capsys, *argv)
                digest.update(f"{index} {argv[0]} {code}\n{out}{err}"
                              .encode())
        assert digest.hexdigest() == self.DIGEST
