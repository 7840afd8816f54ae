"""Average-case hardness laboratory for Minesweeper inference.

Boards on a torus or open square lattice; frontier labels compiled to
grouped CNF; an assumption-based solver answering forced-safe/forced-mine
queries; minimal group cores as a per-inference hardness metric; a bounded
k-set linear-combination prover for comparison; cluster statistics linking
the mine density to site percolation; and a sweep harness reproducing the
alpha(rho) phase portrait at desk scale.
"""
from __future__ import annotations

from .board import (Board, Boundary, Frontiers, GameState, GenerationExhausted,
                    IllegalMove, IllegalQuery, ParseError, RevealOutcome, Site,
                    Status, flag, frontiers, generate_board, neighbors,
                    parse_board, parse_overlay, reveal, serialize_board,
                    serialize_overlay)
from .cnf import (GroupedCnf, InfeasibleLabel, build_formula,
                  encode_exact_count, export_dimacs, export_gcnf,
                  parse_dimacs, parse_gcnf)
from .gmus import GmusResult, NotUnsat, extract_gmus, max_core_size
from .harness import (SweepConfig, SweepRecord, desk_rhos, float_range,
                      game_seed, parse_sweep_config, read_games_csv,
                      read_summary_csv, run_sweep, write_games_csv,
                      write_summary_csv)
from .kset import ForcedAssignment, build_constraints, kset_infer
from .percolation import (ClusterStats, Connectivity, NoClusters,
                          OccupancyGrid, PercolationConfig, PercRecord,
                          avg_cluster_size, cluster_sizes,
                          independent_occupancy, minesweeper_occupancy,
                          percolation_sweep)
from .player import (GameRecord, Inference, Outcome, Policy, Verdict,
                     consistency_check, infer_step, play_game)
from .plots import EmptyInput, render_plots
from .sat import ResourceLimit, SolveResult, Solver, solve

__version__ = "0.1.0"

__all__ = [
    "Board", "Boundary", "Frontiers", "GameState", "GenerationExhausted",
    "IllegalMove", "IllegalQuery", "ParseError", "RevealOutcome", "Site",
    "Status", "flag", "frontiers", "generate_board", "neighbors",
    "parse_board", "parse_overlay", "reveal", "serialize_board",
    "serialize_overlay",
    "GroupedCnf", "InfeasibleLabel", "build_formula", "encode_exact_count",
    "export_dimacs", "export_gcnf", "parse_dimacs", "parse_gcnf",
    "GmusResult", "NotUnsat", "extract_gmus", "max_core_size",
    "SweepConfig", "SweepRecord", "desk_rhos", "float_range", "game_seed",
    "parse_sweep_config", "read_games_csv", "read_summary_csv", "run_sweep",
    "write_games_csv", "write_summary_csv",
    "ForcedAssignment", "build_constraints", "kset_infer",
    "ClusterStats", "Connectivity", "NoClusters", "OccupancyGrid",
    "PercolationConfig", "PercRecord", "avg_cluster_size", "cluster_sizes",
    "independent_occupancy", "minesweeper_occupancy", "percolation_sweep",
    "GameRecord", "Inference", "Outcome", "Policy", "Verdict",
    "consistency_check", "infer_step", "play_game",
    "EmptyInput", "render_plots",
    "ResourceLimit", "SolveResult", "Solver", "solve",
    "__version__",
]
