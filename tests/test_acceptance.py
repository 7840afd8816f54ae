"""End-to-end acceptance gates for the laboratory.

Each gate prints one [acceptance N] PASS/FAIL line with the measured
numbers before asserting, so a full run reads as a checklist. Gates 1-4
read three sweeps that the session fixtures play from scratch, with two
worker processes and the time budget off, into a pytest temporary
directory. test_fresh_sweep_matches_expected then compares each sweep's
games.csv and summary.csv byte for byte with the copies committed under
tests/acceptance_expected/<sweep>/, so any change to a game's alpha,
max_core, turns or outcome fails the suite and names the rows it moved.
After a change that really moves the numbers, copy the two files of each
sweep from the directory the failure names over the committed ones; the
diff of those files is the record of what moved.
"""
from __future__ import annotations

import math
import random
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest
from scipy import stats

from minelab.board import Boundary, Site, frontiers, generate_board
from minelab.cnf import GroupedCnf
from minelab.harness import (DESK_RHOS, GAMES_COLUMNS, SweepConfig,
                             SweepRecord, float_range, run_sweep)
from minelab.kset import build_constraints, kset_infer
from minelab.percolation import PercolationConfig, percolation_sweep
from minelab.percolation import _minesweeper_occupancy as minesweeper_occupancy
from minelab.player import Verdict, infer_step
from conftest import (consistency_check, inference_pivot, load_state,
                      random_reachable_state, read_games_csv, solve,
                      state_formula)

EXPECTED = Path(__file__).parent / "acceptance_expected"
SWEEPS = ("sat_sweep", "kset_sweep", "stratification")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance {num}: {detail}"


def alpha_by_rho(records: List[SweepRecord], n: int,
                 policy: str) -> Dict[float, float]:
    return {r.rho: r.alpha_mean for r in records
            if r.n == n and r.policy == policy and r.games > 0}


def steepest_drop(curve: Dict[float, float]):
    """Largest one-step decrease and the midpoint rho of that step."""
    rhos = sorted(curve)
    best_drop, best_mid = -math.inf, None
    for a, b in zip(rhos, rhos[1:]):
        drop = curve[a] - curve[b]
        if drop > best_drop:
            best_drop, best_mid = drop, (a + b) / 2
    return best_drop, best_mid


def max_slope(curve: Dict[float, float]) -> float:
    rhos = sorted(curve)
    return max(abs(curve[b] - curve[a]) / (b - a)
               for a, b in zip(rhos, rhos[1:]))


# -- session fixtures (fresh sweeps and shared state pools) -------------------

@pytest.fixture(scope="session")
def sweep_root(tmp_path_factory) -> Path:
    """The directory the fresh sweeps write into, one subdirectory each."""
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def sat_sweep(sweep_root) -> List[SweepRecord]:
    return run_sweep(SweepConfig(
        ns=(20, 40), rhos=DESK_RHOS, policies=("sat",), games=50, seed=0,
        outdir=sweep_root / "sat_sweep", track_cores=True,
        time_budget_s=None, workers=2))


@pytest.fixture(scope="session")
def kset_sweep(sweep_root) -> List[SweepRecord]:
    return run_sweep(SweepConfig(
        ns=(40,), rhos=DESK_RHOS, policies=("kset:1", "kset:2", "kset:3"),
        games=50, seed=0, outdir=sweep_root / "kset_sweep",
        track_cores=False, time_budget_s=None, workers=2))


@pytest.fixture(scope="session")
def stratification(sweep_root, sat_sweep, kset_sweep):
    """A 200-game point for every policy at the rho maximizing the n=40
    sat-vs-1-set alpha gap."""
    sat40 = alpha_by_rho(sat_sweep, 40, "sat")
    k1 = alpha_by_rho(kset_sweep, 40, "kset:1")
    rho_star = max(sorted(sat40), key=lambda r: sat40[r] - k1[r])
    outdir = sweep_root / "stratification"
    records = run_sweep(SweepConfig(
        ns=(40,), rhos=(rho_star,),
        policies=("sat", "kset:1", "kset:2", "kset:3"), games=200, seed=0,
        outdir=outdir, track_cores=False, time_budget_s=None, workers=2))
    return rho_star, records, read_games_csv(outdir / "games.csv")


@pytest.fixture(scope="session")
def reachable_states():
    rng = np.random.default_rng(91046)
    states = []
    while len(states) < 500:
        state = random_reachable_state(rng, max_outer=20)
        if state is not None:
            states.append(state)
    return states


# -- independent oracles ------------------------------------------------------

def popcount_forced(state) -> Dict[Site, bool]:
    """Forced verdicts by vectorized enumeration of all 2^|outer| masks."""
    fr = build_constraints(state)
    o = len(fr.outer)
    xs = np.arange(1 << o, dtype=np.uint32)
    ok = np.ones(xs.shape, dtype=bool)
    for support, e in zip(fr.supports, fr.labels):
        mask = 0
        for j in support:
            mask |= 1 << j
        ok &= np.bitwise_count(xs & np.uint32(mask)) == e
    sols = xs[ok]
    assert sols.size > 0, "state must admit a placement"
    forced: Dict[Site, bool] = {}
    for j in range(o):
        bits = (sols >> np.uint32(j)) & np.uint32(1)
        first = int(bits[0])
        if np.all(bits == first):
            forced[fr.outer[j]] = bool(first)
    return forced


def truth_table_sat(formula: GroupedCnf) -> bool:
    nv = formula.num_vars
    xs = np.arange(1 << nv, dtype=np.uint32)
    ok = np.ones(xs.shape, dtype=bool)
    for g in sorted(formula.groups):
        for clause in formula.groups[g]:
            cl = np.zeros(xs.shape, dtype=bool)
            for lit in clause:
                bit = (xs >> np.uint32(abs(lit) - 1)) & np.uint32(1)
                cl |= (bit == 1) if lit > 0 else (bit == 0)
            ok &= cl
        if not ok.any():
            return False
    return bool(ok.any())


def random_formula(rnd: random.Random) -> GroupedCnf:
    nv = rnd.randint(1, 16)
    groups = {}
    for g in range(1, rnd.randint(1, 4) + 1):
        clauses = []
        for _ in range(rnd.randint(1, 6)):
            width = rnd.randint(1, min(5, nv))
            vs = rnd.sample(range(1, nv + 1), width)
            clauses.append(tuple(v if rnd.random() < 0.5 else -v
                                 for v in vs))
        groups[g] = clauses
    return GroupedCnf(num_vars=nv, groups=groups)


# -- the gates ---------------------------------------------------------------

def test_01_transition_shape(sat_sweep):
    curve = alpha_by_rho(sat_sweep, 20, "sat")
    a_low, a_high = curve[0.1], curve[0.4]
    _, drop_mid = steepest_drop(curve)
    ok = a_low >= 0.85 and a_high <= 0.10 and 0.15 <= drop_mid <= 0.35
    report(1, ok, f"n=20 alpha(0.10)={a_low:.3f} (needs >=0.85), "
                  f"alpha(0.40)={a_high:.3f} (needs <=0.10), "
                  f"steepest drop at rho={drop_mid:.4f} (needs 0.15..0.35)")


def test_02_transition_steepens_with_size(sat_sweep):
    slope20 = max_slope(alpha_by_rho(sat_sweep, 20, "sat"))
    slope40 = max_slope(alpha_by_rho(sat_sweep, 40, "sat"))
    report(2, slope40 > slope20,
           f"max |d alpha/d rho|: n=40 {slope40:.2f} vs n=20 {slope20:.2f} "
           f"(needs strict increase)")


def test_03_hardness_peak(sat_sweep):
    cores = {r.rho: r.maxcore_mean for r in sat_sweep
             if r.n == 20 and r.games > 0 and r.maxcore_mean is not None}
    rhos = sorted(cores)
    peak_rho = max(rhos, key=lambda r: cores[r])
    interior = rhos[0] < peak_rho < rhos[-1]
    ratio = cores[peak_rho] / cores[0.05] if cores[0.05] > 0 else math.inf
    ok = interior and ratio >= 3.0
    report(3, ok, f"n=20 mean max core peaks at rho={peak_rho:.3f} "
                  f"(interior={interior}), peak/low ratio "
                  f"{cores[peak_rho]:.2f}/{cores[0.05]:.2f}={ratio:.1f} "
                  f"(needs >=3)")


def test_04_kset_stratification(sat_sweep, kset_sweep, stratification):
    rho_star, records, rows = stratification
    means = {r.policy: r.alpha_mean for r in records}
    ordered = (means["kset:1"] <= means["kset:2"] <= means["kset:3"]
               <= means["sat"])
    by_policy: Dict[str, Dict[int, float]] = {}
    for row in rows:
        by_policy.setdefault(row["policy"], {})[row["seed"]] = row["alpha"]
    seeds = sorted(by_policy["sat"])
    sat_alphas = [by_policy["sat"][s] for s in seeds]
    k3_alphas = [by_policy["kset:3"][s] for s in seeds]
    # Paired one-sided test. The differences are zero-inflated with a heavy
    # right tail (a game is either solved by both or cracked only by sat),
    # so the signed-rank test is used rather than a t-test on means.
    if any(a != b for a, b in zip(sat_alphas, k3_alphas)):
        test = stats.wilcoxon(sat_alphas, k3_alphas, alternative="greater")
        pvalue = float(test.pvalue)
    else:
        pvalue = 1.0
    separated = means["sat"] - means["kset:3"] > 0 and pvalue < 0.05
    low = alpha_by_rho(sat_sweep, 40, "sat")[0.05]
    low_k3 = alpha_by_rho(kset_sweep, 40, "kset:3")[0.05]
    close_at_low = abs(low - low_k3) < 0.05
    ok = ordered and separated and close_at_low
    report(4, ok, f"rho*={rho_star:.3f}, means k1={means['kset:1']:.3f} "
                  f"<= k2={means['kset:2']:.3f} <= k3={means['kset:3']:.3f} "
                  f"<= sat={means['sat']:.3f} ({ordered}); paired signed-rank "
                  f"over {len(seeds)} seeds p={pvalue:.2e} (needs <0.05); "
                  f"|sat-k3| at rho=0.05 = {abs(low - low_k3):.4f} "
                  f"(needs <0.05)")


def test_05_occupancy_formula():
    results = []
    ok = True
    for rho in (0.05, 0.1, 0.2):
        fracs = []
        for b in range(100):
            ss = np.random.SeedSequence(entropy=20260815,
                                        spawn_key=(int(rho * 1000), b))
            board = generate_board(40, rho, ss, Boundary.TORUS,
                                   require_zero=False)
            fracs.append(float(minesweeper_occupancy(board).mean()))
        arr = np.asarray(fracs)
        mean = arr.mean()
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        model = 1.0 - (1.0 - rho) ** 9
        dev = abs(mean - model) / se
        results.append(f"rho={rho}: {mean:.4f} vs {model:.4f} "
                       f"({dev:.2f} se)")
        ok = ok and dev <= 3.0
    report(5, ok, "; ".join(results) + " (needs <=3 se each)")


def test_06_percolation_thresholds():
    indep = percolation_sweep(PercolationConfig(
        mode="independent", params=float_range(0.47, 0.71, 0.03),
        n=64, samples=200, seed=0, boundary=Boundary.OPEN))
    ms = percolation_sweep(PercolationConfig(
        mode="minesweeper", params=float_range(0.04, 0.16, 0.02),
        n=64, samples=200, seed=0, boundary=Boundary.OPEN))
    peak_p = max((r for r in indep if r.samples > 0),
                 key=lambda r: r.s_avg_mean).param
    peak_rho = max((r for r in ms if r.samples > 0),
                   key=lambda r: r.s_avg_mean).param
    ok = abs(peak_p - 0.59) <= 0.03 + 1e-9 and abs(peak_rho - 0.10) <= 0.03 + 1e-9
    report(6, ok, f"independent peak p={peak_p:.2f} (needs 0.59+-0.03), "
                  f"board-occupancy peak rho={peak_rho:.2f} "
                  f"(needs 0.10+-0.03)")


def test_07_oracle_equivalence(reachable_states):
    mismatches = 0
    unsound_kset = 0
    inferences = 0
    for state in reachable_states:
        oracle = popcount_forced(state)
        got = {inf.site: inf.verdict is Verdict.MINE
               for inf in infer_step(state, extract_cores=False)}
        if got != oracle:
            mismatches += 1
            continue
        inferences += len(got)
        fr = build_constraints(state)
        sat_pairs = set(got.items())
        for k in (1, 2, 3):
            pairs = {(fr.outer[j], bool(b)) for j, b in kset_infer(fr, k)}
            if not pairs <= sat_pairs:
                unsound_kset += 1
    ok = mismatches == 0 and unsound_kset == 0
    report(7, ok, f"{len(reachable_states)} states, {inferences} verdicts "
                  f"matched enumeration, {mismatches} mismatches, "
                  f"{unsound_kset} k-set escapes (needs 0 and 0)")


def test_08_core_invariants():
    rng = np.random.default_rng(77113)
    checked = 0
    failures = 0
    while checked < 200:
        state = random_reachable_state(rng, max_outer=14)
        if state is None or not consistency_check(state):
            continue
        formula = state_formula(state)
        outer = frontiers(state).outer
        for inf in infer_step(state, extract_cores=True):
            core = sorted(inf.core.core)
            pivot = inference_pivot(outer, inf)
            if solve(formula, core, [pivot]).sat:
                failures += 1
            for g in core:
                rest = [h for h in core if h != g]
                if not solve(formula, rest, [pivot]).sat:
                    failures += 1
            checked += 1
    report(8, failures == 0,
           f"{checked} extracted cores re-checked (unsat with pivot, every "
           f"single-group deletion sat), {failures} violations (needs 0)")


def test_09_solver_truth_table_agreement():
    rnd = random.Random(652334)
    mismatches = 0
    for _ in range(1000):
        formula = random_formula(rnd)
        res = solve(formula)
        expected = truth_table_sat(formula)
        if res.sat != expected:
            mismatches += 1
        elif res.sat:
            for g, clauses in formula.groups.items():
                for clause in clauses:
                    if not any(res.model[abs(l)] == (l > 0) for l in clause):
                        mismatches += 1
    report(9, mismatches == 0,
           f"1000 random formulas (<=16 vars) vs full truth tables, "
           f"{mismatches} mismatches (needs 0)")


def test_10_fixture_behavior():
    row = load_state("mine_row.state", board_name="mine_row.board")
    row_inferences = infer_step(row)
    row_ok = (consistency_check(row)
              and [(i.site, i.verdict) for i in row_inferences]
              == [((2, 2), Verdict.MINE)])
    swapped = load_state("mine_row_swapped.state", Boundary.OPEN)
    swapped_ok = not consistency_check(swapped)
    pocket = load_state("ambiguous_pocket.state", Boundary.OPEN)
    pocket_cs = build_constraints(pocket)
    pocket_ok = (infer_step(pocket) == []
                 and all(kset_infer(pocket_cs, k) == [] for k in (1, 2, 3)))
    ok = row_ok and swapped_ok and pocket_ok
    report(10, ok, f"mine row: centre-mine inference + consistent "
                   f"({row_ok}); swapped labels inconsistent "
                   f"({swapped_ok}); ambiguous pocket: zero inferences under "
                   f"both policies ({pocket_ok})")


# -- expected output -----------------------------------------------------------

KEY = ("n", "rho", "policy", "seed")


def sweep_differences(expected: Path, fresh: Path) -> List[str]:
    """How a fresh sweep's games.csv and summary.csv differ from the expected
    copies: rows per column that differ, each differing row, and where the
    fresh files are. Empty when both files are byte-identical."""
    differing = [name for name in ("games.csv", "summary.csv")
                 if (fresh / name).read_bytes()
                 != (expected / name).read_bytes()]
    if not differing:
        return []
    lines = [f"{' and '.join(differing)} differ from {expected}"]
    old = {tuple(r[k] for k in KEY): r
           for r in read_games_csv(expected / "games.csv")}
    new = {tuple(r[k] for k in KEY): r
           for r in read_games_csv(fresh / "games.csv")}
    if old.keys() != new.keys():
        lines.append(f"rows: {len(new)} fresh, {len(old)} expected, "
                     f"{len(old.keys() ^ new.keys())} keys in only one")
    shared = sorted(old.keys() & new.keys())
    moved = []
    for col in GAMES_COLUMNS:
        if col in KEY:
            continue
        changes = [(key, old[key][col], new[key][col]) for key in shared
                   if old[key][col] != new[key][col]]
        line = f"{col}: {len(changes)} rows differ"
        if changes and all(isinstance(a, (int, float)) and
                           isinstance(b, (int, float)) for _, a, b in changes):
            up = sum(1 for _, a, b in changes if b > a)
            line += f" ({len(changes) - up} smaller, {up} larger)"
        lines.append(line)
        moved.extend((key, col, a, b) for key, a, b in changes)
    for (n, rho, policy, seed), col, a, b in moved:
        lines.append(f"  n={n} rho={rho} {policy} seed={seed}: "
                     f"{col} {a} -> {b}")
    old_summary = (expected / "summary.csv").read_text().splitlines()
    new_summary = (fresh / "summary.csv").read_text().splitlines()
    for a, b in zip(old_summary, new_summary):
        if a != b:
            lines.append(f"  summary.csv {a} -> {b}")
    if len(old_summary) != len(new_summary):
        lines.append(f"  summary.csv: {len(new_summary)} lines fresh, "
                     f"{len(old_summary)} expected")
    lines.append(f"fresh files in {fresh}; after a change that really moves "
                 f"the numbers, copy its games.csv and summary.csv over "
                 f"the expected ones")
    return lines


@pytest.mark.parametrize("name", SWEEPS)
def test_fresh_sweep_matches_expected(name, sweep_root, request):
    request.getfixturevalue(name)
    lines = sweep_differences(EXPECTED / name, sweep_root / name)
    print("\n".join(lines) or f"{name}: games.csv and summary.csv are "
                              f"byte-identical to the expected copies")
    assert not lines, f"{name} differs from its expected output"
