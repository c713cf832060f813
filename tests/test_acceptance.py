"""Acceptance gate: eleven numbered criteria, one test (and one pass/fail
verdict line) per criterion. Each test prints a [criterion NN] line with the
measured quantity so the run log doubles as an acceptance report.

Every oracle here is computed independently of the library internals:
element-wise W/Z summation with hand-rolled Gaussian elimination, brute-force
pairwise correlation scans, a from-scratch complete-linkage clusterer, and
direct re-solves of the lasso at perturbed regularization strengths.
"""

import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy.stats import spearmanr

from aspectra import (
    AspectPartition,
    ConstantModel,
    NumericTable,
    Observation,
    PermutationConfig,
    TriplotConfig,
    group_importance,
    group_variables,
    model_triplot,
    predict_aspects,
    predict_triplot,
    render_aspects,
    render_triplot,
)
from aspectra.aspects import build_design, delta_predictions, fit_lasso, fit_ols
from aspectra.cli import cli_main
from aspectra.data import RngStream
from aspectra.errors import SingularDesign
from aspectra.global_importance import ImportanceContext
from aspectra.models import LinearModel

from conftest import make_six_variable, singletons


class Budget:
    """Wall-clock guard for a criterion's stated runtime bound."""

    def __init__(self, seconds: float):
        self.limit = seconds
        self.t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def check(self):
        assert self.elapsed() < self.limit, f"budget {self.limit}s exceeded"


def report(k: int, detail: str):
    print(f"[criterion {k:02d}] PASS - {detail}")


def gauss_solve(W, Z):
    """Partial-pivot Gaussian elimination on plain python floats."""
    m = len(Z)
    M = [list(map(float, W[i])) + [float(Z[i])] for i in range(m)]
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(M[r][col]))
        if abs(M[piv][col]) < 1e-9:
            return None
        M[col], M[piv] = M[piv], M[col]
        for r in range(m):
            if r == col:
                continue
            f = M[r][col] / M[col][col]
            for c in range(col, m + 1):
                M[r][c] -= f * M[col][c]
    return [M[i][m] / M[i][i] for i in range(m)]


def random_design(rng, m, N, p=None):
    p = p or m
    table = NumericTable(
        tuple(f"c{i}" for i in range(p)), rng.uniform(0.0, 1.0, (max(N, 8), p))
    )
    part = AspectPartition(tuple((f"g{j}", (j,)) for j in range(p)))
    x_star = Observation(rng.uniform(0.0, 1.0, p))
    seed = int(rng.integers(0, 2**31))
    return build_design(table, x_star, part, N, RngStream(seed))


def test_criterion_01_closed_form_equivalence():
    budget = Budget(5.0)
    rng = np.random.default_rng(101)
    collected = 0
    worst = 0.0
    attempts = 0
    while collected < 200:
        attempts += 1
        assert attempts < 2000, "could not draw enough well-posed instances"
        m = int(rng.integers(1, 5))
        N = int(rng.integers(max(2 * m, 4), 51))
        design = random_design(rng, m, N)
        ym = rng.standard_normal(N)

        # independent oracle: element-wise sums of sigma products
        Xp = design.X_prime
        W = [
            [sum(int(Xp[n, i]) * int(Xp[n, j]) for n in range(N)) for j in range(m)]
            for i in range(m)
        ]
        Z = [sum(int(Xp[n, i]) * float(ym[n]) for n in range(N)) for i in range(m)]
        if any(W[i][i] == 0 for i in range(m)) or np.linalg.cond(np.array(W)) > 1e6:
            continue
        expected = gauss_solve(W, Z)
        if expected is None:
            continue

        fit = fit_ols(design, ym)
        dev = float(np.max(np.abs(fit.gamma - np.array(expected))))
        worst = max(worst, dev)
        assert dev <= 1e-10, f"instance {collected}: deviation {dev}"
        collected += 1
    budget.check()
    report(1, f"200 instances, max |gamma - oracle| = {worst:.3e} <= 1e-10, "
              f"{budget.elapsed():.2f}s")


def test_criterion_02_constant_model_zero():
    budget = Budget(5.0)
    table, y = make_six_variable(n=200)
    model = ConstantModel(5.0)
    worst = 0.0

    expl = predict_aspects(model, table, table.row(0), 0.5, N=400, seed=0)
    worst = max(worst, max(abs(a.contribution) for a in expl.aspects))

    perm = PermutationConfig(loss="rmse", B=2, seed=1)
    gi = group_importance(model, table, y, singletons(table.column_names), perm)
    worst = max(worst, max(abs(g.importance) for g in gi.groups))

    tg = model_triplot(model, table, y, TriplotConfig(mode="global", permutation=perm))
    worst = max(worst, float(np.max(np.abs(tg.leaf_importance))),
                float(np.max(np.abs(tg.node_importance))))

    tl = predict_triplot(model, table, table.row(3), TriplotConfig(mode="local", N=300, seed=2))
    worst = max(worst, float(np.max(np.abs(tl.leaf_importance))),
                float(np.max(np.abs(tl.node_importance))))

    assert worst <= 1e-12
    budget.check()
    report(2, f"max |importance| across all four entry points = {worst:.1e} <= 1e-12, "
              f"{budget.elapsed():.2f}s")


def test_criterion_03_additive_linear_recovery():
    budget = Budget(30.0)
    rng = np.random.default_rng(303)
    n, p = 2000, 5
    coef = np.array([2.0, -1.5, 1.0, 0.6, 0.3])
    table = NumericTable(tuple(f"x{j}" for j in range(p)), rng.uniform(0.0, 1.0, (n, p)))
    model = LinearModel(0.5, coef)
    x_star = table.row(17)
    means = table.values.mean(axis=0)
    expected = coef * (x_star.values - means)
    part = singletons(table.column_names)

    hits = 0
    for seed in range(10):
        expl = predict_aspects(model, table, x_star, part, N=20_000, seed=seed)
        by_name = {a.name: a.contribution for a in expl.aspects}
        ok = all(
            abs(by_name[f"x{j}"] - expected[j]) <= max(0.1 * abs(expected[j]), 0.05)
            for j in range(p)
        )
        hits += ok
    assert hits >= 9, f"only {hits}/10 seeds recovered the additive contributions"
    budget.check()
    report(3, f"{hits}/10 seeds within max(10% rel, 0.05 abs) of "
              f"coef_j * (x*_j - mean_j), {budget.elapsed():.2f}s")


def reference_complete_linkage_cut(absR, cutoff):
    """From-scratch O(p^3) complete-linkage clustering cut at 1 - cutoff."""
    p = absR.shape[0]
    clusters = [frozenset([i]) for i in range(p)]
    h_cut = 1.0 - cutoff

    def dist(A, B):
        return max(1.0 - absR[a, b] for a in A for b in B)

    while len(clusters) > 1:
        best = None
        best_d = math.inf
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = dist(clusters[i], clusters[j])
                if d < best_d:
                    best_d = d
                    best = (i, j)
        if best_d > h_cut:
            break
        i, j = best
        merged = clusters[i] | clusters[j]
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)] + [merged]
    return {frozenset(c) for c in clusters}


def test_criterion_04_group_variables_correctness():
    budget = Budget(20.0)
    rng = np.random.default_rng(404)
    checked = 0
    for rep in range(100):
        n, p = 50, 8
        # half the tables get correlated blocks so cuts are non-trivial
        base = rng.standard_normal((n, p))
        if rep % 2 == 0:
            base[:, 1] = base[:, 0] + 0.4 * base[:, 1]
            base[:, 5] = base[:, 4] + 0.8 * base[:, 5]
        table = NumericTable(tuple(f"v{i}" for i in range(p)), base)
        absR = np.abs(spearmanr(table.values).statistic)  # independent oracle
        for cutoff in (0.3, 0.5, 0.7):
            part = group_variables(table, cutoff)
            got = {frozenset(ms) for ms in part.member_sets}
            # brute-force within-group bound
            for ms in part.member_sets:
                for a in ms:
                    for b in ms:
                        assert absR[a, b] >= cutoff - 1e-12
            assert got == reference_complete_linkage_cut(absR, cutoff), (
                f"rep={rep} cutoff={cutoff}"
            )
            checked += 1
    budget.check()
    report(4, f"{checked} clusterings equal the reference cut and pass the "
              f"all-pairs bound, {budget.elapsed():.2f}s")


def _importance(ctx, members):
    return ctx.mean_permuted_loss(members) - ctx.full_model_loss


def test_criterion_05_permutation_importance_sanity():
    budget = Budget(60.0)
    # (a) a model that ignores a column assigns it ~zero importance
    worst_ratio = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        X = rng.standard_normal((500, 3))
        y = 1.0 * X[:, 0] + 2.0 * X[:, 1] + 0.5 * rng.standard_normal(500)
        table = NumericTable(("u", "v", "ignored"), X)
        model = LinearModel(0.0, [1.0, 2.0, 0.0])
        ctx = ImportanceContext(model, table, y, PermutationConfig(loss="rmse", B=20, seed=seed))
        ratio = abs(_importance(ctx, (2,))) / ctx.full_model_loss
        worst_ratio = max(worst_ratio, ratio)
        assert ratio < 0.02
    # (b) importance ordering follows |coefficient| * sd
    sds = np.array([2.0, 1.0, 0.5])
    coef = np.array([0.5, 1.2, 3.0])  # |coef|*sd = 1.0, 1.2, 1.5 -> x2 > x1 > x0
    matches = 0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        X = rng.standard_normal((500, 3)) * sds
        y = X @ coef + 0.1 * rng.standard_normal(500)
        table = NumericTable(("x0", "x1", "x2"), X)
        model = LinearModel(0.0, coef)
        ctx = ImportanceContext(model, table, y, PermutationConfig(loss="rmse", B=3, seed=seed))
        imps = [_importance(ctx, (j,)) for j in range(3)]
        matches += imps[2] > imps[1] > imps[0]
    assert matches >= 95, f"ordering matched in only {matches}/100 runs"
    budget.check()
    report(5, f"ignored-column ratio max {worst_ratio:.4f} < 0.02 over 20 seeds; "
              f"ordering matched {matches}/100, {budget.elapsed():.2f}s")


def test_criterion_06_baseline_identity():
    budget = Budget(5.0)
    table, y = make_six_variable(n=300)
    worst = 0.0
    for loss_kind, B, seed in (("rmse", 1, 0), ("rmse", 5, 7), ("mae", 3, 42)):
        rng = np.random.default_rng(seed)
        model = LinearModel(0.1, rng.standard_normal(6))
        cfg = PermutationConfig(loss=loss_kind, B=B, seed=seed)
        ctx = ImportanceContext(model, table, y, cfg)
        gap = abs(_importance(ctx, range(6)) - (ctx.baseline_loss - ctx.full_model_loss))
        worst = max(worst, gap)
        assert gap <= 1e-12
    budget.check()
    report(6, f"|importance(all) - (baseline - full)| max = {worst:.1e} <= 1e-12, "
              f"{budget.elapsed():.2f}s")


def test_criterion_07_lasso_contract():
    budget = Budget(30.0)
    rng = np.random.default_rng(707)
    m = 6
    checked_minimality = 0
    for instance in range(6):
        N = 300
        design = random_design(rng, m, N)
        gamma_true = rng.standard_normal(m) * np.array([4.0, 3.0, 2.0, 1.2, 0.7, 0.4])
        ym = design.X_prime.astype(float) @ gamma_true + 0.05 * rng.standard_normal(N)
        ols = fit_ols(design, ym)
        support = int(np.count_nonzero(ols.gamma))
        for limit in range(m + 1):
            fit = fit_lasso(design, ym, limit)
            nnz = int(np.count_nonzero(fit.gamma))
            assert nnz <= limit, f"instance {instance} limit {limit}: {nnz} nonzeros"
            if limit == m:
                assert np.max(np.abs(fit.gamma - ols.gamma)) <= 1e-8
            if limit < support:
                # minimality: nudging lambda down must break the cap
                from aspectra._kernels import lasso_cd

                w, _ = lasso_cd(fit.W, fit.Z, design.N * fit.lam * (1 - 1e-3))
                assert np.count_nonzero(w) > limit, (
                    f"instance {instance} limit {limit}: lambda not minimal"
                )
                checked_minimality += 1
    assert checked_minimality >= 30  # every limit < support across 6 instances
    budget.check()
    report(7, f"6 designs x limits 0..6: caps hold, limit=m == OLS to 1e-8, "
              f"{checked_minimality} minimality checks, {budget.elapsed():.2f}s")


def test_criterion_08_correlated_pair_grouping_effect():
    budget = Budget(30.0)
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        z = rng.standard_normal(300)
        x1 = z + np.sqrt(1.0 / 0.98**2 - 1.0) * rng.standard_normal(300) * 0.98
        # exact construction: corr(x1, x2) = 0.98 in population
        x2 = 0.98 * x1 + np.sqrt(1.0 - 0.98**2) * rng.standard_normal(300)
        X = np.column_stack([x1, x2])
        y = x1 + x2 + 0.1 * rng.standard_normal(300)
        table = NumericTable(("x1", "x2"), X)
        model = LinearModel(0.0, [1.0, 1.0])
        ctx = ImportanceContext(model, table, y, PermutationConfig(loss="rmse", B=1, seed=seed))
        pair = _importance(ctx, (0, 1))
        wins += pair > _importance(ctx, (0,)) and pair > _importance(ctx, (1,))
    assert wins >= 95, f"pair beat both singletons in only {wins}/100 runs"
    budget.check()
    report(8, f"pair importance exceeded both singletons in {wins}/100 runs, "
              f"{budget.elapsed():.2f}s")


def test_criterion_09_determinism_end_to_end(six_csv, tmp_path, capsys):
    budget = Budget(10.0)
    outputs = {}
    for mode in ("global", "local"):
        for run_id in ("first", "second"):
            jpath = tmp_path / f"{mode}_{run_id}.json"
            spath = tmp_path / f"{mode}_{run_id}.svg"
            argv = ["triplot", "--mode", mode, "--data", six_csv, "--target", "y",
                    "--model", "linear", "--seed", "5", "--out", str(jpath)]
            if mode == "global":
                argv += ["--B", "2"]
            else:
                argv += ["--row", "1", "--N", "400"]
            assert cli_main(argv) == 0
            assert cli_main(["render", "--in", str(jpath), "--out", str(spath)]) == 0
            outputs[(mode, run_id)] = (jpath.read_bytes(), spath.read_bytes())
    capsys.readouterr()
    for mode in ("global", "local"):
        assert outputs[(mode, "first")] == outputs[(mode, "second")]
    budget.check()
    report(9, f"global and local triplot JSON+SVG byte-identical across reruns, "
              f"{budget.elapsed():.2f}s")


def test_criterion_10_renderer_structure():
    budget = Budget(5.0)
    table, y = make_six_variable(n=250)
    rng = np.random.default_rng(10)
    model = LinearModel(0.0, rng.standard_normal(6))
    perm = PermutationConfig(loss="rmse", B=1, seed=0)
    res = model_triplot(model, table, y, TriplotConfig(mode="global", permutation=perm))
    svg = render_triplot(res)
    ET.fromstring(svg)  # well-formed XML
    p = res.p
    assert svg.count('class="bar"') == p
    assert svg.count('class="node-label"') == p - 1
    assert svg.count('class="junction"') == p - 1

    # lasso-limited aspect chart: at most L bars with nonzero width
    big = NumericTable(tuple(f"v{i}" for i in range(9)),
                       np.random.default_rng(11).uniform(0, 1, (400, 9)))
    model9 = LinearModel(0.0, [5, 4, 3, 2, 1, 0.5, 0.3, 0.2, 0.1])
    L = 4
    expl = predict_aspects(model9, big, big.row(0),
                           singletons(big.column_names),
                           N=4000, seed=0, limit=L)
    svg2 = render_aspects(expl)
    ET.fromstring(svg2)
    widths = []
    for line in svg2.splitlines():
        if 'class="bar"' in line:
            widths.append(float(line.split('width="')[1].split('"')[0]))
    assert len(widths) == 9
    assert sum(1 for w in widths if w > 0.0) <= L
    budget.check()
    report(10, f"triplot: {p} bars / {p - 1} labels / {p - 1} junctions; "
               f"aspect chart: <= {L} visible bars of 9, {budget.elapsed():.2f}s")


def test_criterion_11_average_observation_small_Z():
    budget = Budget(10.0)
    rng = np.random.default_rng(1111)
    n, p = 2000, 5
    table = NumericTable(tuple(f"x{j}" for j in range(p)), rng.uniform(0.0, 1.0, (n, p)))
    coef = np.array([2.0, -1.0, 1.5, 0.8, -0.5])
    model = LinearModel(1.0, coef)
    x_star = Observation(table.values.mean(axis=0))
    part = singletons(table.column_names)
    design = build_design(table, x_star, part, N=20_000, rng=RngStream(0))
    ym = delta_predictions(model, design)
    Z = design.X_prime.astype(float).T @ ym
    mean_z = float(np.mean(np.abs(Z)) / design.N)
    sd_ym = float(np.std(ym))
    assert sd_ym > 0.0
    assert mean_z < 0.05 * sd_ym, f"mean|Z|/N = {mean_z}, sd(Y_m) = {sd_ym}"
    budget.check()
    report(11, f"mean|Z|/N = {mean_z:.5f} < 0.05 * sd(Y_m) = {0.05 * sd_ym:.5f}, "
               f"{budget.elapsed():.2f}s")
