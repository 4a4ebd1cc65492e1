"""Acceptance suite: each test checks one shipping criterion and prints a
single PASS/FAIL line (run with ``pytest -s`` to see them live).

Oracles here are deliberately independent of the library code paths they
check: simplex projections use bisection instead of sorting, gradient methods
are plain instead of accelerated, and brute-force enumerations replace
solvers wherever the instance is small enough.
"""

import filecmp
import itertools
import time

import numpy as np
import pytest

import hubkit as hk
from hubkit.cli import main


def _check(num, description, ok, detail=""):
    line = f"AC-{num:02d} {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _skew(S, k=1):
    return hk.skewness(hk.k_occurrence(hk.row_argsort_desc(S), k))


def _r1(S, gt):
    return hk.evaluate(S, gt, [1]).r_at[1]


def _project_columns_simplex_bisect(V, total):
    """Bisection projection of each column onto {x >= 0, sum(x) = total}.

    Batched over leading axes; independent of the sort-based projection used
    inside the library.
    """
    lo = V.min(axis=-2, keepdims=True) - total / V.shape[-2]
    hi = V.max(axis=-2, keepdims=True)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        over = np.maximum(V - mid, 0.0).sum(axis=-2, keepdims=True) > total
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    return np.maximum(V - 0.5 * (lo + hi), 0.0)


def _entropic_objective(V, pi, tau):
    pos = pi > 0
    return float((V * pi).sum()) + tau * float((-pi[pos] * (np.log(pi[pos]) - 1.0)).sum())


@pytest.fixture(scope="module")
def standard_instances():
    """Per-seed metrics on the default synthetic benchmark, seeds 0-4."""
    t0 = time.perf_counter()
    rows = []
    for seed in range(5):
        Q, T, gt = hk.generate_paired(hk.SynthConfig(seed=seed))
        S = hk.cosine_similarity_matrix(Q, T)
        S_is_skew = hk.inverted_softmax(S, 0.02)
        S_is_rank = hk.inverted_softmax(S, 0.01)
        S_sn = hk.sn_normalize(S, hk.SinkhornConfig(tau=0.01, max_iters=10))
        rows.append(
            {
                "skews": (_skew(S), _skew(S_is_skew), _skew(S_sn)),
                "r1s": (_r1(S, gt), _r1(S_is_rank, gt), _r1(S_sn, gt)),
            }
        )
    return {"rows": rows, "seconds": time.perf_counter() - t0}


class TestSolverContracts:
    def test_ac01_feasibility_under_tolerance(self):
        rng = np.random.default_rng(100)
        S = hk.SimilarityMatrix(rng.uniform(-1, 1, (64, 80)))
        start = time.perf_counter()
        plan = hk.sinkhorn(
            S,
            hk.Marginals.uniform(64, 80),
            hk.SinkhornConfig(tau=0.05, max_iters=5000, tol=1e-8),
        )
        elapsed = time.perf_counter() - start
        ok = plan.converged and plan.marginal_violation <= 1e-6 and elapsed < 1.0
        _check(
            1,
            "balanced 64x80 plan meets marginals within 1e-6 in under a second",
            ok,
            f"violation={plan.marginal_violation:.2e} sweeps={plan.iterations_run} t={elapsed:.2f}s",
        )

    def test_ac02_column_only_solution_is_scaled_softmax(self):
        rng = np.random.default_rng(101)
        tau = 0.5
        Vs = rng.uniform(-1, 1, (100, 3, 3))
        worst_entry = 0.0
        plans = []
        for V in Vs:
            S = hk.SimilarityMatrix(V)
            plan = hk.sinkhorn(S, hk.Marginals.column_only(3), hk.SinkhornConfig(tau=tau, max_iters=1))
            plans.append(plan.pi)
            analytic = hk.inverted_softmax(S, tau).values / 3.0
            worst_entry = max(worst_entry, float(np.abs(plan.pi - analytic).max()))

        # independent maximizer: plain projected gradient on the column-sum
        # polytope, batched over all instances
        pis = np.full((100, 3, 3), 1.0 / 9.0)
        for _ in range(4000):
            grad = Vs - tau * np.log(np.maximum(pis, 1e-16))
            pis = _project_columns_simplex_bisect(pis + 0.005 * grad, 1.0 / 3.0)
        worst_obj = max(
            abs(_entropic_objective(V, pg, tau) - _entropic_objective(V, solver, tau))
            for V, pg, solver in zip(Vs, pis, plans)
        )
        ok = worst_entry <= 1e-6 and worst_obj <= 1e-4
        _check(
            2,
            "column-constrained optimum equals inverted softmax / n and a "
            "projected-gradient maximizer agrees in objective",
            ok,
            f"entry={worst_entry:.2e} objective={worst_obj:.2e}",
        )

    def test_ac03_rank_equivalences_are_exact(self):
        rng = np.random.default_rng(102)
        taus = (1.0, 0.1, 0.05)
        failures = 0
        for trial in range(1000):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 9))
            tau = taus[trial % 3]
            S = hk.SimilarityMatrix(rng.uniform(-1, 1, (m, n)))
            additive = hk.apply_hubness(S, hk.is_hubness(S, tau)).values
            multiplicative = hk.inverted_softmax(S, tau).values
            if not np.array_equal(
                np.argsort(-additive, axis=1, kind="stable"),
                np.argsort(-multiplicative, axis=1, kind="stable"),
            ):
                failures += 1
                continue
            plan = hk.sinkhorn(S, hk.Marginals.uniform(m, n), hk.SinkhornConfig(tau=tau, max_iters=10))
            shifted = S.values + plan.g[None, :]
            if not np.array_equal(
                np.argsort(-plan.pi, axis=1, kind="stable"),
                np.argsort(-shifted, axis=1, kind="stable"),
            ):
                failures += 1
        _check(
            3,
            "softmax and plan rankings match their additive forms on 1000 instances",
            failures == 0,
            f"failures={failures}",
        )

    def test_ac04_duals_reconstruct_plan(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for shape in ((20, 30), (33, 21), (16, 16)):
            S = hk.SimilarityMatrix(rng.uniform(-1, 1, shape))
            plan = hk.sinkhorn(
                S,
                hk.Marginals.uniform(*shape),
                hk.SinkhornConfig(tau=0.05, max_iters=5000, tol=1e-10),
            )
            rebuilt = np.exp((S.values + plan.f[:, None] + plan.g[None, :]) / plan.tau)
            worst = max(worst, float(np.abs(plan.pi - rebuilt).max() / plan.pi.max()))
        _check(4, "stored duals reproduce converged plans to 1e-8", worst <= 1e-8, f"max={worst:.2e}")

    def test_ac05_low_temperature_large_instance(self):
        rng = np.random.default_rng(104)
        S = hk.SimilarityMatrix(rng.uniform(-1, 1, (500, 500)))
        plan = hk.sinkhorn(
            S,
            hk.Marginals.uniform(500, 500),
            hk.SinkhornConfig(tau=0.01, max_iters=5000, tol=1e-8),
        )
        finite = bool(np.all(np.isfinite(plan.f)) and np.all(np.isfinite(plan.g)))
        ok = finite and plan.converged and plan.marginal_violation <= 1e-6
        _check(
            5,
            "tau=0.01 on a 500x500 matrix keeps finite duals and feasibility",
            ok,
            f"violation={plan.marginal_violation:.2e} sweeps={plan.iterations_run}",
        )


class TestSyntheticTrends:
    def test_ac06_skewness_chain(self, standard_instances):
        rows = standard_instances["rows"]
        chain = all(r["skews"][0] > r["skews"][1] > r["skews"][2] for r in rows)
        halved = all(r["skews"][2] <= 0.5 * r["skews"][0] for r in rows)
        fast = standard_instances["seconds"] < 10.0
        detail = " ".join(
            f"s{i}:{r['skews'][0]:.2f}>{r['skews'][1]:.2f}>{r['skews'][2]:.2f}"
            for i, r in enumerate(rows)
        )
        _check(
            6,
            "raw > softmax > balanced skewness on every seed, balanced at most half of raw",
            chain and halved and fast,
            f"{detail} t={standard_instances['seconds']:.1f}s",
        )

    def test_ac07_recall_ordering_and_gain(self, standard_instances):
        rows = standard_instances["rows"]
        ordered = all(r["r1s"][2] >= r["r1s"][1] >= r["r1s"][0] for r in rows)
        gain = float(np.mean([r["r1s"][2] - r["r1s"][0] for r in rows]))
        _check(
            7,
            "R@1 ordering balanced >= softmax >= raw with mean gain >= 2 points",
            ordered and gain >= 2.0,
            f"mean gain={gain:.2f}",
        )

    def test_ac08_bank_shift_behavior(self):
        cfg_sn = hk.SinkhornConfig(tau=0.01, max_iters=10)
        dbsn_wins = 0
        for seed in range(5):
            cfg = hk.SynthConfig(seed=seed, bank_shift=0.6)
            Q, T, gt = hk.generate_paired(cfg)
            Bq, Bt = hk.generate_banks(cfg, base=(Q, T))
            S = hk.cosine_similarity_matrix(Q, T)
            S_bt = hk.cosine_similarity_matrix(Bq, T)
            S_bb = hk.cosine_similarity_matrix(Bq, Bt)
            single = _r1(hk.apply_hubness(S, hk.estimate_target_hubness(S_bt, cfg_sn)), gt)
            dual = _r1(hk.dbsn(S, S_bt, S_bb, cfg_sn), gt)
            dbsn_wins += dual >= single
        softmax_wins = 0
        for seed in range(5):
            cfg = hk.SynthConfig(seed=seed, bank_shift=1.0)
            Q, T, gt = hk.generate_paired(cfg)
            Bq, _ = hk.generate_banks(cfg, base=(Q, T))
            S = hk.cosine_similarity_matrix(Q, T)
            S_bt = hk.cosine_similarity_matrix(Bq, T)
            balanced = _r1(hk.apply_hubness(S, hk.estimate_target_hubness(S_bt, cfg_sn)), gt)
            softmax = _r1(hk.apply_hubness(S, hk.is_hubness(S_bt, 0.02)), gt)
            softmax_wins += balanced < softmax
        ok = dbsn_wins >= 4 and softmax_wins >= 3
        _check(
            8,
            "dual-bank balancing helps at moderate shift; plan-based estimate "
            "degrades below softmax at large shift",
            ok,
            f"dbsn wins {dbsn_wins}/5, softmax wins {softmax_wins}/5",
        )

    def test_ac09_bank_extension_narrows_gap(self):
        wins = 0
        details = []
        for seed in range(5):
            cfg = hk.SynthConfig(seed=seed, bank_shift=0.0, gap_magnitude=0.25)
            Q, T, _ = hk.generate_paired(cfg)
            Bq, Bt = hk.generate_banks(cfg, base=(Q, T))
            extended = hk.EmbeddingSet(np.vstack([T.data, Bt.data]), role=hk.Role.TARGET)
            ec = hk.EmdConfig(subsample=512)
            concat = hk.emd(Bq, extended, ec)
            plain = hk.emd(Bq, T, ec)
            wins += concat < plain
            details.append(f"{concat:.4f}<{plain:.4f}")
        _check(
            9,
            "extending targets with the bank moves them toward the query bank "
            "(EMD) on at least 4 of 5 seeds",
            wins >= 4,
            f"wins={wins}/5",
        )


class TestVariantOracles:
    def test_ac10_assignment_matches_brute_force(self):
        rng = np.random.default_rng(106)
        exact = 0
        for _ in range(100):
            V = rng.uniform(-1, 1, (5, 5))
            plan = hk.hn(hk.SimilarityMatrix(V))
            cols = plan.pi.argmax(axis=1)
            achieved = 0.0
            for i in range(5):
                achieved += V[i, cols[i]]
            best = -np.inf
            for perm in itertools.permutations(range(5)):
                total = 0.0
                for i in range(5):
                    total += V[i, perm[i]]
                best = max(best, total)
            exact += achieved == best
        _check(10, "assignment value equals brute force over all 120 permutations", exact == 100,
               f"exact={exact}/100")

    def test_ac11_transport_variants_match_independent_oracles(self):
        rng = np.random.default_rng(107)
        marg = hk.Marginals.uniform(4, 4)

        worst_gap, worst_otn_feas = 0.0, 0.0
        for _ in range(30):
            V = rng.uniform(-1, 1, (4, 4))
            plan = hk.otn(hk.SimilarityMatrix(V), marg)
            best = max(
                sum(V[i, p[i]] for i in range(4)) / 4.0
                for p in itertools.permutations(range(4))
            )
            worst_gap = max(worst_gap, best - float((V * plan.pi).sum()))
            worst_otn_feas = max(worst_otn_feas, hk.marginal_violation(plan, marg))

        worst_fro, worst_l2n_feas = 0.0, 0.0
        for _ in range(10):
            V = rng.uniform(-1, 1, (4, 4))
            plan = hk.l2n(hk.SimilarityMatrix(V), marg, coeff=100.0)
            worst_l2n_feas = max(worst_l2n_feas, hk.marginal_violation(plan, marg))
            # oracle: plain (unaccelerated) gradient ascent on the projection dual
            z = 100.0 * V
            u, v = np.zeros(4), np.zeros(4)
            for _ in range(40000):
                x = np.maximum(z + u[:, None] + v[None, :], 0.0)
                u += (marg.a - x.sum(axis=1)) / 8.0
                v += (marg.b - x.sum(axis=0)) / 8.0
            x = np.maximum(z + u[:, None] + v[None, :], 0.0)
            worst_fro = max(worst_fro, float(np.linalg.norm(x - plan.pi)))

        ok = worst_gap <= 1e-3 and worst_fro <= 1e-4 and worst_otn_feas <= 1e-6 and worst_l2n_feas <= 1e-6
        _check(
            11,
            "exact OT reaches the vertex optimum and the projection matches "
            "a gradient-based QP oracle, both feasible",
            ok,
            f"otn gap={worst_gap:.2e} l2n fro={worst_fro:.2e} "
            f"feas={worst_otn_feas:.2e}/{worst_l2n_feas:.2e}",
        )

    def test_ac12_plan_sparsity_profile(self):
        Q, T, _ = hk.generate_paired(hk.SynthConfig(n_pairs=200, seed=0))
        S = hk.cosine_similarity_matrix(Q, T)
        marg = hk.Marginals.uniform(200, 200)
        s_otn = hk.sparsity(hk.otn(S, marg))
        s_hn = hk.sparsity(hk.hn(S))
        s_l2n = hk.sparsity(hk.l2n(S, marg))
        sn_plan = hk.sinkhorn(S, marg, hk.SinkhornConfig(tau=0.05, max_iters=5000, tol=1e-9))
        s_sn = hk.sparsity(sn_plan)
        ok = s_otn >= 0.95 and s_hn >= 0.95 and s_l2n >= 0.9 and s_sn == 0.0
        _check(
            12,
            "linear-OT, assignment, and projection plans are sparse; the "
            "entropic plan is fully dense",
            ok,
            f"otn={s_otn:.4f} hn={s_hn:.4f} l2n={s_l2n:.4f} sn={s_sn:.4f}",
        )


class TestEndToEnd:
    def test_ac13_temperature_sweep_gap(self, tmp_path):
        d = tmp_path
        assert main([
            "synth", "--seed", "0",
            "--out-queries", str(d / "q.emb"), "--out-targets", str(d / "t.emb"),
            "--out-gt", str(d / "gt.txt"),
        ]) == 0
        assert main([
            "sim", "--queries", str(d / "q.emb"), "--targets", str(d / "t.emb"),
            "--out", str(d / "s.sim"),
        ]) == 0
        assert main([
            "sweep-tau", "--sim", str(d / "s.sim"), "--gt", str(d / "gt.txt"),
            "--taus", "0.2,0.1,0.05,0.02,0.01", "--out", str(d / "sweep.tsv"),
        ]) == 0
        table = {}
        for line in (d / "sweep.tsv").read_text().strip().split("\n"):
            tau, method, r1 = line.split("\t")
            table.setdefault(float(tau), {})[method] = float(r1)
        gap = {tau: v["sn"] - v["is"] for tau, v in table.items()}
        low_tau_ok = all(table[tau]["sn"] >= table[tau]["is"] for tau in (0.02, 0.01))
        widens = gap[0.01] >= gap[0.1]
        _check(
            13,
            "balancing beats the softmax at low temperatures and the gap widens "
            "from tau 0.1 to 0.01",
            low_tau_ok and widens,
            "gaps " + " ".join(f"{t}:{gap[t]:+.2f}" for t in sorted(gap, reverse=True)),
        )

    def test_ac14_determinism_and_bit_exact_io(self, tmp_path):
        artifacts = ("q.emb", "t.emb", "gt.txt", "bq.emb", "bt.emb",
                     "raw.sim", "sn.sim", "report.json", "diag.tsv")
        for d in (tmp_path / "one", tmp_path / "two"):
            d.mkdir()
            assert main([
                "synth", "--seed", "7", "--pairs", "200", "--dim", "32",
                "--bank-shift", "0.3",
                "--out-queries", str(d / "q.emb"), "--out-targets", str(d / "t.emb"),
                "--out-gt", str(d / "gt.txt"),
                "--out-bank-queries", str(d / "bq.emb"),
                "--out-bank-targets", str(d / "bt.emb"),
            ]) == 0
            assert main([
                "sim", "--queries", str(d / "q.emb"), "--targets", str(d / "t.emb"),
                "--out", str(d / "raw.sim"),
            ]) == 0
            assert main([
                "normalize", "--input", str(d / "raw.sim"), "--method", "sn",
                "--out", str(d / "sn.sim"),
            ]) == 0
            assert main([
                "evaluate", "--sim", str(d / "sn.sim"), "--gt", str(d / "gt.txt"),
                "--skew-k", "1", "--out", str(d / "report.json"),
            ]) == 0
            assert main([
                "diagnose", "--sim", str(d / "sn.sim"), "--out", str(d / "diag.tsv"),
            ]) == 0
        identical = all(
            filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name, shallow=False)
            for name in artifacts
        )

        emb_path = tmp_path / "one" / "q.emb"
        emb_copy = tmp_path / "q2.emb"
        hk.write_embeddings(hk.read_embeddings(emb_path), emb_copy)
        sim_path = tmp_path / "one" / "raw.sim"
        sim_copy = tmp_path / "raw2.sim"
        hk.write_similarity(hk.read_similarity(sim_path), sim_copy)
        round_trip = (
            emb_path.read_bytes() == emb_copy.read_bytes()
            and sim_path.read_bytes() == sim_copy.read_bytes()
        )
        _check(
            14,
            "pipeline reruns are byte-identical and binary round-trips are bit-exact",
            identical and round_trip,
            f"{len(artifacts)} artifacts compared",
        )
