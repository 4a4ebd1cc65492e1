"""Synthetic paired-modality generator and its bank draws."""

import numpy as np
import pytest

from hubkit import (
    DataError,
    EmbeddingSet,
    EmdConfig,
    Role,
    SimilarityMatrix,
    SinkhornConfig,
    SynthConfig,
    apply_hubness,
    cosine_similarity_matrix,
    emd,
    estimate_target_hubness,
    evaluate,
    generate_banks,
    generate_paired,
    is_hubness,
    k_occurrence,
    row_argsort_desc,
    skewness,
)


def _skew(S):
    return skewness(k_occurrence(row_argsort_desc(S), 1))


def _r1(S, gt):
    return evaluate(S, gt, [1]).r_at[1]


class TestGeneratePaired:
    def test_noiseless_pairs_are_identical(self):
        cfg = SynthConfig(
            dim=16, n_pairs=50, noise_sigma=0.0, gap_magnitude=0.0,
            hub_fraction=0.0, hub_strength=0.0, seed=3,
        )
        Q, T, gt = generate_paired(cfg)
        S = cosine_similarity_matrix(Q, T)
        np.testing.assert_allclose(np.diag(S.values), 1.0, atol=1e-12)
        assert _r1(S, gt) == 100.0

    def test_outputs_are_unit_norm(self):
        Q, T, _ = generate_paired(SynthConfig(dim=32, n_pairs=100, seed=1))
        np.testing.assert_allclose(np.linalg.norm(Q.data, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(T.data, axis=1), 1.0, atol=1e-9)

    def test_ground_truth_is_identity(self):
        _, _, gt = generate_paired(SynthConfig(dim=8, n_pairs=5, seed=0))
        assert gt.pairs == tuple(frozenset({i}) for i in range(5))

    def test_hub_strength_drives_skewness(self):
        base = SynthConfig(seed=0)
        flat = SynthConfig(seed=0, hub_strength=0.0)
        S_hub = cosine_similarity_matrix(*generate_paired(base)[:2])
        S_flat = cosine_similarity_matrix(*generate_paired(flat)[:2])
        assert _skew(S_hub) > _skew(S_flat) + 0.5

    def test_bitwise_deterministic(self):
        cfg = SynthConfig(dim=24, n_pairs=80, seed=9, bank_shift=0.3)
        Q1, T1, _ = generate_paired(cfg)
        Q2, T2, _ = generate_paired(cfg)
        assert np.array_equal(Q1.data, Q2.data)
        assert np.array_equal(T1.data, T2.data)
        B1 = generate_banks(cfg)
        B2 = generate_banks(cfg)
        assert np.array_equal(B1[0].data, B2[0].data)
        assert np.array_equal(B1[1].data, B2[1].data)

    def test_config_validation(self):
        with pytest.raises(DataError):
            SynthConfig(dim=0)
        with pytest.raises(DataError):
            SynthConfig(noise_sigma=-0.1)
        with pytest.raises(DataError):
            SynthConfig(hub_fraction=1.5)
        with pytest.raises(DataError):
            SynthConfig(hub_strength=-0.2)
        for name in ("noise_sigma", "gap_magnitude", "bank_shift"):
            for value in (np.nan, np.inf):
                with pytest.raises(DataError, match="finite"):
                    SynthConfig(**{name: value})

    @pytest.mark.parametrize(
        "bad", [{"dim": 2.5}, {"n_pairs": 10.0}, {"n_pairs": "10"}, {"seed": 1.5}, {"seed": -1}]
    )
    def test_non_integer_count_or_negative_seed_is_refused(self, bad):
        (name,) = bad
        with pytest.raises(DataError, match=name):
            SynthConfig(**bad)
        SynthConfig(**{name: np.int64(3)})  # numpy integers pass


class TestGenerateBanks:
    def test_bank_queries_live_near_test_queries(self):
        """Unshifted bank queries are closer to the query cloud than to targets."""
        for seed in range(5):
            cfg = SynthConfig(seed=seed)
            Q, T, _ = generate_paired(cfg)
            Bq, _ = generate_banks(cfg, base=(Q, T))
            to_queries = emd(Bq, Q)
            to_targets = emd(Bq, EmbeddingSet(T.data, role=Role.TARGET))
            assert to_queries < to_targets

    def test_banks_are_fresh_draws(self):
        cfg = SynthConfig(dim=16, n_pairs=60, seed=2)
        Q, _, _ = generate_paired(cfg)
        Bq, Bt = generate_banks(cfg)
        assert Bq.count == cfg.n_pairs and Bt.count == cfg.n_pairs
        # no test query is duplicated in the bank
        overlap = np.max(Q.data @ Bq.data.T)
        assert overlap < 1.0 - 1e-9

    def test_shifted_bank_hurts_plan_based_estimate_more(self):
        """Balancing adapts to the bank's own geometry, so a strongly shifted
        bank misleads it; the softmax form only reads column logsumexps and
        degrades more gently."""
        cfg = SynthConfig(seed=0, bank_shift=1.0)
        Q, T, gt = generate_paired(cfg)
        Bq, _ = generate_banks(cfg, base=(Q, T))
        S = cosine_similarity_matrix(Q, T)
        S_bt = cosine_similarity_matrix(Bq, T)
        sn_r1 = _r1(
            apply_hubness(S, estimate_target_hubness(S_bt, SinkhornConfig(tau=0.01, max_iters=10))),
            gt,
        )
        is_r1 = _r1(apply_hubness(S, is_hubness(S_bt, 0.02)), gt)
        assert sn_r1 < is_r1

    def test_base_dim_check(self):
        cfg = SynthConfig(dim=16, n_pairs=20, seed=0)
        Q, T, _ = generate_paired(cfg)
        with pytest.raises(DataError):
            generate_banks(SynthConfig(dim=8, n_pairs=20, seed=0), base=(Q, T))
