"""The per-layer metrics a traced run reports, and how each is derived.

Every ``*_s`` metric is self time, in seconds per pass, of the spans with
that name (``cli.<step>_s`` of the in-process ``hubkit.cli.main`` call for
that step).  Counts are summed per pass.  Each value is the median over the
traced passes, plus, for spans recorded during set-up (synth), the median
over the set-ups.  A layer a workload does not call reads 0 there.

Which end-to-end metric each should move, on which workload, is in
``perfbench/README.md``.
"""

from . import stats

# (metric name, unit, source).  Source is a span name for self time,
# "<span>#<count>" for a count, or a callable over one pass's totals.
PER_LAYER = [
    ("core.cosine_similarity_matrix_s", "s", "core.cosine_similarity_matrix"),
    ("core.row_argsort_desc_s", "s", "core.row_argsort_desc"),
    ("scaling.inverted_softmax_s", "s", "scaling.inverted_softmax"),
    ("scaling.is_hubness_s", "s", "scaling.is_hubness"),
    ("scaling.apply_hubness_s", "s", "scaling.apply_hubness"),
    ("sinkhorn.sn_normalize_s", "s", "sinkhorn.sn_normalize"),
    ("sinkhorn.s_per_sweep", "s", lambda t: _ratio(t.get("sinkhorn.sinkhorn", 0.0), t.get("sinkhorn.sinkhorn#sweeps", 0.0))),
    ("sinkhorn.dbsn_s", "s", "sinkhorn.dbsn"),
    ("sinkhorn.estimate_target_hubness_s", "s", "sinkhorn.estimate_target_hubness"),
    ("sinkhorn.sinkhorn_s", "s", "sinkhorn.sinkhorn"),
    ("sinkhorn.sweeps", "count", "sinkhorn.sinkhorn#sweeps"),
    ("sinkhorn.plan_entropy_s", "s", "sinkhorn.plan_entropy"),
    ("sinkhorn.marginal_violation_s", "s", "sinkhorn.marginal_violation"),
    ("retrieval.evaluate_s", "s", "retrieval.evaluate"),
    ("retrieval.best_rank_s", "s", "retrieval.best_rank"),
    ("diagnostics.k_occurrence_s", "s", "diagnostics.k_occurrence"),
    ("diagnostics.skewness_s", "s", "diagnostics.skewness"),
    ("diagnostics.emd_s", "s", "diagnostics.emd"),
    ("variants.otn_s", "s", "variants.otn"),
    ("variants.otn_sweeps", "count", "variants.otn#sweeps"),
    ("variants.l2n_s", "s", "variants.l2n"),
    ("variants.l2n_sweeps", "count", "variants.l2n#sweeps"),
    ("variants.hn_s", "s", "variants.hn"),
    ("variants.sparsity_s", "s", "variants.sparsity"),
    ("synth.generate_paired_s", "s", "synth.generate_paired"),
    ("synth.generate_banks_s", "s", "synth.generate_banks"),
    ("io.read_similarity_s", "s", "io.read_similarity"),
    ("io.write_similarity_s", "s", "io.write_similarity"),
    ("io.read_embeddings_s", "s", "io.read_embeddings"),
    ("io.write_embeddings_s", "s", "io.write_embeddings"),
    ("io.read_ground_truth_s", "s", "io.read_ground_truth"),
    ("io.write_ground_truth_s", "s", "io.write_ground_truth"),
    ("io.write_report_s", "s", "io.write_report"),
    ("io.bytes_read", "bytes", lambda t: _sum_counts(t, "io.", "#bytes_read")),
    ("io.bytes_written", "bytes", lambda t: _sum_counts(t, "io.", "#bytes_written")),
    ("cli.startup_s", "s", "cli.startup"),
    ("cli.synth_s", "s", "cli.synth"),
    ("cli.sim_s", "s", "cli.sim"),
    ("cli.normalize_s", "s", "cli.normalize"),
    ("cli.evaluate_s", "s", "cli.evaluate"),
    ("cli.diagnose_s", "s", "cli.diagnose"),
    ("trace.overhead_s", "s", None),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_counts(totals: dict, prefix: str, suffix: str) -> float:
    return sum(v for k, v in totals.items() if k.startswith(prefix) and k.endswith(suffix))


def _value(source, totals: dict) -> float:
    if callable(source):
        return float(source(totals))
    return float(totals.get(source, 0.0))


def _median_or_zero(values) -> float:
    return stats.median(values) if values else 0.0


def layer_metrics(pass_totals: list[dict], setup_totals: list[dict], overhead_s: float) -> dict[str, float]:
    out = {}
    for name, _unit, source in PER_LAYER:
        if source is None:
            continue
        out[name] = _median_or_zero([_value(source, t) for t in pass_totals]) + _median_or_zero(
            [_value(source, t) for t in setup_totals]
        )
    out["trace.overhead_s"] = overhead_s
    return out


def span_breakdown(pass_totals: list[dict], setup_totals: list[dict]) -> dict:
    """Median self time per pass (and per set-up) of every span name seen."""
    def medians(groups):
        names = sorted({k for t in groups for k in t})
        return {k: stats.median([t.get(k, 0.0) for t in groups]) for k in names}

    return {"per_pass": medians(pass_totals), "per_setup": medians(setup_totals)}
