"""Command-line pipeline over the library.

Subcommands: synth (generate data), sim (cosine similarities), normalize
(apply one method), evaluate (R@K/MdR/MnR report), diagnose (k-occurrence
histogram, skewness, sparsity), emd (distribution gap), sweep-tau
(temperature study table), banksweep (bank-size study table).

Exit codes: 0 success, 1 usage error (bad or missing flags), 2 data error
(unreadable or malformed inputs).  Every subcommand is deterministic given
its flags and seed.  The environment variable HUBKIT_THREADS caps the thread
pools of the numeric backends and the number of threads that sort and
rank row blocks (0 or unset = automatic: one ranking thread per available
CPU); the BLAS cap is applied before the numeric libraries load.  All solver
loops are single-threaded either way.
"""

import argparse
import math
import os
import sys


def _apply_thread_cap() -> None:
    raw = os.environ.get("HUBKIT_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap > 0:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, str(cap))


class _UsageError(Exception):
    """Bad flag combination detected after parsing; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 1 (2 is for data errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if not values:
        raise _UsageError(f"{flag} must list at least one value")
    return values


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise _UsageError(f"{flag} must list at least one value")
    return values


def _require(args, names: list[str], method: str) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_").lstrip("_"), None) is None:
            raise _UsageError(f"--{name} is required for --method {method}")


def _cmd_synth(args) -> int:
    from . import io
    from .synth import SynthConfig, generate_banks, generate_paired

    cfg = SynthConfig(
        dim=args.dim,
        n_pairs=args.pairs,
        noise_sigma=args.noise,
        gap_magnitude=args.gap,
        hub_fraction=args.hub_fraction,
        hub_strength=args.hub_strength,
        bank_shift=args.bank_shift,
        seed=args.seed,
    )
    Q, T, gt = generate_paired(cfg)
    io.write_embeddings(Q, args.out_queries)
    io.write_embeddings(T, args.out_targets)
    io.write_ground_truth(gt, args.out_gt)
    if (args.out_bank_queries is None) != (args.out_bank_targets is None):
        raise _UsageError("--out-bank-queries and --out-bank-targets go together")
    if args.out_bank_queries is not None:
        Bq, Bt = generate_banks(cfg, base=(Q, T))
        io.write_embeddings(Bq, args.out_bank_queries)
        io.write_embeddings(Bt, args.out_bank_targets)
    return 0


def _cmd_sim(args) -> int:
    from . import io
    from .core import Role, cosine_similarity_matrix

    Q = io.read_embeddings(args.queries, renormalize=args.renormalize, role=Role.QUERY)
    T = io.read_embeddings(args.targets, renormalize=args.renormalize, role=Role.TARGET)
    io.write_similarity(cosine_similarity_matrix(Q, T), args.out)
    return 0


def _default_tau(method: str, tau) -> float:
    if tau is not None:
        return tau
    return 0.02 if method in ("is", "dis") else 0.01


def _cmd_normalize(args) -> int:
    from . import io
    from .scaling import (
        DISConfig,
        DualISConfig,
        apply_hubness,
        dual_inverted_softmax,
        dynamic_inverted_softmax,
        inverted_softmax,
        is_hubness,
    )
    from .sinkhorn import Marginals, SinkhornConfig, dbsn, estimate_target_hubness, sn_normalize
    from .variants import hn_normalize, l2n, otn

    S = io.read_similarity(args.input)
    method = args.method
    if method == "none":
        out = S
    elif method == "is":
        tau = _default_tau(method, args.tau)
        if args.bank_targets_sim is not None:
            bank = io.read_similarity(args.bank_targets_sim)
            out = apply_hubness(S, is_hubness(bank, tau))
        else:
            out = inverted_softmax(S, tau)
    elif method == "dis":
        _require(args, ["bank-targets-sim"], method)
        bank = io.read_similarity(args.bank_targets_sim)
        out = dynamic_inverted_softmax(S, bank, DISConfig(k=args.k), _default_tau(method, args.tau))
    elif method == "dualis":
        _require(args, ["bank-targets-sim", "tbank-targets-sim"], method)
        qbank = io.read_similarity(args.bank_targets_sim)
        tbank = io.read_similarity(args.tbank_targets_sim)
        out = dual_inverted_softmax(S, qbank, tbank, DualISConfig(tau1=args.tau1, tau2=args.tau2))
    elif method == "sn":
        cfg = SinkhornConfig(tau=_default_tau(method, args.tau), max_iters=args.iters)
        if args.bank_targets_sim is not None:
            bank = io.read_similarity(args.bank_targets_sim)
            out = apply_hubness(S, estimate_target_hubness(bank, cfg))
        else:
            out = sn_normalize(S, cfg)
    elif method == "dbsn":
        _require(args, ["bank-targets-sim", "bank-bank-sim"], method)
        cfg = SinkhornConfig(tau=_default_tau(method, args.tau), max_iters=args.iters)
        bank_targets = io.read_similarity(args.bank_targets_sim)
        bank_bank = io.read_similarity(args.bank_bank_sim)
        out = dbsn(S, bank_targets, bank_bank, cfg)
    elif method == "otn":
        plan = otn(S, Marginals.uniform(S.rows, S.cols))
        out = S.with_values(plan.pi)
    elif method == "l2n":
        plan = l2n(S, Marginals.uniform(S.rows, S.cols), coeff=args.coeff)
        out = S.with_values(plan.pi)
    else:
        out = hn_normalize(S, literal=args.hn_literal)
    io.write_similarity(out, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    from . import io
    from .core import row_argsort_desc
    from .diagnostics import k_occurrence, skewness
    from .retrieval import evaluate

    S = io.read_similarity(args.sim)
    gt = io.read_ground_truth(args.gt)
    Ks = _parse_int_list(args.Ks, "--Ks")
    skew = None
    if args.skew_k is not None:
        skew = skewness(k_occurrence(row_argsort_desc(S), args.skew_k))
    report = evaluate(S, gt, Ks, skew=skew, normalization=args.method, params={})
    io.write_report(report, args.out)
    return 0


def _cmd_diagnose(args) -> int:
    from . import io
    from .core import row_argsort_desc
    from .diagnostics import k_occurrence, skewness
    from .errors import IoFailure
    from .sinkhorn import TransportPlan
    from .variants import sparsity

    import numpy as np

    S = io.read_similarity(args.sim)
    occ = k_occurrence(row_argsort_desc(S), args.k)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        skew = skewness(occ)
    holder = TransportPlan(
        pi=S.values, f=None, g=None, tau=0.0, iterations_run=0, marginal_violation=0.0
    )
    frac = sparsity(holder, eps_rel=args.eps_rel)
    values, freqs = np.unique(occ.counts, return_counts=True)
    lines = [f"{int(v)}\t{int(c)}" for v, c in zip(values, freqs)]
    lines.append(f"skewness\t{skew:.10g}")
    lines.append(f"sparsity\t{frac:.10g}")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(args.out, str(exc)) from exc
    return 0


def _cmd_emd(args) -> int:
    from . import io
    from .core import Role
    from .diagnostics import EmdConfig, emd

    X = io.read_embeddings(args.x, role=Role.QUERY_BANK)
    Y = io.read_embeddings(args.y, role=Role.TARGET)
    cfg = EmdConfig(
        subsample=args.subsample, repeats=args.repeats, seed=args.seed, ground_cost=args.cost
    )
    print(f"{emd(X, Y, cfg):.10g}")
    return 0


def _cmd_sweep_tau(args) -> int:
    from . import io
    from .errors import IoFailure
    from .retrieval import evaluate
    from .scaling import inverted_softmax
    from .sinkhorn import SinkhornConfig, sn_normalize

    S = io.read_similarity(args.sim)
    gt = io.read_ground_truth(args.gt)
    taus = _parse_float_list(args.taus, "--taus")
    lines = []
    for tau in taus:
        for method in ("is", "sn"):
            if method == "is":
                normalized = inverted_softmax(S, tau)
            else:
                normalized = sn_normalize(S, SinkhornConfig(tau=tau, max_iters=args.iters))
            report = evaluate(normalized, gt, [1], normalization=method)
            lines.append(f"{tau:g}\t{method}\t{report.r_at[1]:.4f}")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(args.out, str(exc)) from exc
    return 0


def _cmd_banksweep(args) -> int:
    from . import io
    from .core import EmbeddingSet, Role, cosine_similarity_matrix, row_argsort_desc
    from .diagnostics import EmdConfig, emd, k_occurrence, skewness
    from .errors import IoFailure
    from .retrieval import evaluate
    from .scaling import apply_hubness, is_hubness
    from .sinkhorn import SinkhornConfig, dbsn, estimate_target_hubness

    Q = io.read_embeddings(args.queries, role=Role.QUERY)
    T = io.read_embeddings(args.targets, role=Role.TARGET)
    Bq = io.read_embeddings(args.bank_queries, role=Role.QUERY_BANK)
    Bt = io.read_embeddings(args.bank_targets, role=Role.TARGET_BANK)
    gt = io.read_ground_truth(args.gt)
    fractions = _parse_float_list(args.fractions, "--fractions")
    S = cosine_similarity_matrix(Q, T)
    cfg = SinkhornConfig(tau=args.tau, max_iters=args.iters)
    emd_cfg = EmdConfig(subsample=args.subsample, repeats=args.repeats, seed=args.seed)
    lines = []
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise _UsageError(f"--fractions entries must lie in (0,1], got {fraction}")
        nq = max(1, int(fraction * Bq.count))
        nt = max(1, int(fraction * Bt.count))
        bq = EmbeddingSet(Bq.data[:nq], role=Role.QUERY_BANK)
        bt = EmbeddingSet(Bt.data[:nt], role=Role.TARGET_BANK)
        S_bank_targets = cosine_similarity_matrix(bq, T)
        S_bank_bank = cosine_similarity_matrix(bq, bt)
        gap = emd(bq, T, emd_cfg)
        for method in ("is", "sn", "dbsn"):
            if method == "is":
                normalized = apply_hubness(S, is_hubness(S_bank_targets, tau=0.02))
            elif method == "sn":
                normalized = apply_hubness(S, estimate_target_hubness(S_bank_targets, cfg))
            else:
                normalized = dbsn(S, S_bank_targets, S_bank_bank, cfg)
            report = evaluate(normalized, gt, [1], normalization=method)
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                skew = skewness(k_occurrence(row_argsort_desc(normalized), 1))
            lines.append(f"{fraction:g}\t{method}\t{report.r_at[1]:.4f}\t{skew:.6f}\t{gap:.6f}")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(args.out, str(exc)) from exc
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hubkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate synthetic paired embeddings and banks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--noise", type=float, default=0.45)
    p.add_argument("--gap", type=float, default=0.5)
    p.add_argument("--hub-fraction", type=float, default=0.15)
    p.add_argument("--hub-strength", type=float, default=0.6)
    p.add_argument("--bank-shift", type=float, default=0.0)
    p.add_argument("--out-queries", required=True)
    p.add_argument("--out-targets", required=True)
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-bank-queries")
    p.add_argument("--out-bank-targets")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("sim", help="cosine similarity matrix from two embedding files")
    p.add_argument("--queries", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--renormalize", action="store_true")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("normalize", help="apply one normalization method to a similarity file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--method",
        required=True,
        choices=["none", "is", "dis", "dualis", "sn", "dbsn", "otn", "l2n", "hn"],
    )
    p.add_argument("--tau", type=_positive_float, default=None, help="default 0.02 for is/dis, 0.01 for sn/dbsn")
    p.add_argument("--tau1", type=_positive_float, default=0.02)
    p.add_argument("--tau2", type=_positive_float, default=0.02)
    p.add_argument("--iters", type=_positive_int, default=10)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--coeff", type=float, default=100.0)
    p.add_argument("--hn-literal", action="store_true")
    p.add_argument("--bank-targets-sim", help="query-bank rows x target columns (is/sn/dis/dbsn)")
    p.add_argument("--bank-bank-sim", help="query-bank rows x target-bank columns (dbsn)")
    p.add_argument("--tbank-targets-sim", help="target-bank rows x target columns (dualis)")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("evaluate", help="R@K/MdR/MnR report from a similarity file")
    p.add_argument("--sim", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--Ks", default="1,5,10")
    p.add_argument("--method", default="none", help="normalization name echoed into the report")
    p.add_argument("--skew-k", type=_positive_int, default=None, help="also record N_k skewness at this k")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("diagnose", help="k-occurrence histogram, skewness, and sparsity")
    p.add_argument("--sim", required=True)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--eps-rel", type=float, default=1e-9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("emd", help="distribution gap between two embedding files")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--subsample", type=int, default=256)
    p.add_argument("--repeats", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cost", choices=["euclidean", "one_minus_cosine"], default="euclidean")
    p.set_defaults(func=_cmd_emd)

    p = sub.add_parser("sweep-tau", help="R@1 of IS and SN across a temperature grid")
    p.add_argument("--sim", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--taus", default="0.2,0.1,0.05,0.02,0.01")
    p.add_argument("--iters", type=_positive_int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_tau)

    p = sub.add_parser("banksweep", help="bank-size study: R@1, skewness, EMD per fraction")
    p.add_argument("--queries", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--bank-queries", required=True)
    p.add_argument("--bank-targets", required=True)
    p.add_argument("--fractions", default="0.1,0.25,0.5,1.0")
    p.add_argument("--tau", type=_positive_float, default=0.01)
    p.add_argument("--iters", type=_positive_int, default=10)
    p.add_argument("--subsample", type=int, default=256)
    p.add_argument("--repeats", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_banksweep)

    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    from .errors import HubkitError

    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except HubkitError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
