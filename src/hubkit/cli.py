"""Command-line pipeline over the library.

Subcommands: synth (generate data), sim (cosine similarities), normalize
(apply one method), evaluate (R@K/MdR/MnR report), diagnose (k-occurrence
histogram, skewness, sparsity), emd (distribution gap), sweep-tau
(temperature study table), banksweep (bank-size study table).

Exit codes: 0 success, 1 usage error (bad or missing flags), 2 data error
(unreadable or malformed inputs, a result with a value beyond float32's
range, or an l2n plan that did not converge; neither result is written).
Flag values out of range are usage errors: a non-positive --pairs, --dim,
--iters, --k, --skew-k, --subsample, --repeats, --tau, --tau1, --tau2,
--coeff, or --Ks/--taus entry; a negative --seed; a negative or non-finite
--noise, --gap, --bank-shift or --eps-rel; a --hub-fraction or
--hub-strength outside [0, 1]; a --fractions entry outside (0, 1].  A K
above the file's column count depends on the data and is a data error.
Every subcommand is deterministic given its flags and seed.

HUBKIT_THREADS caps the threads of hubkit's block pool; see "Threads" in
README.md.

Only emd, banksweep, and normalize with --method otn, l2n, or hn import
scipy; every other subcommand runs on numpy alone, which keeps process
start-up short.
"""

import argparse
import importlib
import math
import sys
import warnings

import numpy as np

# Library functions are looked up on their modules at call time, never bound
# here, so a wrapper set on a module attribute runs only while it is set.
from . import core, diagnostics, errors, io, retrieval, scaling, synth, variants

# The package exports the function ``sinkhorn``, which hides the module.
sinkhorn = importlib.import_module(f"{__package__}.sinkhorn")


class _UsageError(Exception):
    """Bad flag combination detected after parsing; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 1 (2 is for data errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag_type(parse, accept, expected: str):
    """An argparse ``type`` that parses with ``parse`` and keeps the values
    ``accept`` allows; anything else is a usage error naming ``expected``."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return convert


_positive_int = _flag_type(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _flag_type(int, lambda v: v >= 0, "a nonnegative integer")
_positive_float = _flag_type(float, lambda v: math.isfinite(v) and v > 0.0, "a positive number")
_nonnegative_float = _flag_type(float, lambda v: math.isfinite(v) and v >= 0.0, "a nonnegative number")
_unit_float = _flag_type(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_fraction = _flag_type(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")


def _list_of(entry):
    """An argparse ``type`` for a comma-separated list of ``entry`` values."""

    def convert(text: str) -> list:
        values = [entry(part) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
        return values

    return convert


def _sn_cfg(tau, args):
    return sinkhorn.SinkhornConfig(tau=tau, max_iters=args.iters)


def _uniform(S):
    return sinkhorn.Marginals.uniform(S.rows, S.cols)


def _l2n_plan(S, tau, args):
    plan = variants.l2n(S, _uniform(S), coeff=args.coeff)
    if not plan.converged:
        raise errors.DataError(f"l2n did not converge: marginal violation {plan.marginal_violation:.3g} "
                               f"after {plan.iterations_run} sweeps; nothing written")
    return S._adopt_values(plan.pi)


_BANK = ("bank_targets_sim",)

#: The bank flags whose files have a column per target (--bank-bank-sim's
#: columns are the target bank).
_TARGET_BANKS = ("bank_targets_sim", "tbank_targets_sim")

#: normalize's methods in --method order: name -> (default --tau, forms).
#: A form is (bank flags, fits, call).  ``call`` gets the bank matrices the
#: flags name, in that order, then tau and args.  A fitting form's call
#: returns the HubnessVector that is added to S and does not see S, so it
#: runs before S is read; any other form's call gets S first and returns the
#: normalized matrix.  A method runs its first form whose bank flags are all
#: given: ``is`` and ``sn`` list their --bank-targets-sim form before the
#: bank-free one.  Methods whose forms ignore tau have no default.
_METHODS = {
    "none": (None, [((), False, lambda S, tau, args: S)]),
    "is": (0.02, [
        (_BANK, True, lambda B, tau, args: scaling.is_hubness(B, tau)),
        ((), False, lambda S, tau, args: scaling.inverted_softmax(S, tau)),
    ]),
    "dis": (0.02, [
        (_BANK, False,
         lambda S, B, tau, args: scaling.dynamic_inverted_softmax(S, B, scaling.DISConfig(k=args.k), tau)),
    ]),
    "dualis": (None, [
        (("bank_targets_sim", "tbank_targets_sim"), False, lambda S, Bq, Bt, tau, args:
         scaling.dual_inverted_softmax(S, Bq, Bt, scaling.DualISConfig(args.tau1, args.tau2))),
    ]),
    "sn": (0.01, [
        (_BANK, True, lambda B, tau, args: sinkhorn.estimate_target_hubness(B, _sn_cfg(tau, args))),
        ((), False, lambda S, tau, args: scaling.apply_hubness(
            S, sinkhorn.estimate_target_hubness(S, _sn_cfg(tau, args)))),
    ]),
    "dbsn": (0.01, [
        (("bank_targets_sim", "bank_bank_sim"), True,
         lambda Bt, Bb, tau, args: sinkhorn.dbsn_hubness(Bt, Bb, _sn_cfg(tau, args))),
    ]),
    "otn": (None, [((), False, lambda S, tau, args: S._adopt_values(variants.otn(S, _uniform(S)).pi))]),
    "l2n": (None, [((), False, _l2n_plan)]),
    "hn": (None, [((), False, lambda S, tau, args: variants.hn_normalize(S, literal=args.hn_literal))]),
}


def _method(name: str, given) -> tuple:
    """(default tau, bank flags, fits, call) of the form of ``name`` that runs
    when the bank flags in ``given`` are set; a missing bank flag is a usage
    error."""
    tau, forms = _METHODS[name]
    for banks, fits, call in forms:
        missing = [flag for flag in banks if flag not in given]
        if not missing:
            return tau, banks, fits, call
    raise _UsageError(f"--{missing[0].replace('_', '-')} is required for --method {name}")


def _occurrence_skew(S, k: int) -> tuple:
    """S's top-k occurrence counts and their skewness; constant counts
    read 0 without a ZeroVarianceWarning."""
    occ = diagnostics.k_occurrence(core.row_topk_desc(S, k), k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", errors.ZeroVarianceWarning)
        return occ, diagnostics.skewness(occ)


def _write_lines(path, lines) -> None:
    """Write ``lines`` to ``path`` as UTF-8 text, each ended by a newline."""
    io._write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _cmd_synth(args) -> int:
    if (args.out_bank_queries is None) != (args.out_bank_targets is None):
        raise _UsageError("--out-bank-queries and --out-bank-targets go together")
    cfg = synth.SynthConfig(
        dim=args.dim,
        n_pairs=args.pairs,
        noise_sigma=args.noise,
        gap_magnitude=args.gap,
        hub_fraction=args.hub_fraction,
        hub_strength=args.hub_strength,
        bank_shift=args.bank_shift,
        seed=args.seed,
    )
    Q, T, gt = synth.generate_paired(cfg)
    io.write_embeddings(Q, args.out_queries)
    io.write_embeddings(T, args.out_targets)
    io.write_ground_truth(gt, args.out_gt)
    if args.out_bank_queries is not None:
        Bq, Bt = synth.generate_banks(cfg, base=(Q, T))
        io.write_embeddings(Bq, args.out_bank_queries)
        io.write_embeddings(Bt, args.out_bank_targets)
    return 0


def _cmd_sim(args) -> int:
    Q = io.read_embeddings(args.queries, renormalize=args.renormalize)
    T = io.read_embeddings(args.targets, renormalize=args.renormalize)
    io.write_similarity(core.cosine_similarity_matrix(Q, T), args.out)
    return 0


def _cmd_normalize(args) -> int:
    flags = ("bank_targets_sim", "bank_bank_sim", "tbank_targets_sim")
    tau, banks, fits, call = _method(args.method, {flag for flag in flags if getattr(args, flag) is not None})
    tau = tau if args.tau is None else args.tau
    # a bank file over the targets must have --input's columns, and
    # --bank-bank-sim the rows of --bank-targets-sim: refuse another shape
    # from the headers, before any matrix is read
    cols = io.similarity_shape(args.input)[1] if banks else None
    for bank in (getattr(args, flag) for flag in banks if flag in _TARGET_BANKS):
        bank_cols = io.similarity_shape(bank)[1]
        if cols != bank_cols:
            raise errors.ColMismatch(f"{args.input} has {cols} target columns but {bank} has {bank_cols}")
    if "bank_bank_sim" in banks:
        rows = [io.similarity_shape(getattr(args, flag))[0] for flag in ("bank_targets_sim", "bank_bank_sim")]
        if rows[0] != rows[1]:
            raise errors.RowMismatch(f"{args.bank_targets_sim} has {rows[0]} query-bank rows "
                                     f"but {args.bank_bank_sim} has {rows[1]}")
    read_banks = (io.read_similarity(getattr(args, flag)) for flag in banks)
    if fits:
        # the bank matrices are dropped once h is fitted, before S is read
        h = call(*read_banks, tau, args)
        out = scaling.apply_hubness(io.read_similarity(args.input), h)
    else:
        S = io.read_similarity(args.input)
        out = call(S, *read_banks, tau, args)
    io.write_similarity(out, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    S = io.read_similarity(args.sim)
    gt = io.read_ground_truth(args.gt)
    skew = None if args.skew_k is None else _occurrence_skew(S, args.skew_k)[1]
    report = retrieval.evaluate(S, gt, args.Ks, skew=skew, normalization=args.method, params={})
    io.write_report(report, args.out)
    return 0


def _cmd_diagnose(args) -> int:
    S = io.read_similarity(args.sim)
    occ, skew = _occurrence_skew(S, args.k)
    values, freqs = np.unique(occ.counts, return_counts=True)
    lines = [f"{int(v)}\t{int(c)}" for v, c in zip(values, freqs)]
    lines.append(f"skewness\t{skew:.10g}")
    lines.append(f"sparsity\t{variants._sparsity(S.values, args.eps_rel):.10g}")
    _write_lines(args.out, lines)
    return 0


def _cmd_emd(args) -> int:
    X = io.read_embeddings(args.x)
    Y = io.read_embeddings(args.y)
    cfg = diagnostics.EmdConfig(
        subsample=args.subsample, repeats=args.repeats, seed=args.seed, ground_cost=args.cost
    )
    try:
        gap = diagnostics.emd(X, Y, cfg)
    except errors.ZeroVectorRow as exc:
        files = {"X": f"--x file {args.x}", "Y": f"--y file {args.y}"}
        raise errors.ZeroVectorRow(exc.row, files[exc.where]) from None
    print(f"{gap:.10g}")
    return 0


def _cmd_sweep_tau(args) -> int:
    S = io.read_similarity(args.sim)
    gt = io.read_ground_truth(args.gt)
    lines = []
    for tau in args.taus:
        for method in ("is", "sn"):
            call = _method(method, ())[3]
            report = retrieval.evaluate(call(S, tau, args), gt, [1], normalization=method)
            lines.append(f"{tau:g}\t{method}\t{report.r_at[1]:.4f}")
    _write_lines(args.out, lines)
    return 0


def _cmd_banksweep(args) -> int:
    Q = io.read_embeddings(args.queries)
    T = io.read_embeddings(args.targets)
    Bq = io.read_embeddings(args.bank_queries)
    Bt = io.read_embeddings(args.bank_targets)
    gt = io.read_ground_truth(args.gt)
    S = core.cosine_similarity_matrix(Q, T)
    emd_cfg = diagnostics.EmdConfig(subsample=args.subsample, repeats=args.repeats, seed=args.seed)
    lines = []
    for fraction in args.fractions:
        nq = max(1, int(fraction * Bq.count))
        nt = max(1, int(fraction * Bt.count))
        bq = core.EmbeddingSet(Bq.data[:nq])
        bt = core.EmbeddingSet(Bt.data[:nt])
        banks = {
            "bank_targets_sim": core.cosine_similarity_matrix(bq, T),
            "bank_bank_sim": core.cosine_similarity_matrix(bq, bt),
        }
        gap = diagnostics.emd(bq, T, emd_cfg)
        for method in ("is", "sn", "dbsn"):
            # IS keeps its default temperature; --tau sets SN and DBSN.
            tau, flags, _, fit = _method(method, banks)
            h = fit(*(banks[flag] for flag in flags), tau if method == "is" else args.tau, args)
            normalized = scaling.apply_hubness(S, h)
            report = retrieval.evaluate(normalized, gt, [1], normalization=method)
            skew = _occurrence_skew(normalized, 1)[1]
            lines.append(f"{fraction:g}\t{method}\t{report.r_at[1]:.4f}\t{skew:.6f}\t{gap:.6f}")
    _write_lines(args.out, lines)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hubkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate synthetic paired embeddings and banks")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--pairs", type=_positive_int, default=1000)
    p.add_argument("--dim", type=_positive_int, default=64)
    p.add_argument("--noise", type=_nonnegative_float, default=0.45)
    p.add_argument("--gap", type=_nonnegative_float, default=0.5)
    p.add_argument("--hub-fraction", type=_unit_float, default=0.15)
    p.add_argument("--hub-strength", type=_unit_float, default=0.6)
    p.add_argument("--bank-shift", type=_nonnegative_float, default=0.0)
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
    p.add_argument("--method", required=True, choices=list(_METHODS))
    p.add_argument("--tau", type=_positive_float, default=None, help="default 0.02 for is/dis, 0.01 for sn/dbsn")
    p.add_argument("--tau1", type=_positive_float, default=0.02)
    p.add_argument("--tau2", type=_positive_float, default=0.02)
    p.add_argument("--iters", type=_positive_int, default=10)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--coeff", type=_positive_float, default=100.0)
    p.add_argument("--hn-literal", action="store_true")
    p.add_argument("--bank-targets-sim", help="query-bank rows x target columns (is/sn/dis/dbsn)")
    p.add_argument("--bank-bank-sim", help="query-bank rows x target-bank columns (dbsn)")
    p.add_argument("--tbank-targets-sim", help="target-bank rows x target columns (dualis)")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("evaluate", help="R@K/MdR/MnR report from a similarity file")
    p.add_argument("--sim", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--Ks", type=_list_of(_positive_int), default="1,5,10")
    p.add_argument("--method", default="none", help="normalization name echoed into the report")
    p.add_argument("--skew-k", type=_positive_int, default=None, help="also record N_k skewness at this k")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("diagnose", help="k-occurrence histogram, skewness, and sparsity")
    p.add_argument("--sim", required=True)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--eps-rel", type=_nonnegative_float, default=1e-9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("emd", help="distribution gap between two embedding files")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--subsample", type=_positive_int, default=256)
    p.add_argument("--repeats", type=_positive_int, default=8)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--cost", choices=["euclidean", "one_minus_cosine"], default="euclidean")
    p.set_defaults(func=_cmd_emd)

    p = sub.add_parser("sweep-tau", help="R@1 of IS and SN across a temperature grid")
    p.add_argument("--sim", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--taus", type=_list_of(_positive_float), default="0.2,0.1,0.05,0.02,0.01")
    p.add_argument("--iters", type=_positive_int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_tau)

    p = sub.add_parser("banksweep", help="bank-size study: R@1, skewness, EMD per fraction")
    p.add_argument("--queries", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--bank-queries", required=True)
    p.add_argument("--bank-targets", required=True)
    p.add_argument("--fractions", type=_list_of(_fraction), default="0.1,0.25,0.5,1.0")
    p.add_argument("--tau", type=_positive_float, default=0.01, help="SN/DBSN temperature; IS runs at 0.02")
    p.add_argument("--iters", type=_positive_int, default=10)
    p.add_argument("--subsample", type=_positive_int, default=256)
    p.add_argument("--repeats", type=_positive_int, default=8)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_banksweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except errors.HubkitError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
