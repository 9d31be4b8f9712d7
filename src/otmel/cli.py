"""Batch command-line interface.

Exit codes: 0 success, 2 unparseable input, 3 dimension mismatch,
4 invalid parameter or size guard, 5 unresolved data reference,
6 output that cannot be written. All data
lines are deterministic for fixed inputs; human-facing matrices are CSV,
bulk features use the binary format of ``otmel.data_io``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import ABLATIONS, POOL_KINDS, RunConfig
from .correlation import (
    MECHANISMS,
    PIPELINE_SITES,
    AssignmentSite,
    assign,
    identity_projections,
)
from .data_io import load_manifest, load_projections, read_feature_file, save_projections
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    OtmelError,
    OutputError,
    ParseError,
)
from .evaluation import hits_at_k, mrr, rank_all
from .fixtures import FixtureSpec, generate_fixtures
from .matching import Scorer
from .objectives import (
    OBJECTIVES,
    TRAINING_TOL,
    ToyTrainConfig,
    batch_loss_report,
    distill_gap,
    toy_train,
)
from .ot import CostMatrix, Marginals, plan_entropy, sinkhorn, transport_cost

# Error class -> exit code (see above), first match wins. A file named on
# the command line that cannot be read is unparseable input; one that a
# manifest or projections index names is a DataError.
_EXIT_CODES = (
    (ParseError, 2),
    (OSError, 2),
    (DimensionError, 3),
    (ConfigError, 4),
    (DataError, 5),
    (OutputError, 6),
    (OtmelError, 1),
)

_FLOAT_FMT = "%.12g"


def _fmt(value: float) -> str:
    return _FLOAT_FMT % value


def _print_matrix(matrix: np.ndarray) -> None:
    for row in np.atleast_2d(matrix):
        print(",".join(_fmt(v) for v in row))


def _read_cost_csv(path) -> CostMatrix:
    rows = []
    width = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        try:
            values = [float(c) for c in cells]
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: not a number row") from None
        if any(not np.isfinite(v) for v in values):
            raise ParseError(f"{path}: line {lineno}: non-finite value")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} columns, got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return CostMatrix(np.array(rows))


@contextmanager
def _writing(path):
    """Report an OSError raised while writing ``path`` as an OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ParseError(f"{flag}: expected comma-separated numbers, got {text!r}") from None


def _table_for(path, d: int, required=PIPELINE_SITES):
    if path is None:
        return identity_projections(d)
    table = load_projections(path)
    dims = {p.dim for p in table.values()}
    if dims != {d}:
        raise DimensionError(
            f"projections have d={sorted(dims)} but the inputs have d={d}"
        )
    missing = [s.value for s in required if s not in table]
    if missing:
        raise DataError(f"projections file lacks sites: {missing}")
    return table


def _run_config(args, **defaults) -> RunConfig:
    """The command's run config: flags over ``--config`` file over ``defaults``.

    ``defaults`` are the command's own departures from :class:`RunConfig`;
    every other setting keeps the library's default.
    """
    base = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            base = json.loads(Path(config_path).read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{config_path}: invalid JSON ({exc})") from exc
        if not isinstance(base, dict):
            raise ParseError(f"{config_path}: run config must be a JSON object")
    ablations = base.get("ablations", [])
    if not isinstance(ablations, list):
        raise ParseError(f"{config_path}: field 'ablations' must be a JSON list")
    overrides = {
        "mechanism": getattr(args, "mechanism", None),
        "sharpness": args.sharpness,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "pool": getattr(args, "pool", None),
        "projections_path": getattr(args, "proj", None),
        "threads": getattr(args, "threads", None),
    }
    merged = {**defaults, **base, **{k: v for k, v in overrides.items() if v is not None}}
    flagged = getattr(args, "ablation", None) or []
    try:
        merged["ablations"] = frozenset([*ablations, *flagged])
        return RunConfig(**merged)
    except TypeError as exc:
        raise ParseError(f"bad run config field: {exc}") from exc


# --- subcommands ----------------------------------------------------------


def cmd_solve(args) -> int:
    cost = _read_cost_csv(args.cost_csv)
    uniform = Marginals.uniform(cost.n, cost.m)
    mu = _parse_vector(args.mu, "--mu") if args.mu else uniform.mu
    nu = _parse_vector(args.nu, "--nu") if args.nu else uniform.nu
    plan = sinkhorn(cost, Marginals(mu, nu), _run_config(args).sinkhorn_config())
    _print_matrix(plan.data)
    print(
        "# cost=%s entropy=%s iterations=%d marginal_error=%.6e converged=%s"
        % (
            _fmt(transport_cost(cost, plan)),
            _fmt(plan_entropy(plan)),
            plan.iterations_used,
            plan.achieved_marginal_error,
            "yes" if plan.converged else "no",
        )
    )
    return 0


def cmd_assign(args) -> int:
    dst = read_feature_file(args.query_file)
    src = read_feature_file(args.source_file)
    if dst.cols != src.cols:
        raise DimensionError(
            f"query file has d={dst.cols}, source file has d={src.cols}"
        )
    site = AssignmentSite(args.site)
    run = _run_config(args)
    table = _table_for(run.projections_path, dst.cols, required=(site,))
    result = assign(dst, src, table[site], run.mechanism, run.sinkhorn_config())
    _print_matrix(result.a)
    return 0


def cmd_link(args) -> int:
    dataset = load_manifest(args.manifest)
    if not dataset.mentions:
        raise DataError("manifest lists no mentions")
    run = _run_config(args)
    table = _table_for(run.projections_path, dataset.d)
    scorer = Scorer(table, run)
    results = rank_all(
        dataset.mentions,
        dataset.entities,
        scorer,
        evaluate=args.metrics,
        threads=run.resolved_threads(),
    )
    print("mention_id,gold_rank," + ",".join(f"top{i}" for i in range(1, 11)))
    for r in results:
        rank = str(r.rank_of_gold) if r.rank_of_gold is not None else "-"
        top = list(r.ordering[:10]) + [""] * (10 - min(10, len(r.ordering)))
        print(",".join([r.mention_id, rank] + top))
    if args.metrics:
        print("H@1=%.2f" % (100.0 * hits_at_k(results, 1)))
        print("H@3=%.2f" % (100.0 * hits_at_k(results, 3)))
        print("H@5=%.2f" % (100.0 * hits_at_k(results, 5)))
        print("MRR=%.2f" % (100.0 * mrr(results)))
    return 0


def cmd_distill_gap(args) -> int:
    dataset = load_manifest(args.manifest)
    run = _run_config(args)
    table = _table_for(run.projections_path, dataset.d)
    gaps = distill_gap(dataset, table, run, PIPELINE_SITES)
    print("site,mean_kd")
    for site in PIPELINE_SITES:
        print(f"{site.value},{_fmt(gaps[site])}")
    print("# mean_over_sites=%s" % _fmt(float(np.mean(list(gaps.values())))))
    return 0


def cmd_loss(args) -> int:
    dataset = load_manifest(args.manifest)
    run = _run_config(args, tol=TRAINING_TOL)
    table = _table_for(run.projections_path, dataset.d)
    row = batch_loss_report(dataset, table, run, args.objective)
    print("L_F,L_T,L_V,L_O,L_KD,J")
    print(
        ",".join(
            _fmt(v) for v in (row.l_f, row.l_t, row.l_v, row.l_o, row.l_kd, row.total)
        )
    )
    return 0


def cmd_gen_fixtures(args) -> int:
    spec = FixtureSpec.from_json(args.spec_file)
    with _writing(args.out_dir):
        manifest = generate_fixtures(spec, args.out_dir)
    print(manifest)
    return 0


def cmd_train_toy(args) -> int:
    dataset = load_manifest(args.manifest)
    run = _run_config(args, tol=TRAINING_TOL)
    table = _table_for(run.projections_path, dataset.d)
    train = ToyTrainConfig(
        steps=args.steps,
        lr=args.lr,
        fd_step=args.fd_step,
        objective=args.objective,
    )
    trained, trace = toy_train(dataset, table, train, run)
    print("step,L_F,L_T,L_V,L_O,L_KD,J")
    for row in trace:
        print(
            ",".join(
                [str(row.step)]
                + [
                    _fmt(v)
                    for v in (row.l_f, row.l_t, row.l_v, row.l_o, row.l_kd, row.total)
                ]
            )
        )
    if args.save_proj:
        with _writing(args.save_proj):
            save_projections(trained, args.save_proj)
    return 0


# --- parser ---------------------------------------------------------------


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    # No defaults here: an absent flag leaves the setting to _run_config.
    p.add_argument(
        "--lambda",
        dest="sharpness",
        type=float,
        help="kernel concentration of the transport solver",
    )
    p.add_argument("--tol", type=float, help="marginal-error tolerance")
    p.add_argument("--max-iter", type=int, help="solver iteration cap")


def _add_run_flags(p: argparse.ArgumentParser, scoring: bool) -> None:
    """The run flags of a manifest command; ``scoring`` adds the ones scores read."""
    p.add_argument("--config", help="JSON file with run-config defaults")
    _add_solver_flags(p)
    p.add_argument("--proj", help="projections index file or directory")
    if scoring:
        p.add_argument("--ablation", action="append", choices=ABLATIONS)
        p.add_argument("--pool", choices=POOL_KINDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otmel",
        description="Transport-guided correlation assignment, matching, and ranking "
        "over precomputed feature matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one transport problem from a cost CSV")
    p.add_argument("cost_csv")
    p.add_argument("--mu", help="comma-separated row marginal (default uniform)")
    p.add_argument("--nu", help="comma-separated column marginal (default uniform)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "assign", help="assignment matrix between two feature files"
    )
    p.add_argument("query_file", help="destination sequence (provides queries)")
    p.add_argument("source_file", help="source sequence (provides keys/values)")
    p.add_argument("--proj", help="projections index (default: identity)")
    p.add_argument("--site", default=AssignmentSite.MENTION_VISUAL_TO_TEXT.value,
                   choices=[s.value for s in AssignmentSite])
    p.add_argument("--mechanism", choices=MECHANISMS)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("link", help="rank all entities for every mention")
    p.add_argument("manifest")
    p.add_argument(
        "--no-metrics",
        dest="metrics",
        action="store_false",
        help="emit rankings only (gold ids not required)",
    )
    p.add_argument("--mechanism", choices=MECHANISMS)
    p.add_argument("--threads", type=int, help="0 = auto")
    _add_run_flags(p, scoring=True)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser(
        "distill-gap",
        help="per-site divergence between transport plans and attention",
    )
    p.add_argument("manifest")
    _add_run_flags(p, scoring=False)
    p.set_defaults(func=cmd_distill_gap)

    p = sub.add_parser("loss", help="batch losses for a manifest")
    p.add_argument("manifest")
    p.add_argument("--objective", choices=OBJECTIVES, default=ToyTrainConfig.objective)
    _add_run_flags(p, scoring=True)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("gen-fixtures", help="generate a synthetic dataset")
    p.add_argument("spec_file", help="JSON fixture spec")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_gen_fixtures)

    p = sub.add_parser("train-toy", help="gradient-descent training run")
    p.add_argument("manifest")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--lr", type=float, default=ToyTrainConfig.lr)
    p.add_argument(
        "--fd-step",
        type=float,
        default=ToyTrainConfig.fd_step,
        help="central-difference step; read by --objective ot only, "
        "since kd trains on its exact gradient",
    )
    p.add_argument("--objective", choices=OBJECTIVES, default=ToyTrainConfig.objective)
    p.add_argument("--proj", help="initial projections (default: identity)")
    p.add_argument("--save-proj", help="directory for the trained projections")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_train_toy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OtmelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
