"""Command-line entry point: explain samples, run studies, fit models.

Exit codes: 0 success, 1 usage, 2 ingestion, 3 computation. Identical
flags and inputs always produce identical output bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .core import FeatureMatrix, RngStream
from .distributions import (
    CopulaSampler,
    DiscreteJoint,
    DiscreteSampler,
    GaussianSampler,
    MarginalSampler,
    fit_copula,
    fit_gaussian,
)
from .engine import WALK_COALITIONS, decompose
from .errors import IngestionError, ShapdecError
from .experiments import (
    run_correlation_study,
    run_fire_study,
    run_imputation_study,
    run_toy,
    write_json,
)
from .models import _FOREST_DEFAULTS, _FOREST_FLOORS, fit_forest, fit_ols, model_from_json
from .synthetic import synthetic_fire, synthetic_housing
from .viz import render_force_plot

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INGESTION = 2
EXIT_COMPUTATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def read_csv(path, target: str | None = None):
    """Read a header-plus-numerics CSV into a FeatureMatrix (and target)."""
    path = Path(path)
    try:
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header:
                raise IngestionError(f"{path}: empty file")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise IngestionError(
                        f"{path}:{lineno}: {len(row)} values, header has {len(header)}"
                    )
                try:
                    rows.append([float(v) for v in row])
                except ValueError as err:
                    raise IngestionError(f"{path}:{lineno}: {err}") from err
    except OSError as err:
        raise IngestionError(f"cannot read {path}: {err}") from err
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    values = np.array(rows)
    if target is None:
        return FeatureMatrix(tuple(header), values), None
    if target not in header:
        raise IngestionError(f"{path}: no column named {target!r}")
    t = header.index(target)
    names = tuple(n for i, n in enumerate(header) if i != t)
    keep = [i for i in range(len(header)) if i != t]
    return FeatureMatrix(names, values[:, keep]), values[:, t]


def _build_sampler(kind: str, data: FeatureMatrix):
    if kind == "gaussian":
        return GaussianSampler(fit_gaussian(data))
    if kind == "copula":
        return CopulaSampler(fit_copula(data))
    if kind == "marginal":
        return MarginalSampler(data)
    if kind == "discrete":
        rows, counts = np.unique(data.values, axis=0, return_counts=True)
        return DiscreteSampler(DiscreteJoint(rows, counts / counts.sum()))
    raise IngestionError(f"unknown sampler kind {kind!r}")


def _resolve_sample(args, data: FeatureMatrix) -> np.ndarray:
    """The explained row; ``decompose`` checks its length."""
    if args.sample is not None:
        try:
            return np.array([float(v) for v in args.sample.split(",")])
        except ValueError as err:
            raise IngestionError(f"bad --sample value: {err}") from err
    row = 0 if args.row is None else args.row
    if not 0 <= row < data.n_rows:
        raise IngestionError(f"--row {row} out of range")
    return data.values[row]


def _fit(kind: str, data: FeatureMatrix, target, args, task: str = "regression"):
    """The model ``explain --fit`` and ``fit-model`` fit: OLS, or a forest
    grown from the forest flags on substream 77 of --seed."""
    if kind == "linear":
        return fit_ols(data, target)
    params = {"trees": args.trees, "max_depth": args.max_depth, "min_leaf": args.min_leaf}
    return fit_forest(data, target, params, RngStream(args.seed, 77), task=task)


# The least value of each budget and forest flag a command takes
_FLAG_FLOORS = {"k1": 1, "k2": 1, **_FOREST_FLOORS}


def _check_flags(args) -> None:
    """Reject a budget or forest flag below its floor before any read or
    draw: ``decompose`` and ``fit_forest`` would find it only after the
    data were read and the model fitted."""
    for name, least in _FLAG_FLOORS.items():
        value = getattr(args, name, least)
        if value < least:
            flag = "--" + name.replace("_", "-")
            raise IngestionError(f"{flag} must be at least {least}, got {value}")


def _load_or_fit_model(args, data: FeatureMatrix, target):
    if args.model:
        try:
            doc = json.loads(Path(args.model).read_text())
        except OSError as err:
            raise IngestionError(f"cannot read model: {err}") from err
        except (ValueError, RecursionError) as err:  # bad JSON or UTF-8, or nested too deeply
            raise IngestionError(f"bad model JSON: {err}") from err
        return model_from_json(doc)
    if args.fit:
        if args.target is None:
            raise IngestionError("--fit requires --target")
        return _fit(args.fit, data, target, args)
    raise IngestionError("need either --model or --fit")


def _cmd_explain(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # before any work: an unwritable --out fails fast
    data, target = read_csv(args.data, args.target)
    model = _load_or_fit_model(args, data, target)
    try:
        sampler = _build_sampler(args.sampler, data)
        x = _resolve_sample(args, data)
        dec = decompose(model, sampler, x, args.k1, args.k2, args.seed)
    finally:
        if hasattr(model, "close"):
            model.close()
    write_json(out / "decomposition.json", dec.to_json_dict(data.names))
    if args.plot:
        svg = render_force_plot(dec.base, data.names, x, dec.phi_int, dec.phi_dep)
        (out / "force.svg").write_text(svg)
    return EXIT_OK


def _study_data(args, generator):
    """The rows of a housing or fire study: the bundled ``generator``'s
    with --synthetic, else --data's with its --target column."""
    if args.synthetic:
        if args.data or args.target:
            raise IngestionError(f"{args.name} --synthetic takes no --data or --target")
        return generator(seed=args.seed)
    if not args.data or not args.target:
        raise IngestionError(f"{args.name} needs --data and --target (or --synthetic)")
    return read_csv(args.data, args.target)


def _cmd_experiment(args) -> int:
    out = Path(args.out)
    if args.name == "toy":
        run_toy(args.k1, args.k2, args.seed, out)
    elif args.name == "correlation":
        try:
            alphas = tuple(float(v) for v in args.alphas.split(","))
        except ValueError as err:
            raise IngestionError(f"bad --alphas value: {err}") from err
        run_correlation_study(args.a12, alphas, args.k1, args.k2, args.seed, out)
    elif args.name == "housing":
        if args.towns < 1:
            raise IngestionError(f"--towns must be at least 1, got {args.towns}")
        data, target = _study_data(args, synthetic_housing)
        towns = min(args.towns, data.n_rows)
        run_imputation_study(
            data, target, args.model_kind, towns, args.k1, args.k2, args.seed, out
        )
    elif args.name == "fire":
        data, labels = _study_data(args, synthetic_fire)
        run_fire_study(data, labels, args.k1, args.k2, args.seed, args.sample_index, out)
    else:  # pragma: no cover - argparse restricts choices
        raise IngestionError(f"unknown experiment {args.name!r}")
    return EXIT_OK


def _cmd_fit_model(args) -> int:
    data, target = read_csv(args.data, args.target)
    model = _fit(args.kind, data, target, args, args.task)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, model.to_json_dict())
    return EXIT_OK


_K1_HELP = ("draws per coalition at M <= 11; K1/4 draws per permutation prefix at M > 11, "
            f"where K1 and K2 set a budget of 1 + {WALK_COALITIONS}*K1 + 2*K2*(M-1) model rows "
            "that fixes the number of permutations")
_K2_HELP = ("2*K2 random orderings, each pairing one draw per feature for phi_int, at M <= 11; "
            "at M > 11 the K2 share of the row budget")


def _add_budget_flags(p, k1_default=1000, k2_default=4000):
    p.add_argument("--k1", type=int, default=k1_default, help=_K1_HELP)
    p.add_argument("--k2", type=int, default=k2_default, help=_K2_HELP)
    p.add_argument("--seed", type=int, default=0)


def _add_forest_flags(p):
    for name, default in _FOREST_DEFAULTS.items():
        p.add_argument("--" + name.replace("_", "-"), type=int, default=default)


def build_parser() -> _Parser:
    parser = _Parser(prog="shapdec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="decompose one sample's prediction")
    p.add_argument("--data", required=True)
    p.add_argument("--target", help="target column: dropped from the features, and --fit's target")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--model", help="model JSON file")
    source.add_argument("--fit", choices=["linear", "forest"], help="fit a model on --data instead")
    p.add_argument(
        "--sampler",
        choices=["gaussian", "copula", "discrete", "marginal"],
        default="gaussian",
    )
    row = p.add_mutually_exclusive_group()
    row.add_argument("--sample", help="inline sample, comma-separated")
    # default None, not 0: argparse lets a flag given at its default slip past the group
    row.add_argument("--row", type=int, help="row of --data to explain (default 0)")
    _add_budget_flags(p)
    _add_forest_flags(p)
    p.add_argument("--out", default=".")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("experiment", help="run a bundled study")
    p.add_argument("name", choices=["toy", "correlation", "housing", "fire"])
    p.add_argument("--data")
    p.add_argument("--target")
    p.add_argument("--synthetic", action="store_true", help="use the bundled generator")
    p.add_argument("--a12", type=float, default=2.0)
    p.add_argument("--alphas", default="0,0.25,0.5,0.75")
    p.add_argument("--towns", type=int, default=200)
    p.add_argument("--model-kind", choices=["linear", "forest"], default="linear")
    p.add_argument("--sample-index", type=int, default=0)
    _add_budget_flags(p, k1_default=200, k2_default=400)
    p.add_argument("--out", default="experiment_out")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("fit-model", help="fit and save a model JSON")
    p.add_argument("kind", choices=["linear", "forest"])
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--task", choices=["regression", "binary-probability"], default="regression")
    _add_forest_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="model.json")
    p.set_defaults(func=_cmd_fit_model)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_flags(args)
        return args.func(args)
    except IngestionError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INGESTION
    except ShapdecError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_COMPUTATION
    except OSError as err:  # every read wraps its OSError in an IngestionError
        print(f"error: cannot write: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
