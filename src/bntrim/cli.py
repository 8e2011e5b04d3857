"""Command-line front-end.

Every subcommand is a thin wrapper over one library call; the CLI does no
arithmetic of its own beyond resolving ``--budget-frac`` into an absolute
budget.  Output goes to stdout in a fixed field order with floats printed
to 12 significant digits, so identical invocations produce byte-identical
output.  Diagnostics and the optional ``--trace`` search log go to stderr.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 enumeration-guard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from typing import Any, Sequence

from .agreement import ThresholdInterval, eca, maa, mpa, sdp
from .baselines import ig_report
from .bnmodel import BayesianNetwork, Classifier, CostModel
from .errors import BntrimError, EnumerationLimitError, ModelError, ParseError, UsageError
from .evalharness import EvalConfig, fraction_budget, learn_nb, scatter, write_scatter_csv
from .inference import assignment_from_labels
from .netio import parse_dataset, parse_network, serialize_network
from .trimsearch import SearchOptions, TraceEvent, eca_trim, exhaustive_trim

ENV_SEED = "BNTRIM_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we need 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _jsonable(value: Any) -> Any:
    """Round floats to 12 significant digits and stringify infinities so
    the JSON encoder prints them deterministically."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(_fmt(value))
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_jsonable(doc), indent=2))
        return
    for key, value in doc.items():
        if isinstance(value, dict):
            for k, v in value.items():
                print(f"{key}.{k}: {_text_value(v)}")
        else:
            print(f"{key}: {_text_value(value)}")


def _text_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_text_value(v) for v in value)
    if isinstance(value, dict):
        return " ".join(f"{k}={_text_value(v)}" for k, v in value.items())
    return str(value)


def _interval_doc(interval: ThresholdInterval) -> dict:
    return {
        "threshold_interval": [interval.lo, interval.hi],
        "representative": interval.representative,
    }


def _split_names(arg: str | None) -> list[str]:
    if not arg:
        return []
    return [part.strip() for part in arg.split(",") if part.strip()]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_network(args: argparse.Namespace) -> BayesianNetwork:
    return parse_network(_read(args.network))


def _build_classifier(net: BayesianNetwork, args: argparse.Namespace) -> Classifier:
    features = _split_names(args.features)
    if not features:
        features = [v.name for v in net.variables if v.name != args.class_var]
    if args.positive is None:
        positive = 1
    else:
        values = net.var(args.class_var).values
        if args.positive not in values:
            raise ModelError(
                f"positive label {args.positive!r} is not a value of {args.class_var!r}"
            )
        positive = values.index(args.positive)
    return Classifier(args.class_var, positive, tuple(features), args.threshold)


def _parse_costs(arg: str | None, features: Sequence[str]) -> dict[str, float]:
    if not arg:
        return {f: 1.0 for f in features}
    out: dict[str, float] = {}
    for item in arg.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise UsageError(f"malformed cost entry {item!r}; expected NAME=NUMBER")
        try:
            out[name] = float(value)
        except ValueError:
            raise UsageError(f"malformed cost value in {item!r}") from None
    return out


def _build_costs(args: argparse.Namespace, features: Sequence[str]) -> CostModel:
    costs = _parse_costs(getattr(args, "costs", None), features)
    if args.budget is not None:
        budget = args.budget
    else:
        budget = fraction_budget(args.budget_frac, len(features))
    return CostModel(costs, budget)


def _parse_observation(net: BayesianNetwork, arg: str | None) -> dict[str, int]:
    labels: dict[str, str] = {}
    for item in _split_names(arg):
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise UsageError(f"malformed observation {item!r}; expected VAR=VALUE")
        labels[name] = value
    return assignment_from_labels(net, labels)


def _trace_printer(event: TraceEvent) -> None:
    included = ";".join(event.included) or "-"
    excluded = ";".join(event.excluded) or "-"
    print(
        f"{event.action} I={included} E={excluded} "
        f"b={_fmt(event.budget_left)} value={_fmt(event.value)}",
        file=sys.stderr,
    )


def _search_options(args: argparse.Namespace) -> SearchOptions:
    hook = _trace_printer if args.trace else None
    return SearchOptions(use_nb_fast_path=args.nb == "auto", trace_hook=hook)


def _trim_doc(result) -> dict:
    doc: dict[str, Any] = {
        "best_features": list(result.best_features),
        "score": result.best_score,
    }
    doc.update(_interval_doc(result.threshold))
    doc["stats"] = {
        "maa_evals": result.stats.maa_evals,
        "bound_evals": result.stats.bound_evals,
        "nodes_expanded": result.stats.nodes_expanded,
        "pruned": result.stats.pruned,
    }
    return doc


def _cmd_trim(args: argparse.Namespace) -> int:
    net = _load_network(args)
    clf = _build_classifier(net, args)
    costs = _build_costs(args, clf.features)
    result = eca_trim(net, clf, costs, _search_options(args))
    _emit(_trim_doc(result), args.format)
    return 0


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    net = _load_network(args)
    clf = _build_classifier(net, args)
    costs = _build_costs(args, clf.features)
    result = exhaustive_trim(net, clf, costs)
    _emit(_trim_doc(result), args.format)
    return 0


def _cmd_maa(args: argparse.Namespace) -> int:
    net = _load_network(args)
    clf = _build_classifier(net, args)
    result = maa(net, clf, _split_names(args.keep))
    doc: dict[str, Any] = {"score": result.score}
    doc.update(_interval_doc(result.interval))
    _emit(doc, args.format)
    return 0


def _cmd_mpa(args: argparse.Namespace) -> int:
    net = _load_network(args)
    clf = _build_classifier(net, args)
    _emit({"score": mpa(net, clf, _split_names(args.keep))}, args.format)
    return 0


def _cmd_eca(args: argparse.Namespace) -> int:
    net = _load_network(args)
    clf = _build_classifier(net, args)
    trimmed = replace(
        clf,
        features=tuple(_split_names(args.trim_features)),
        threshold=args.trim_threshold,
    )
    _emit({"eca": eca(net, clf, trimmed)}, args.format)
    return 0


def _cmd_sdp(args: argparse.Namespace) -> int:
    net = _load_network(args)
    clf = _build_classifier(net, args)
    evidence = _parse_observation(net, args.observe)
    value = sdp(net, clf, _split_names(args.query), evidence)
    _emit({"sdp": value}, args.format)
    return 0


def _cmd_ig(args: argparse.Namespace) -> int:
    net = _load_network(args)
    clf = _build_classifier(net, args)
    costs = _build_costs(args, clf.features)
    report = ig_report(net, clf, costs, retune_threshold=args.retune)
    _emit(
        {
            "method": report.method,
            "chosen": list(report.chosen),
            "threshold": report.threshold,
            "eca": report.achieved_eca,
            "scores": dict(report.scores),
        },
        args.format,
    )
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    data = parse_dataset(_read(args.data), args.class_var)
    net, clf = learn_nb(
        data,
        smoothing=args.smoothing,
        positive_label=args.positive,
        threshold=args.threshold,
    )
    payload = serialize_network(net)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
        print(
            f"wrote {args.out}: class {clf.class_var!r}, "
            f"{len(clf.features)} features, threshold {_fmt(clf.threshold)}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 0


def _cmd_scatter(args: argparse.Namespace) -> int:
    data = parse_dataset(_read(args.data), args.class_var)
    config = EvalConfig(
        split_fraction=args.split,
        folds=args.folds,
        seed=args.seed,
        smoothing=args.smoothing,
        budget=args.budget,
        budget_fraction=args.budget_frac,
        threshold=args.threshold,
        threshold_mode=args.threshold_mode,
    )
    rows, summary = scatter(data, config, positive_label=args.positive)
    if args.format == "csv":
        sys.stdout.write(write_scatter_csv(rows).decode("utf-8"))
        print(json.dumps(_jsonable(summary)), file=sys.stderr)
        return 0
    doc = {
        "rows": [
            {
                "subset": list(r.subset),
                "eca": r.eca,
                "cv_accuracy": r.cv_accuracy,
                "marker": r.marker,
            }
            for r in rows
        ],
        "summary": summary,
    }
    _emit(doc, args.format)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        net = parse_network(_read(args.network))
    except ParseError as e:
        _emit({"valid": False, "problems": list(e.problems) or [str(e)]}, args.format)
        return 2
    _emit(
        {
            "valid": True,
            "variables": [v.name for v in net.variables],
        },
        args.format,
    )
    return 0


def _add_format(
    p: argparse.ArgumentParser, choices=("json", "text"), default="json"
) -> None:
    p.add_argument("--format", choices=choices, default=default)


def _add_classifier_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--network", required=True, help="network JSON file")
    p.add_argument("--class", dest="class_var", required=True, help="class variable name")
    p.add_argument("--positive", default=None, help="positive class value label (default: second declared value)")
    p.add_argument("--features", default=None, help="comma-separated feature names (default: all non-class variables)")
    p.add_argument("--threshold", type=float, default=0.5, help="decision threshold (default 0.5)")


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--costs", default=None, help='per-feature costs, e.g. "A=1,B=2.5" (default: 1 each)')
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", type=float, default=None, help="absolute budget")
    group.add_argument("--budget-frac", type=float, default=None, help="budget as ceil(FRAC * feature count)")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nb", choices=("auto", "off"), default="auto", help="naive-Bayes frontier specialization: auto on naive-Bayes models, or off")
    p.add_argument("--trace", action="store_true", help="log search nodes to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bntrim",
        description="Trim features from a Bayesian network classifier under a budget while preserving its decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trim", help="branch-and-bound search for the best within-budget subset")
    _add_classifier_flags(p)
    _add_budget_flags(p)
    _add_search_flags(p)
    _add_format(p)
    p.set_defaults(func=_cmd_trim)

    p = sub.add_parser("exhaustive", help="score every within-budget subset (oracle)")
    _add_classifier_flags(p)
    _add_budget_flags(p)
    _add_format(p)
    p.set_defaults(func=_cmd_exhaustive)

    p = sub.add_parser("maa", help="best achievable agreement for a kept subset")
    _add_classifier_flags(p)
    p.add_argument("--keep", default=None, help="comma-separated kept features (default: none)")
    _add_format(p)
    p.set_defaults(func=_cmd_maa)

    p = sub.add_parser("mpa", help="upper bound on achievable agreement for a kept subset")
    _add_classifier_flags(p)
    p.add_argument("--keep", default=None, help="comma-separated kept features (default: none)")
    _add_format(p)
    p.set_defaults(func=_cmd_mpa)

    p = sub.add_parser("eca", help="agreement between the classifier and a trimmed variant")
    _add_classifier_flags(p)
    p.add_argument("--trim-features", default=None, help="features kept by the trimmed classifier")
    p.add_argument("--trim-threshold", type=float, required=True, help="threshold of the trimmed classifier")
    _add_format(p)
    p.set_defaults(func=_cmd_eca)

    p = sub.add_parser("sdp", help="probability that observing more features keeps the decision")
    _add_classifier_flags(p)
    p.add_argument("--query", default=None, help="comma-separated features to be observed")
    p.add_argument("--observe", default=None, help='current evidence, e.g. "Q3=+,Q1=-"')
    _add_format(p)
    p.set_defaults(func=_cmd_sdp)

    p = sub.add_parser("ig", help="information-gain feature selection baseline")
    _add_classifier_flags(p)
    _add_budget_flags(p)
    p.add_argument("--retune", action="store_true", help="score the selection at its best threshold")
    _add_format(p)
    p.set_defaults(func=_cmd_ig)

    p = sub.add_parser("learn", help="learn a naive Bayes network from a CSV dataset")
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--class", dest="class_var", required=True)
    p.add_argument("--positive", default=None)
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", default=None, help="write the network JSON here instead of stdout")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("scatter", help="agreement vs cross-validated accuracy over all feasible subsets")
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--class", dest="class_var", required=True)
    p.add_argument("--positive", default=None)
    p.add_argument("--split", type=float, default=0.8, help="training fraction")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--budget-frac", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--threshold-mode", choices=("maa-optimal", "fixed"), default="maa-optimal")
    p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default: ${ENV_SEED} or 0)")
    _add_format(p, choices=("csv", "json", "text"), default="csv")
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("validate", help="check a network document and list violations")
    p.add_argument("network", help="network JSON file")
    _add_format(p)
    p.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs far more than a parse."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if hasattr(args, "seed") and args.seed is None:
            args.seed = int(os.environ.get(ENV_SEED, "0"))
        return args.func(args)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except EnumerationLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (BntrimError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
