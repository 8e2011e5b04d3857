"""Command-line front-end.

Every subcommand is a thin wrapper over one library call; the CLI does no
arithmetic of its own beyond resolving ``--budget-frac`` into an absolute
budget, by one rule (``_budget``) for ``trim``, ``exhaustive``, ``ig`` and
``scatter`` alike.  The subcommands that take a classifier share one runner,
``_run_classifier``: it parses the network, builds the classifier and
prints the document the subcommand returns.  Output goes to stdout in a
fixed field order with floats printed to 12 significant digits, so
identical invocations produce byte-identical output.  Diagnostics and
the optional ``--trace`` search log go to stderr.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 enumeration-guard error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict, fields, replace
from typing import Any, Sequence

from .agreement import ThresholdInterval, eca, maa, mpa, sdp
from .baselines import ig_report
from .bnmodel import BayesianNetwork, Classifier, CostModel, positive_index
from .errors import BntrimError, EnumerationLimitError, ModelError, ParseError, UsageError
from .evalharness import THRESHOLD_MODES, EvalConfig, learn_nb, scatter, write_scatter_csv
from .inference import assignment_from_labels
from .netio import parse_dataset, parse_network, serialize_network
from .trimsearch import TraceEvent, eca_trim, exhaustive_trim


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


def _entries(arg: str | None, flag: str, read=lambda entry: (entry, entry)) -> dict:
    """{name: item} over the entries of a comma list, blanks dropped,
    where ``read`` turns an entry into its (name, item); a name given
    twice is a usage error."""
    out: dict = {}
    for entry in (arg or "").split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, item = read(entry)
        if name in out:
            raise UsageError(f"duplicate name in {flag}; {name!r} is given twice")
        out[name] = item
    return out


def _names(arg: str | None, flag: str) -> tuple[str, ...]:
    """The names of a comma list; ``=`` is part of a name."""
    return tuple(_entries(arg, flag))


def _pairs(arg: str | None, flag: str, form: str, value=str) -> dict:
    """The NAME=VALUE entries of a comma list as {name: value(VALUE)}; an
    entry with no name, or a VALUE that ``value`` refuses, is a usage
    error."""

    def read(entry: str) -> tuple:
        name, sep, text = entry.partition("=")
        if sep and name:
            with contextlib.suppress(ValueError):
                return name, value(text)
        raise UsageError(f"malformed entry {entry!r} in {flag}; expected {form}")

    return _entries(arg, flag, read)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _build_classifier(net: BayesianNetwork, args: argparse.Namespace) -> Classifier:
    features = _names(args.features, "--features") or tuple(
        v.name for v in net.variables if v.name != args.class_var
    )
    positive = positive_index(args.class_var, net.var(args.class_var).values, args.positive)
    return Classifier(args.class_var, positive, features, args.threshold)


def _budget(args: argparse.Namespace, feature_count: int) -> float:
    """The one budget rule: ``--budget`` when given, otherwise
    ceil(FRAC * feature count) for a ``--budget-frac`` FRAC in (0, 1]."""
    if args.budget is not None:
        return args.budget
    if not 0.0 < args.budget_frac <= 1.0:
        raise ModelError(f"budget fraction must be in (0,1], got {args.budget_frac}")
    return float(math.ceil(args.budget_frac * feature_count))


def _build_costs(args: argparse.Namespace, features: Sequence[str]) -> CostModel:
    if args.costs:
        costs = _pairs(args.costs, "--costs", "NAME=NUMBER", float)
    else:
        costs = {f: 1.0 for f in features}
    return CostModel(costs, _budget(args, len(features)))


def _trace_printer(event: TraceEvent) -> None:
    included = ";".join(event.included) or "-"
    excluded = ";".join(event.excluded) or "-"
    print(
        f"{event.action} I={included} E={excluded} "
        f"b={_fmt(event.budget_left)} value={_fmt(event.value)}",
        file=sys.stderr,
    )


def _trim_doc(result) -> dict:
    doc: dict[str, Any] = {
        "best_features": list(result.best_features),
        "score": result.best_score,
    }
    doc.update(_interval_doc(result.threshold))
    doc["stats"] = asdict(result.stats)
    return doc


def _cmd_trim(net: BayesianNetwork, clf: Classifier, args: argparse.Namespace) -> dict:
    costs = _build_costs(args, clf.features)
    hook = _trace_printer if args.trace else None
    return _trim_doc(eca_trim(net, clf, costs, trace_hook=hook))


def _cmd_exhaustive(net: BayesianNetwork, clf: Classifier, args: argparse.Namespace) -> dict:
    costs = _build_costs(args, clf.features)
    return _trim_doc(exhaustive_trim(net, clf, costs))


def _cmd_maa(net: BayesianNetwork, clf: Classifier, args: argparse.Namespace) -> dict:
    result = maa(net, clf, _names(args.keep, "--keep"))
    doc: dict[str, Any] = {"score": result.score}
    doc.update(_interval_doc(result.interval))
    return doc


def _cmd_mpa(net: BayesianNetwork, clf: Classifier, args: argparse.Namespace) -> dict:
    return {"score": mpa(net, clf, _names(args.keep, "--keep"))}


def _cmd_eca(net: BayesianNetwork, clf: Classifier, args: argparse.Namespace) -> dict:
    trimmed = replace(
        clf,
        features=_names(args.trim_features, "--trim-features"),
        threshold=args.trim_threshold,
    )
    return {"eca": eca(net, clf, trimmed)}


def _cmd_sdp(net: BayesianNetwork, clf: Classifier, args: argparse.Namespace) -> dict:
    evidence = assignment_from_labels(net, _pairs(args.observe, "--observe", "VAR=VALUE"))
    return {"sdp": sdp(net, clf, _names(args.query, "--query"), evidence)}


def _cmd_ig(net: BayesianNetwork, clf: Classifier, args: argparse.Namespace) -> dict:
    costs = _build_costs(args, clf.features)
    report = ig_report(net, clf, costs, retune_threshold=args.retune)
    return {
        "method": report.method,
        "chosen": list(report.chosen),
        "threshold": report.threshold,
        "eca": report.achieved_eca,
        "scores": dict(report.scores),
    }


def _run_classifier(command, args: argparse.Namespace) -> int:
    """Run a classifier subcommand: parse the network, build the
    classifier from the shared flags, and print the document the
    subcommand returns in ``--format``."""
    net = parse_network(_read(args.network))
    clf = _build_classifier(net, args)
    _emit(command(net, clf, args), args.format)
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    data = parse_dataset(_read(args.data), args.class_var)
    net, clf = learn_nb(data, smoothing=args.smoothing)
    payload = serialize_network(net)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
        print(
            f"wrote {args.out}: class {clf.class_var!r}, {len(clf.features)} features",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 0


def _cmd_scatter(args: argparse.Namespace) -> int:
    data = parse_dataset(_read(args.data), args.class_var)
    # Every feature is a CSV column but the class.
    budget = _budget(args, len(data.columns) - 1)
    settings = {f.name: getattr(args, f.name) for f in fields(EvalConfig)}
    config = EvalConfig(**settings | {"budget": budget})
    rows, summary = scatter(data, config, positive_label=args.positive)
    if args.format == "csv":
        sys.stdout.write(write_scatter_csv(rows).decode("utf-8"))
        print(json.dumps(_jsonable(summary)), file=sys.stderr)
        return 0
    _emit({"rows": [asdict(r) for r in rows], "summary": summary}, args.format)
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


def _add_classifier_command(sub, name: str, summary: str, command) -> argparse.ArgumentParser:
    """A subcommand run by ``_run_classifier``, with the classifier flags
    and ``--format`` registered first."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--network", required=True, help="network JSON file")
    p.add_argument("--class", dest="class_var", required=True, help="class variable name")
    p.add_argument("--positive", default=None, help="positive class value label (default: second declared value)")
    p.add_argument("--features", default=None, help="comma-separated feature names (default: all non-class variables)")
    p.add_argument("--threshold", type=float, default=0.5, help="decision threshold (default 0.5)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=functools.partial(_run_classifier, command))
    return p


def _add_budget_flags(p: argparse.ArgumentParser, required: bool) -> None:
    """The exclusive --budget/--budget-frac pair, read by ``_budget``; the
    fraction's default is reachable only where the pair is optional."""
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--budget", type=float, default=None, help="absolute budget")
    group.add_argument("--budget-frac", type=float, default=0.5, help="budget as ceil(FRAC * feature count)")


def _add_cost_flags(p: argparse.ArgumentParser) -> None:
    """--costs and the required budget pair of the search subcommands."""
    p.add_argument("--costs", default=None, help='per-feature costs, e.g. "A=1,B=2.5" (default: 1 each)')
    _add_budget_flags(p, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bntrim",
        description="Trim features from a Bayesian network classifier under a budget while preserving its decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_classifier_command(sub, "trim", "branch-and-bound search for the best within-budget subset", _cmd_trim)
    _add_cost_flags(p)
    p.add_argument("--trace", action="store_true", help="log search nodes to stderr")

    p = _add_classifier_command(sub, "exhaustive", "score every within-budget subset (oracle)", _cmd_exhaustive)
    _add_cost_flags(p)

    p = _add_classifier_command(sub, "maa", "best achievable agreement for a kept subset", _cmd_maa)
    p.add_argument("--keep", default=None, help="comma-separated kept features (default: none)")

    p = _add_classifier_command(sub, "mpa", "upper bound on achievable agreement for a kept subset", _cmd_mpa)
    p.add_argument("--keep", default=None, help="comma-separated kept features (default: none)")

    p = _add_classifier_command(sub, "eca", "agreement between the classifier and a trimmed variant", _cmd_eca)
    p.add_argument("--trim-features", default=None, help="features kept by the trimmed classifier")
    p.add_argument("--trim-threshold", type=float, required=True, help="threshold of the trimmed classifier")

    p = _add_classifier_command(sub, "sdp", "probability that observing more features keeps the decision", _cmd_sdp)
    p.add_argument("--query", default=None, help="comma-separated features to be observed")
    p.add_argument("--observe", default=None, help='current evidence, e.g. "Q3=+,Q1=-"')

    p = _add_classifier_command(sub, "ig", "information-gain feature selection baseline", _cmd_ig)
    _add_cost_flags(p)
    p.add_argument("--retune", action="store_true", help="score the selection at its best threshold")

    p = sub.add_parser("learn", help="learn a naive Bayes network from a CSV dataset")
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--class", dest="class_var", required=True)
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--out", default=None, help="write the network JSON here instead of stdout")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("scatter", help="agreement vs cross-validated accuracy over all feasible subsets")
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--class", dest="class_var", required=True)
    p.add_argument("--positive", default=None)
    # Each flag's dest is the name of the EvalConfig field it sets.
    p.add_argument("--split", dest="split_fraction", type=float, default=EvalConfig.split_fraction, help="training fraction")
    p.add_argument("--folds", type=int, default=EvalConfig.folds)
    p.add_argument("--smoothing", type=float, default=EvalConfig.smoothing)
    _add_budget_flags(p, required=False)
    p.add_argument("--threshold", type=float, default=EvalConfig.threshold)
    p.add_argument("--threshold-mode", choices=THRESHOLD_MODES, default=EvalConfig.threshold_mode)
    p.add_argument("--seed", type=int, default=EvalConfig.seed, help="RNG seed (default %(default)s)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("validate", help="check a network document and list violations")
    p.add_argument("network", help="network JSON file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs far more than a parse."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
