"""Command-line front end: run experiments, dump masks, evaluate costs.

A file that cannot be read or written, the config or query file or the
``--out`` directory, ends any subcommand with one ``error:`` line naming the
path and exit status 2.  ``run`` creates ``--out`` before it trains, so a
bad output path fails at once; a run that then fails removes the
directories it created for ``--out`` and keeps any that already existed.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from .config import ConfigError, load_config, read_utf8_text, split_key_value_lines
from .costmodel import ALGORITHMS, QUERY_KEYS, CostQuery, cost, millions
from .masking import format_mask_rows, generate_masks
from .protocol import RoundError, run_experiment


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="DIR", help="directory for output files")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def _emit(args: argparse.Namespace, name: str, text: str) -> None:
    """Write ``text`` to file ``name`` under ``--out`` if given, and print it
    unless ``--quiet``."""
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
    if not args.quiet:
        print(text, end="")


def _cmd_run(args: argparse.Namespace) -> int:
    made = []  # directories this run creates for --out, leaf first
    try:
        config = load_config(args.config)
        if args.out:
            out = Path(args.out).resolve()
            made = [p for p in (out, *out.parents) if not p.exists()]
            out.mkdir(parents=True, exist_ok=True)
        result = run_experiment(config, out_dir=args.out)
    except (ConfigError, RoundError) as exc:  # a too-large sigma shows only in the data
        for path in made:
            path.rmdir()
        bad_config = isinstance(exc, ConfigError)
        print(exc if bad_config else f"error: {exc}", file=sys.stderr)
        return 2 if bad_config else 1
    if not args.quiet:
        print(json.dumps(result.summary, indent=2, sort_keys=True))
    return 0


def _cmd_masks(args: argparse.Namespace) -> int:
    try:
        mask_set = generate_masks(args.K, args.d, args.s, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, "masks.txt", format_mask_rows(mask_set))
    return 0


# a query field's kind -> its noun, and the noun with its article
_KIND_NOUNS = {int: ("integer", "an integer"), float: ("number", "a number")}


def _parse_cost_query_file(path: str) -> list[CostQuery]:
    """Flat key-value query file; `algorithm` and every listed field (`K_i`)
    may hold several values, comma-separated, and an empty part is skipped.
    Each value parses as its field's kind.  Every bad line or value (one that
    does not parse, is not finite or is negative) is reported, named by its
    key; an `algorithm` line that names none is refused as a missing one is."""
    pairs, problems = split_key_value_lines(read_utf8_text(path), {"algorithm", *QUERY_KEYS})
    values = dict(pairs)

    def number(key: str, kind: type, text: str) -> int | float | None:
        noun, what = _KIND_NOUNS[kind]
        try:
            value = kind(text)
            # a count is always finite, and may be too large to convert to a float
            finite = kind is int or math.isfinite(value)
            if finite and value >= 0:
                return value
            what = f"a non-negative {noun}" if finite else "a finite number"
        except ValueError:
            pass
        problems.append(f"{key}: expected {what}, got {text.strip()!r}")

    fields = {}
    for key, text in values.items():
        if key == "algorithm":
            continue
        f = QUERY_KEYS[key]
        kind = f.metadata["kind"]
        if f.metadata["listed"]:
            parsed = [number(key, kind, p) for p in text.split(",") if p.strip()]
            fields[f.name] = parsed[0] if len(parsed) == 1 else parsed
        else:
            fields[f.name] = number(key, kind, text)
    if problems:
        raise ValueError("invalid query file:\n" + "\n".join(f"  {p}" for p in problems))
    algorithms = [a.strip() for a in values.get("algorithm", "").split(",") if a.strip()]
    if not algorithms:
        raise ValueError("query file must set 'algorithm'")
    return [CostQuery(algorithm=a, **fields) for a in algorithms]


def _cmd_cost(args: argparse.Namespace) -> int:
    try:
        queries = _parse_cost_query_file(args.query)
        rows = [(q.algorithm, cost(q)) for q in queries]
        lines = ["algorithm,params,params_millions"]
        lines += [f"{algo},{n},{millions(algo, n):.2f}" for algo, n in rows]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, "costs.csv", "\n".join(lines) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tinyproto",
        description="Desk-scale prototype-based federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="flat key-value config file")
    _add_common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_masks = sub.add_parser("masks", help="generate and print per-class masks")
    p_masks.add_argument("K", type=int, help="number of classes")
    p_masks.add_argument("d", type=int, help="prototype dimension")
    p_masks.add_argument("s", type=int, help="ones per mask")
    p_masks.add_argument("seed", type=int, help="generator seed")
    _add_common(p_masks)
    p_masks.set_defaults(fn=_cmd_masks)

    p_cost = sub.add_parser(
        "cost", help=f"per-round cost for {', '.join(ALGORITHMS)}"
    )
    p_cost.add_argument("query", help="flat key-value query file")
    _add_common(p_cost)
    p_cost.set_defaults(fn=_cmd_cost)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
    )
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
