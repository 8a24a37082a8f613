"""Command line pipeline: encode-rules, extract-paths, train, eval, explain.

A known command is parsed by a parser of its own options alone, built once per
process and reused by every later ``main`` call; the terminal width that help
and usage errors wrap to is probed on each parse.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import json
import os
import shutil
import sys
import time
from dataclasses import asdict

import numpy as np

from . import evaluation, kg as kg_mod, paths as paths_mod, rules as rules_mod
from .config import FIELD_TYPES, PARSERS, RunConfig, apply_config_file, write_resolved_config
from .energy import NORMS
from .model import CheckpointError, ConfigError, load_checkpoint, save_checkpoint
from .training import DivergenceError, train, write_loss_history

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3

DATA_ERRORS = (
    kg_mod.DatasetError,
    rules_mod.RuleParseError,
    paths_mod.PathCacheError,
    CheckpointError,
    ConfigError,
    LookupError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Flags whose spelling is not the field name with "_" -> "-".
_FLAG_NAMES = {
    "train_path": "--train",
    "valid_path": "--valid",
    "test_path": "--test",
    "rules_path": "--rules",
    "output_dir": "--out",
    "n_batches": "--batches",
    "margin_triple": "--margin1",
    "margin_path": "--margin2",
    "margin_relpair": "--margin3",
    "alpha_paths": "--alpha1",
    "alpha_relpairs": "--alpha2",
}


def _add_option(p: _Parser, name: str) -> None:
    """The flag that sets the ``RunConfig`` field ``name``."""
    p.add_argument(
        _FLAG_NAMES.get(name, "--" + name.replace("_", "-")),
        dest=name,
        type=PARSERS[FIELD_TYPES[name]],
        choices=NORMS if name == "norm" else None,
    )


def _add_common_options(p: _Parser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    for name in FIELD_TYPES:
        if name != "top_k":  # explain's alone
            _add_option(p, name)


def _resolve(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        apply_config_file(cfg, args.config)
    for key in vars(cfg):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _load_graph(cfg: RunConfig, write_cache: bool = True) -> kg_mod.KnowledgeGraph:
    """The dataset through ``<out>/dataset.bin``; ``explain`` reads that cache but never writes it."""
    for name in ("train_path", "valid_path", "test_path"):
        if not getattr(cfg, name):
            raise ConfigError(f"{name} is required (set it in the config or via flags)")
    return kg_mod.load_dataset(
        cfg.train_path, cfg.valid_path, cfg.test_path,
        cache=cfg.path_for("dataset.bin"), write_cache=write_cache,
    )


def _load_rule_index(cfg: RunConfig, graph) -> tuple[rules_mod.RuleIndex, rules_mod.ParseStats, list]:
    stats = rules_mod.ParseStats()
    if not cfg.rules_path:
        return rules_mod.build_index([], cfg.confidence_threshold, stats), stats, []
    raw = rules_mod.parse_rules(cfg.rules_path, graph, stats)
    encoded = rules_mod.encode_rules(raw, graph, stats)
    index = rules_mod.build_index(encoded, cfg.confidence_threshold, stats)
    return index, stats, encoded


def _extract_paths(
    cfg: RunConfig, graph, ds_hash: str, stats: paths_mod.PathStats | None = None
) -> paths_mod.PathStore:
    ps = paths_mod.extract_paths(
        graph, cfg.max_path_steps, cfg.path_cutoff, cfg.per_pair_cap, stats
    )
    os.makedirs(cfg.output_dir, exist_ok=True)
    paths_mod.save_path_set(ps, ds_hash, cfg.path_for("paths.bin"))
    return ps


def _load_or_extract_paths(cfg: RunConfig, graph) -> paths_mod.PathStore:
    cache = cfg.path_for("paths.bin")
    ds_hash = graph.dataset_hash()
    if os.path.exists(cache):
        try:
            ps = paths_mod.load_path_set(cache, expected_dataset_hash=ds_hash, graph=graph)
            if (ps.max_steps, ps.cutoff, ps.per_pair_cap) == (
                cfg.max_path_steps, cfg.path_cutoff, cfg.per_pair_cap
            ):
                return ps
        except paths_mod.PathCacheError:
            pass  # stale, corrupt or foreign cache: rebuild
    return _extract_paths(cfg, graph, ds_hash)


def _append_metrics(cfg: RunConfig, command: str, *metrics: dict) -> None:
    """One JSON line for ``command`` per ``metrics`` in ``<out>/metrics.jsonl``."""
    with open(cfg.path_for("metrics.jsonl"), "a", encoding="utf-8") as fh:
        for line in metrics:
            fh.write(json.dumps({"command": command, **line}) + "\n")


def cmd_encode_rules(cfg: RunConfig) -> int:
    graph = _load_graph(cfg)
    index, stats, encoded = _load_rule_index(cfg, graph)
    os.makedirs(cfg.output_dir, exist_ok=True)
    out_path = cfg.path_for("encoded_rules.tsv")
    with open(out_path, "w", encoding="utf-8") as fh:
        for rule in encoded:
            if rule.confidence >= cfg.confidence_threshold:
                fh.write(rules_mod.format_chain_rule(rule, graph) + "\n")
    write_resolved_config(cfg, cfg.path_for("resolved_encode-rules.cfg"))
    print(f"encoded rules written to {out_path}")
    print(
        f"kept: R1={index.n_r1} R2={index.n_r2} | "
        f"rejected (not chainable): {stats.rejected_not_chainable} | "
        f"dropped by threshold {cfg.confidence_threshold}: {stats.dropped_by_threshold} | "
        f"dropped (unknown relation): {stats.dropped_unknown_relation}"
    )
    return EXIT_OK


def cmd_extract_paths(cfg: RunConfig) -> int:
    graph = _load_graph(cfg)
    stats = paths_mod.PathStats()
    start = time.perf_counter()
    ps = _extract_paths(cfg, graph, graph.dataset_hash(), stats)
    seconds = time.perf_counter() - start
    _append_metrics(cfg, "extract-paths",
                    {**asdict(stats), "seconds": {"total": seconds, "shares": stats.seconds}})
    write_resolved_config(cfg, cfg.path_for("resolved_extract-paths.cfg"))
    print(f"path cache written to {cfg.path_for('paths.bin')}")
    print(f"pairs with paths: {len(ps.heads)}; paths: {ps.n_paths}")
    if ps.n_paths:
        hist, edges = np.histogram(ps.reliabilities, bins=10, range=(0.0, 1.0))
        print("reliability histogram:")
        for count, lo, hi in zip(hist, edges[:-1], edges[1:]):
            print(f"  [{lo:.1f},{hi:.1f}): {count}")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    graph = _load_graph(cfg)
    index, _, _ = _load_rule_index(cfg, graph)
    ps = _load_or_extract_paths(cfg, graph)
    result = train(graph, ps, index, cfg, log_every=max(1, cfg.epochs // 10))
    os.makedirs(cfg.output_dir, exist_ok=True)
    applications = {
        rules_mod.format_chain_rule(rule, graph).partition("\t")[0]: n
        for rule, n in result.paths.rule_applications.items()
    }
    summary = {**result.paths.summary(), "rule_applications": applications,
               "seconds": result.seconds}
    _append_metrics(cfg, "train", summary, *result.epochs)
    ckpt = cfg.path_for("checkpoint.bin")
    save_checkpoint(result.table, graph.dataset_hash(), cfg.norm, ckpt)
    graph.save_dictionaries(cfg.output_dir)
    write_loss_history(result.history, cfg.path_for("loss_history.csv"))
    write_resolved_config(cfg, cfg.path_for("resolved_train.cfg"))
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def _scoring_context(cfg: RunConfig, graph: kg_mod.KnowledgeGraph):
    ckpt = cfg.path_for("checkpoint.bin")
    # Score with the norm the table was trained with; the resolved config records it.
    emb, _, cfg.norm = load_checkpoint(ckpt, expected_dataset_hash=graph.dataset_hash())
    if (emb.n_entities, emb.n_base_relations) != (graph.n_entities, graph.n_base_relations):
        raise CheckpointError(
            f"{ckpt}: checkpoint holds {emb.n_entities} entities and {emb.n_base_relations} "
            f"relations, the dataset {graph.n_entities} and {graph.n_base_relations}"
        )
    index, _, _ = _load_rule_index(cfg, graph)
    # Scoring walks the pairs it ranks relations for, never reading paths.bin.
    finder = paths_mod.PathFinder(graph, cfg.max_path_steps, cfg.path_cutoff, cfg.per_pair_cap)
    return emb, index, finder


def cmd_eval(cfg: RunConfig) -> int:
    graph = _load_graph(cfg)
    if not len(graph.test_ids):
        raise kg_mod.DatasetError(f"{cfg.test_path}: test split is empty")
    emb, index, finder = _scoring_context(cfg, graph)
    stats = evaluation.EvalStats()
    reports = evaluation.evaluate(
        emb, finder, index, graph, alpha_paths=cfg.alpha_paths, norm=cfg.norm, stats=stats
    )
    for line in evaluation.report_lines(reports):
        print(line)
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(cfg.path_for("eval_report.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(evaluation.report_csv_rows(reports)) + "\n")
    _append_metrics(cfg, "eval", stats.metrics())
    write_resolved_config(cfg, cfg.path_for("resolved_eval.cfg"))
    return EXIT_OK


def cmd_explain(cfg: RunConfig, head: str, tail: str, machine: bool) -> int:
    graph = _load_graph(cfg, write_cache=False)
    emb, index, finder = _scoring_context(cfg, graph)

    def lookup(name):
        try:
            return graph.entity_id(name)
        except LookupError:
            close = difflib.get_close_matches(name, graph.entity_names, n=3)
            hint = f"; did you mean: {', '.join(close)}" if close else ""
            raise LookupError(f"unknown entity {name!r}{hint}") from None

    h, t = lookup(head), lookup(tail)
    explanations = evaluation.explain(
        emb, finder, index, graph, h, t, top_k=cfg.top_k, alpha_paths=cfg.alpha_paths,
        norm=cfg.norm,
    )
    for line in evaluation.explanation_lines(explanations, graph, machine=machine):
        print(line)
    return EXIT_OK


COMMANDS = ("encode-rules", "extract-paths", "train", "eval", "explain")


def _formatter():
    # The stock formatter's width, probed once: argparse builds a formatter to
    # check every option it adds, and each would probe the terminal again.
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _add_command_options(p: _Parser, command: str) -> None:
    _add_common_options(p)
    if command == "explain":
        _add_option(p, "top_k")
        p.add_argument("head")
        p.add_argument("tail")
        p.add_argument("--machine", action="store_true", help="line-oriented output")


def build_parser() -> _Parser:
    """The rpje parser, one subparser per command."""
    formatter = _formatter()
    parser = _Parser(prog="rpje", description=__doc__, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_command_options(sub.add_parser(name, formatter_class=formatter), name)
    return parser


@functools.cache
def _command_parser(command: str) -> _Parser:
    """The parser of ``command``'s options alone, built once per process. Parsing
    leaves no state on it: each parse returns a fresh namespace."""
    parser = _Parser(prog=f"rpje {command}", formatter_class=_formatter())
    _add_command_options(parser, command)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed. A known command is parsed by its ``_command_parser``, which
    prints what its subparser in ``build_parser`` prints, at this parse's
    terminal width."""
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    command = argv[0]
    parser = _command_parser(command)
    parser.formatter_class = _formatter()
    args, extra = parser.parse_known_args(argv[1:])
    if extra:  # the full parser reports these, under its usage
        build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = command
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or EXIT_OK)
    try:
        cfg = _resolve(args)
        cfg.validate()
        if args.command == "encode-rules":
            return cmd_encode_rules(cfg)
        if args.command == "extract-paths":
            return cmd_extract_paths(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        return cmd_explain(cfg, args.head, args.tail, args.machine)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
