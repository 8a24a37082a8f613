import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from types import SimpleNamespace
from unittest import mock

import pytest

from rpje import artifacts, cli, energy, evaluation, forked, model, paths as paths_mod
from rpje.cli import EXIT_DATA, EXIT_DIVERGENCE, EXIT_OK, EXIT_USAGE, main
from rpje.config import RunConfig, apply_config_file
from rpje.kg import load_dataset
from rpje.paths import PathCacheError, load_path_set, walk_resources
from rpje.synthetic import ToyConfig, generate, write_dataset

from conftest import CHECKPOINT, DATASET_CACHE, PATH_CACHE, train_pairs
from oracles import PathSet
from test_paths import _corrupt

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("toy")
    files = write_dataset(generate(ToyConfig(seed=7)), directory)
    return directory, files


def data_flags(files):
    return [
        "--train", files["train"],
        "--valid", files["valid"],
        "--test", files["test"],
        "--rules", files["rules"],
    ]


@pytest.fixture(scope="module")
def pipeline(toy_dir, tmp_path_factory):
    """Run the full pipeline once; individual tests inspect its artifacts."""
    _, files = toy_dir
    out = tmp_path_factory.mktemp("out")
    common = data_flags(files) + ["--out", str(out)]
    fast = ["--dim", "16", "--epochs", "5", "--batches", "10"]
    assert main(["encode-rules", *common]) == EXIT_OK
    assert main(["extract-paths", *common]) == EXIT_OK
    assert main(["train", *common, *fast]) == EXIT_OK
    assert main(["eval", *common, *fast]) == EXIT_OK
    return out, files, fast


def test_pipeline_artifacts(pipeline):
    out, _, _ = pipeline
    for name in (
        "encoded_rules.tsv",
        "paths.bin",
        "checkpoint.bin",
        "loss_history.csv",
        "eval_report.csv",
        "entity2id.tsv",
        "relation2id.tsv",
    ):
        assert (out / name).exists(), name


def test_resolved_configs_written(pipeline):
    out, _, _ = pipeline
    for cmd in ("encode-rules", "extract-paths", "train", "eval"):
        path = out / f"resolved_{cmd}.cfg"
        assert path.exists()
        text = path.read_text()
        assert "dim = 16" in text or "dim = 100" in text
        assert "seed = 0" in text


def test_encoded_rules_content(pipeline, capsys):
    out, files, _ = pipeline
    lines = [l for l in (out / "encoded_rules.tsv").read_text().splitlines() if l]
    # the generator's three good rules survive the 0.7 threshold
    assert len(lines) == 3
    assert all("\t" in l for l in lines)


def test_loss_history_decreases(pipeline):
    out, _, _ = pipeline
    rows = (out / "loss_history.csv").read_text().splitlines()
    assert rows[0] == "epoch,total,triple,path,relpair"
    first = float(rows[1].split(",")[1])
    last = float(rows[-1].split(",")[1])
    assert last < first


def test_explain_command(pipeline, toy_dir, capsys):
    out, files, fast = pipeline
    data = generate(ToyConfig(seed=7))
    person, _, country = next(t for t in data.test if t[1] == "nationality")
    rc = main([
        "explain", *data_flags(files), "--out", str(out), *fast,
        person, country, "--top-k", "3",
    ])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "predicted relation" in text
    rc = main([
        "explain", *data_flags(files), "--out", str(out), *fast,
        person, country, "--machine",
    ])
    assert rc == EXIT_OK
    machine = capsys.readouterr().out
    assert machine.startswith("relation\t")


def test_explain_unknown_entity_hints(pipeline, capsys):
    out, files, fast = pipeline
    rc = main([
        "explain", *data_flags(files), "--out", str(out), *fast,
        "country_0x", "country_1",
    ])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "unknown entity" in err
    assert "did you mean" in err


def test_explain_undecodable_entity_exits_two(pipeline, capsys):
    """An argument that is not UTF-8 reaches ``main`` with a lone surrogate in
    it: it names no entity, and the error is one line."""
    out, files, fast = pipeline
    rc = main(["explain", *data_flags(files), "--out", str(out), *fast, "country_0\udcff", "country_1"])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: unknown entity 'country_0\\udcff'")
    assert len(err.strip().splitlines()) == 1


def test_scoring_uses_checkpoint_norm(pipeline, tmp_path, capsys):
    """eval and explain score with the norm the checkpoint was trained with
    (the default L1 here): ``--norm L2`` is a training setting they ignore, and
    eval's resolved config records the norm it scored with."""
    _, files, fast = pipeline
    out = tmp_path / "out"
    shutil.copytree(pipeline[0], out)
    capsys.readouterr()
    for command in (["eval"], ["explain", "country_0", "country_1"]):
        outputs = []
        for norm in ([], ["--norm", "L2"]):
            assert main([*command, *data_flags(files), "--out", str(out), *fast, *norm]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append((captured.out, (out / "eval_report.csv").read_bytes()))
        assert outputs[0] == outputs[1]
    assert (out / "eval_report.csv").read_bytes() == (pipeline[0] / "eval_report.csv").read_bytes()
    assert "norm = L1\n" in (out / "resolved_eval.cfg").read_text()


def test_usage_errors_exit_one(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["train", "--dim", "not-a-number"]) == EXIT_USAGE
    assert main(["train", "--deterministic"]) == EXIT_USAGE
    assert main(["encode-rules", "--rules-format", "amie"]) == EXIT_USAGE  # detected from the file
    capsys.readouterr()


def test_missing_dataset_exits_two(tmp_path, capsys):
    rc = main([
        "encode-rules",
        "--train", str(tmp_path / "missing.tsv"),
        "--valid", str(tmp_path / "missing.tsv"),
        "--test", str(tmp_path / "missing.tsv"),
        "--out", str(tmp_path),
    ])
    assert rc == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_malformed_dataset_exits_two(tmp_path, capsys):
    bad = tmp_path / "train.tsv"
    bad.write_text("only_two_fields\there\n")
    rc = main([
        "extract-paths", "--train", str(bad), "--valid", str(bad),
        "--test", str(bad), "--out", str(tmp_path),
    ])
    assert rc == EXIT_DATA
    capsys.readouterr()


def test_relation_with_inverse_suffix_exits_two(tmp_path, capsys):
    """``^-1`` names a derived inverse, so a relation named with it could never be
    looked up: the graph is refused with one error line that names it, and no
    rule over it is silently dropped."""
    train = tmp_path / "train.tsv"
    train.write_text("a\tr^-1\tb\nb\tr^-1\tc\na\ts\tc\nc\ts\ta\n")
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    rules = tmp_path / "rules.tsv"
    rules.write_text("s(a,b) <= r^-1(a,e) & r^-1(e,b)\t0.9\n")
    out = tmp_path / "out"
    rc = main(["encode-rules", "--train", str(train), "--valid", str(empty), "--test",
               str(empty), "--rules", str(rules), "--out", str(out)])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
    assert "'r^-1'" in captured.err
    assert not (out / "dataset.bin").exists()


def test_divergence_exits_three(toy_dir, tmp_path, capsys):
    _, files = toy_dir
    rc = main([
        "train", *data_flags(files), "--out", str(tmp_path),
        "--dim", "8", "--epochs", "2", "--batches", "5", "--lr", "1e308",
    ])
    assert rc == EXIT_DIVERGENCE
    assert "error:" in capsys.readouterr().err


def test_divergent_train_prints_only_its_error_line(toy_dir, tmp_path, capsys, recwarn):
    """Overflow and invalid values of a diverging run raise no numpy warning: the
    epoch loss reports the divergence, in one line."""
    _, files = toy_dir
    rc = main([
        "train", *data_flags(files), "--out", str(tmp_path),
        "--dim", "8", "--epochs", "2", "--batches", "5", "--lr", "1e308",
    ])
    assert rc == EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_config_file_with_flag_override(toy_dir, tmp_path, capsys):
    _, files = toy_dir
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"train_path = {files['train']}",
                f"valid_path = {files['valid']}",
                f"test_path = {files['test']}",
                f"rules_path = {files['rules']}",
                f"output_dir = {tmp_path / 'out'}",
                "dim = 12",
                "epochs = 3",
                "n_batches = 5",
            ]
        )
        + "\n"
    )
    rc = main(["train", "--config", str(cfg), "--dim", "10"])
    assert rc == EXIT_OK
    resolved = (tmp_path / "out" / "resolved_train.cfg").read_text()
    assert "dim = 10" in resolved  # flag beats config file
    assert "epochs = 3" in resolved
    capsys.readouterr()


def test_bad_config_file_exits_two(toy_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dim = twelve\n")
    assert main(["train", "--config", str(cfg)]) == EXIT_DATA
    for line in ("no_such_key = 1\n", "deterministic = true\n", "disable_r1 = true\n"):
        cfg2 = tmp_path / "unknown.cfg"
        cfg2.write_text(line)
        assert main(["train", "--config", str(cfg2)]) == EXIT_DATA
    # the rule file shows its own format, so the setting that named it is gone
    _, files = toy_dir
    cfg3 = tmp_path / "format.cfg"
    cfg3.write_text("rules_format = normalized\n")
    capsys.readouterr()
    argv = ["encode-rules", "--config", str(cfg3), *data_flags(files), "--out", str(tmp_path)]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "unknown option 'rules_format'" in err


def test_config_value_keeps_its_hash(toy_dir, tmp_path, capsys):
    """A ``#`` inside a value is part of it: the resolved config of a run whose
    output directory holds one replays into that same directory. A ``#`` after
    whitespace still starts a comment."""
    _, files = toy_dir
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"train_path = {files['train']}\nvalid_path = {files['valid']}\n"
                   f"test_path = {files['test']}\nrules_path = {files['rules']}  # toy rules\n"
                   "epochs = 5  # note\n# a comment line\n")
    out = tmp_path / "runs" / "a#1"
    assert main(["encode-rules", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    resolved = out / "resolved_encode-rules.cfg"
    assert f"output_dir = {out}\n" in resolved.read_text()
    replayed = RunConfig()
    apply_config_file(replayed, resolved)
    assert replayed.output_dir == str(out)
    assert (replayed.epochs, replayed.rules_path) == (5, str(files["rules"]))
    replay = tmp_path / "replay.cfg"
    shutil.copy(resolved, replay)
    os.remove(resolved)
    assert main(["encode-rules", "--config", str(replay)]) == EXIT_OK
    assert resolved.exists() and not (tmp_path / "runs" / "a").exists()
    capsys.readouterr()


def test_train_reuses_path_cache(toy_dir, tmp_path, capsys):
    _, files = toy_dir
    out = tmp_path / "out"
    common = data_flags(files) + ["--out", str(out), "--dim", "8",
                                  "--epochs", "1", "--batches", "5"]
    assert main(["extract-paths", *common]) == EXIT_OK
    cache = out / "paths.bin"
    mtime = cache.stat().st_mtime_ns
    assert main(["train", *common]) == EXIT_OK
    assert cache.stat().st_mtime_ns == mtime  # cache reused, not rebuilt
    capsys.readouterr()


def test_eval_without_checkpoint_exits_two(toy_dir, tmp_path, capsys):
    _, files = toy_dir
    rc = main(["eval", *data_flags(files), "--out", str(tmp_path / "empty")])
    assert rc == EXIT_DATA
    capsys.readouterr()


# Every RunConfig field: the flag that sets it and a non-default value.
RUN_FLAGS = {
    "dim": ("--dim", "7"),
    "lr": ("--lr", "0.5"),
    "epochs": ("--epochs", "3"),
    "n_batches": ("--batches", "4"),
    "margin_triple": ("--margin1", "2.5"),
    "margin_path": ("--margin2", "3.5"),
    "margin_relpair": ("--margin3", "4.5"),
    "alpha_paths": ("--alpha1", "0.25"),
    "alpha_relpairs": ("--alpha2", "0.75"),
    "norm": ("--norm", "L2"),
    "confidence_threshold": ("--confidence-threshold", "0.35"),
    "max_path_steps": ("--max-path-steps", "3"),
    "path_cutoff": ("--path-cutoff", "0.05"),
    "per_pair_cap": ("--per-pair-cap", "9"),
    "seed": ("--seed", "11"),
    "train_path": ("--train", "t.tsv"),
    "valid_path": ("--valid", "v.tsv"),
    "test_path": ("--test", "x.tsv"),
    "rules_path": ("--rules", "r.tsv"),
    "output_dir": ("--out", "elsewhere"),
    "top_k": ("--top-k", "5"),
}


def test_every_training_field_round_trips(tmp_path, capsys):
    """Each RunConfig field is set alike by its config-file key and by its flag
    on every command; ``--top-k`` exists on ``explain`` alone."""
    assert set(RUN_FLAGS) == {f.name for f in fields(RunConfig)}
    defaults = RunConfig()
    for name, (flag, raw) in RUN_FLAGS.items():
        expected = type(getattr(defaults, name))(raw)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{name} = {raw}\n")
        via_file = RunConfig()
        apply_config_file(via_file, cfg_file)
        via_flags = []
        for command in cli.COMMANDS:
            argv = [command, flag, raw] + (["h", "t"] if command == "explain" else [])
            if name == "top_k" and command != "explain":
                with pytest.raises(SystemExit):
                    cli.build_parser().parse_args(argv)
                continue
            via_flags.append(cli._resolve(cli.build_parser().parse_args(argv)))
        for got in (via_file, *via_flags):
            assert getattr(got, name) == expected != getattr(defaults, name), name
            assert replace(got, **{name: getattr(defaults, name)}) == defaults, name
    capsys.readouterr()


def test_train_rebuilds_cache_for_other_per_pair_cap(toy_dir, tmp_path, monkeypatch, capsys):
    _, files = toy_dir
    out = tmp_path / "out"
    common = data_flags(files) + ["--out", str(out), "--dim", "8",
                                  "--epochs", "1", "--batches", "5"]
    assert main(["extract-paths", *common]) == EXIT_OK
    cached = load_path_set(out / "paths.bin")
    assert max(len(paths) for paths in PathSet.of(cached).pairs.values()) > 1

    seen = []
    real_train = cli.train

    def recording_train(graph, ps, *args, **kwargs):
        seen.append(ps)
        return real_train(graph, ps, *args, **kwargs)

    monkeypatch.setattr(cli, "train", recording_train)
    assert main(["train", *common, "--per-pair-cap", "1"]) == EXIT_OK
    assert max(len(paths) for paths in PathSet.of(seen[0]).pairs.values()) == 1
    assert seen[0].per_pair_cap == 1
    capsys.readouterr()


ARTIFACTS = {"checkpoint.bin": CHECKPOINT, "paths.bin": PATH_CACHE, "dataset.bin": DATASET_CACHE}
# each damage, and the message a checkpoint or a path cache damaged so is refused with
DAMAGES = {
    "wrong magic": "not a RPJE",
    "previous version": "version",
    "cut inside the header": "truncated file",
    "cut inside the first array": "truncated file",
    "one byte short": "truncated file",
    "one byte over": "over-long file",
    "non-finite value": "not finite",
}


def _damaged(data: bytes, name: str, damage: str) -> bytes:
    """``data``, the bytes of the artifact ``name``, damaged as ``damage`` says;
    every offset comes from the format's header struct and layout."""
    fmt = ARTIFACTS[name]
    data = bytearray(data)
    version, *rest = fmt.fields(data)
    (first, *_), (start, *_) = fmt.arrays(data)
    if damage == "wrong magic":
        data[0] ^= 0xFF
    elif damage == "previous version":
        fmt.set_fields(data, [version - 1, *rest])
    elif damage == "cut inside the header":
        data = data[: len(fmt.magic) + fmt.header.size // 2]
    elif damage == "cut inside the first array":
        data = data[: start + first.nbytes // 2]
    elif damage == "one byte short":
        data = data[:-1]
    elif damage == "one byte over":
        data = data + b"\0"
    elif damage == "non-finite value":  # the first value of the first float array
        next(a for a in fmt.arrays(data)[0] if a.dtype.kind == "f")[0] = math.nan
    else:
        raise AssertionError(damage)
    return bytes(data)


def _truncated_copy(pipeline, tmp_path, name, where):
    """A copy of the pipeline's output with ``name`` cut inside its header
    ("header"), inside its first array ("record"), or damaged as ``_damaged`` says."""
    out = tmp_path / "out"
    shutil.copytree(pipeline[0], out)
    target = out / name
    data = target.read_bytes()
    damage = {"header": "cut inside the header", "record": "cut inside the first array"}
    target.write_bytes(_damaged(data, name, damage.get(where, where)))
    return out, data


@pytest.mark.parametrize("name, damage", [  # dataset.bin holds no float value
    (n, d) for n in ARTIFACTS for d in DAMAGES if (n, d) != ("dataset.bin", "non-finite value")])
def test_damaged_artifact_is_refused(pipeline, tmp_path, name, damage):
    """A checkpoint or path cache with a wrong magic or version, cut anywhere, one
    byte too long, or holding a NaN is refused with a message that says which; a
    damaged dataset cache is a silent miss, rewritten from the split files.
    Either way alike whether the file is read, as a toy file is, or mapped, as
    a file of ``_MAP_FROM`` bytes or more is."""
    out, files, _ = pipeline
    original = (out / name).read_bytes()
    target = tmp_path / name
    assert len(original) < artifacts._MAP_FROM
    for map_from in (artifacts._MAP_FROM, 1):
        target.write_bytes(_damaged(original, name, damage))
        with mock.patch.object(artifacts, "_MAP_FROM", map_from):
            if name == "dataset.bin":
                load_dataset(files["train"], files["valid"], files["test"], cache=target)
                assert target.read_bytes() == original
            else:
                load, error = {
                    "checkpoint.bin": (model.load_checkpoint, model.CheckpointError),
                    "paths.bin": (load_path_set, PathCacheError),
                }[name]
                with pytest.raises(error, match=DAMAGES[damage]):
                    load(target)


@pytest.mark.parametrize("where", ["header", "record", "one byte short", "non-finite value"])
def test_truncated_checkpoint_exits_two(pipeline, tmp_path, capsys, where):
    """A checkpoint cut short, or holding a NaN, exits 2 with one error line."""
    _, files, fast = pipeline
    out, _ = _truncated_copy(pipeline, tmp_path, "checkpoint.bin", where)
    capsys.readouterr()
    assert main(["eval", *data_flags(files), "--out", str(out), *fast]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["eval", "explain"])
@pytest.mark.parametrize("edit", ["dim", "entities", "entities and relations"])
def test_checkpoint_header_disagreeing_exits_two(pipeline, tmp_path, capsys, command, edit):
    """A checkpoint whose header shape disagrees with its body (one dimension or
    one entity fewer), or with the graph (the same number of rows, split
    otherwise), is refused, not read as other rows."""
    _, files, fast = pipeline
    out = tmp_path / "out"
    shutil.copytree(pipeline[0], out)
    target = out / "checkpoint.bin"
    data = bytearray(target.read_bytes())
    header = CHECKPOINT.fields(data)
    dim, n_ent, n_rel = header[1:4]
    header[1:4] = {"dim": (dim - 1, n_ent, n_rel), "entities": (dim, n_ent - 1, n_rel),
                   "entities and relations": (dim, n_ent - 1, n_rel + 1)}[edit]
    CHECKPOINT.set_fields(data, header)
    target.write_bytes(bytes(data))
    argv = [command, *data_flags(files), "--out", str(out), *fast]
    if command == "explain":
        argv += ["country_0", "country_1"]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "checkpoint.bin" in err


@pytest.mark.parametrize("argv", [["eval"], ["eval", "--alpha1", "0"],
                                  ["explain", "country_0", "country_1"]],
                         ids=["eval", "eval-alpha1-0", "explain"])
def test_checkpoint_of_no_dimensions_exits_two(pipeline, tmp_path, capsys, argv):
    """A checkpoint whose table has dimension 0, consistent header and all, is
    refused with one error line, before any scoring divides by its width."""
    _, files, fast = pipeline
    out = tmp_path / "out"
    shutil.copytree(pipeline[0], out)
    target = out / "checkpoint.bin"
    emb, dataset_hash, norm = model.load_checkpoint(target)
    empty = model.EmbeddingTable(emb.entities[:, :0], emb.relations[:, :0])
    model.save_checkpoint(empty, dataset_hash, norm, target)
    assert CHECKPOINT.fields(target.read_bytes())[1:4] == [0, emb.n_entities, emb.n_base_relations]
    capsys.readouterr()
    assert main([argv[0], *data_flags(files), "--out", str(out), *fast, *argv[1:]]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "checkpoint.bin" in err and "dimension 0" in err


@pytest.mark.parametrize("where", ["header", "record", "one byte short", "previous version"])
def test_truncated_path_cache_is_rebuilt(pipeline, tmp_path, capsys, where):
    """``train`` silently rebuilds a path cache that is cut short or of the previous version."""
    _, files, fast = pipeline
    out, original = _truncated_copy(pipeline, tmp_path, "paths.bin", where)
    capsys.readouterr()
    flags = [*data_flags(files), "--out", str(out), *fast, "--epochs", "1"]
    assert main(["train", *flags]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (out / "paths.bin").read_bytes() == original


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("extract-paths", "--max-path-steps", "4"),
        ("eval", "--path-cutoff", "1.5"),
        ("extract-paths", "--per-pair-cap", "-1"),
        ("train", "--per-pair-cap", "-1"),
        ("eval", "--per-pair-cap", "-1"),
        ("explain", "--max-path-steps", "5"),
        ("explain", "--path-cutoff", "-0.5"),
        ("train", "--batches", "0"),
        ("train", "--seed", "-1"),
        ("train", "--epochs", "-1"),
        ("train", "--lr", "-0.5"),
        ("train", "--lr", "0"),
        ("train", "--lr", "nan"),
        ("train", "--lr", "inf"),
        ("explain", "--top-k", "-2"),
        ("explain", "--top-k", "0"),
    ],
)
def test_invalid_path_option_exits_two(pipeline, tmp_path, capsys, command, flag, value):
    _, files, fast = pipeline
    out = tmp_path / "out"
    shutil.copytree(pipeline[0], out)
    argv = [command, *data_flags(files), "--out", str(out), *fast, flag, value]
    if command == "explain":
        argv += ["country_0", "country_1"]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize(
    "command, flag, field, value",
    [
        ("train", "--margin1", "margin_triple", "nan"),
        ("train", "--margin2", "margin_path", "inf"),
        ("train", "--margin3", "margin_relpair", "nan"),
        ("train", "--alpha1", "alpha_paths", "nan"),
        ("train", "--alpha2", "alpha_relpairs", "inf"),
        ("eval", "--alpha1", "alpha_paths", "nan"),
        ("eval", "--alpha1", "alpha_paths", "inf"),
        ("explain", "--alpha1", "alpha_paths", "inf"),
        ("explain", "--alpha2", "alpha_relpairs", "nan"),
    ],
)
def test_non_finite_margin_or_weight_exits_two(
    pipeline, tmp_path, capsys, recwarn, command, flag, field, value
):
    """A NaN or infinite margin or loss weight is refused like any other bad
    value, before training diverges on it or scoring ranks NaN first."""
    _, files, fast = pipeline
    out = tmp_path / "out"
    shutil.copytree(pipeline[0], out)
    argv = [command, *data_flags(files), "--out", str(out), *fast, flag, value]
    if command == "explain":
        argv += ["country_0", "country_1"]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
    assert field in captured.err and "finite" in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("first", ["normalized", "amie"])
def test_rule_file_in_two_syntaxes_exits_two(toy_dir, tmp_path, capsys, first):
    """The first rule line decides the file's syntax; a later line in the other
    syntax is a data error that names its line."""
    _, files = toy_dir
    lines = {
        "normalized": "nationality(a,b) <= born_in_country(a,b)\t0.9",
        "amie": "?a  born_in_country  ?b  => ?a  nationality  ?b\t0.5\t0.6\t0.9",
    }
    rules = tmp_path / "mixed.tsv"
    second = "amie" if first == "normalized" else "normalized"
    rules.write_text(f"# mined rules\n{lines[first]}\n{lines[second]}\n")
    argv = ["encode-rules", *data_flags(files), "--rules", str(rules), "--out", str(tmp_path)]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert f"{rules}:3:" in err


def test_extract_paths_appends_metrics_line(toy_dir, tmp_path, capsys):
    _, files = toy_dir
    out = tmp_path / "out"
    argv = ["extract-paths", *data_flags(files), "--out", str(out),
            "--path-cutoff", "0.05", "--per-pair-cap", "2"]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == stdout
    first, second = map(json.loads, (out / "metrics.jsonl").read_text().splitlines())
    assert set(first) == {
        "command", "pairs", "pairs_without_paths", "paths", "paths_below_cutoff",
        "paths_over_cap", "blocks", "blocks_joined", "last_hop_gathered", "last_hop_kept",
        "seconds",
    }
    assert first["command"] == "extract-paths"
    seconds = first["seconds"]  # the toy walk is one block, so one share
    assert set(seconds) == {"total", "shares"} and len(seconds["shares"]) == 1
    assert all(isinstance(v, float) for v in (seconds["total"], *seconds["shares"]))
    assert 0 <= seconds["shares"][0] <= seconds["total"]
    counts = {k: v for k, v in first.items() if k not in ("command", "seconds")}
    assert all(isinstance(v, int) for v in counts.values())
    assert counts == {k: v for k, v in second.items() if k not in ("command", "seconds")}

    kg = load_dataset(files["train"], files["valid"], files["test"])
    ps = load_path_set(out / "paths.bin")
    arrivals = sum(len(PathSet.of(walk_resources(kg, h, 2)).paths_between(h, t))
                   for h, t in train_pairs(kg))
    assert counts["pairs"] == len(train_pairs(kg))
    assert counts["pairs"] - counts["pairs_without_paths"] == len(ps.pairs)
    assert counts["paths"] == ps.n_paths
    assert counts["paths"] + counts["paths_below_cutoff"] + counts["paths_over_cap"] == arrivals
    assert counts["blocks_joined"] <= counts["blocks"]
    assert counts["last_hop_kept"] <= counts["last_hop_gathered"]
    assert min(v for k, v in counts.items() if k != "blocks_joined") > 0


def _copy_toy_files(toy_dir, directory):
    _, files = toy_dir
    directory.mkdir()
    copies = {}
    for name, path in files.items():
        copies[name] = str(directory / os.path.basename(path))
        shutil.copyfile(path, copies[name])
    return copies


def test_shuffled_train_rows_invalidate_checkpoint_and_paths(toy_dir, tmp_path, capsys):
    files = _copy_toy_files(toy_dir, tmp_path / "data")
    out = tmp_path / "out"
    common = [*data_flags(files), "--out", str(out), "--dim", "8", "--epochs", "2", "--batches", "5"]
    assert main(["train", *common]) == EXIT_OK
    paths_before = (out / "paths.bin").read_bytes()
    with open(files["train"], encoding="utf-8") as fh:
        rows = fh.readlines()
    shuffled = rows[1:] + rows[:1]  # the same rows; the first entity now comes later
    with open(files["train"], "w", encoding="utf-8") as fh:
        fh.writelines(shuffled)
    capsys.readouterr()
    for command in (["eval"], ["explain", "country_0", "country_1"]):
        assert main([*command, *common]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "different dataset" in err
    assert main(["train", *common]) == EXIT_OK
    graph = load_dataset(files["train"], files["valid"], files["test"])
    assert (out / "paths.bin").read_bytes() != paths_before
    load_path_set(out / "paths.bin", expected_dataset_hash=graph.dataset_hash())
    assert main(["eval", *common]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("target", ["train", "rules", "config"])
def test_non_utf8_input_exits_two(toy_dir, tmp_path, capsys, target):
    files = _copy_toy_files(toy_dir, tmp_path / "data")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 8\n")
    bad = cfg if target == "config" else files[target]
    with open(bad, "ab") as fh:
        fh.write(b"\xff\n")
    argv = ["encode-rules", *data_flags(files), "--out", str(tmp_path / "out"), "--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert str(bad) in err and "UTF-8" in err


def _full_parser_output(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["explain", "--help"],
        ["train", "--help"],
        ["train", "--dim", "not-a-number"],
        ["explain", "--top-k", "2"],
        ["no-such-command", "--help"],
    ],
    ids=["help", "explain help", "train help", "bad value", "missing positionals", "bad command"],
)
def test_parser_for_one_command_matches_full_parser(capsys, monkeypatch, argv):
    """A known command is parsed by a parser of its own options, built once per
    process, which prints what the full parser prints on every call."""
    expected = _full_parser_output(argv, capsys)
    built = []
    real = cli._add_common_options
    monkeypatch.setattr(cli, "_add_common_options", lambda p: built.append(p.prog) or real(p))
    cli._command_parser.cache_clear()
    for _ in range(2):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
    assert code in (EXIT_OK, EXIT_USAGE)
    assert len(built) == (1 if argv[0] in cli.COMMANDS else 2 * len(cli.COMMANDS))


def test_warm_explain_makes_no_gettext_call(pipeline, capsys, monkeypatch):
    """argparse looks its messages up through ``gettext`` while it builds a
    parser, never while a built one parses a valid command line."""
    out, files, fast = pipeline
    argv = ["explain", *data_flags(files), "--out", str(out), *fast, "--machine",
            "country_0", "country_1"]
    lookups = []
    real = argparse._
    monkeypatch.setattr(argparse, "_", lambda text: lookups.append(text) or real(text))
    cli._command_parser.cache_clear()
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out
    assert lookups  # the cold call builds the parser
    lookups.clear()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert lookups == []


def test_cached_parser_keeps_no_state_between_parses(capsys, monkeypatch):
    """The one parser of a command gives each parse its own namespace: options of
    one parse read as unset on the next, a parse that exits leaves the next one
    right, and each parse's usage errors wrap at that parse's terminal width."""
    parser = cli._command_parser("explain")
    first = cli._parse(["explain", "--top-k", "2", "--machine", "--dim", "5", "a", "b"])
    assert (first.top_k, first.dim, first.machine) == (2, 5, True)
    second = cli._parse(["explain", "a", "b"])
    assert (second.top_k, second.dim, second.machine, second.head, second.tail) == (
        None, None, False, "a", "b")

    assert main(["explain", "--dim", "zz", "a", "b"]) == EXIT_USAGE
    assert main(["explain", "-h"]) == EXIT_OK
    capsys.readouterr()
    after = cli._parse(["explain", "--top-k", "3", "c", "d"])
    assert (after.top_k, after.dim, after.machine, after.head, after.tail) == (
        3, None, False, "c", "d")

    argv = ["explain", "--top-k", "2"]
    errors = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        expected = _full_parser_output(argv, capsys)
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (EXIT_USAGE, captured.out, captured.err) == expected
        errors[columns] = captured.err
    assert errors["40"] != errors["200"]
    assert cli._command_parser("explain") is parser


@pytest.mark.parametrize("argv", [["-h"], ["explain", "-h"]], ids=["help", "explain help"])
def test_help_matches_stock_formatter(capsys, monkeypatch, argv):
    """The parser's formatter, sized on each parse, prints what argparse's stock
    formatter prints at each terminal width."""
    helps = {}
    for columns in ("40", "50", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with monkeypatch.context() as stock:
            assert main(argv) == EXIT_OK
            sized = capsys.readouterr()
            stock.setattr(cli, "functools", SimpleNamespace(partial=lambda cls, **_: cls))
            assert main(argv) == EXIT_OK
            assert capsys.readouterr() == sized
        helps[columns] = sized.out
    assert len(set(helps.values())) == len(helps)


@pytest.mark.parametrize("cache", ["missing", "stale"])
def test_explain_parses_without_cache_and_writes_nothing(pipeline, tmp_path, capsys, cache):
    _, files, fast = pipeline
    out = tmp_path / "out"
    shutil.copytree(pipeline[0], out)
    argv = ["explain", *data_flags(files), "--out", str(out), *fast, "--machine",
            "country_0", "country_1"]
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out
    if cache == "missing":
        (out / "dataset.bin").unlink()
    else:
        data = bytearray((out / "dataset.bin").read_bytes())
        *_, stored_train, _, _ = DATASET_CACHE.arrays(data)[0]  # the stored split files end it
        stored_train[len(stored_train) // 2] ^= 0xFF
        (out / "dataset.bin").write_bytes(bytes(data))
    listing = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert {p.name: p.read_bytes() for p in out.iterdir()} == listing


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("what", ["length 0", "relation id 999"])
def test_corrupt_path_cache_is_rebuilt(pipeline, tmp_path, capsys, command, what):
    """``train`` rebuilds a cache of the right length with a bad value, as it does
    a truncated one. ``eval`` walks its test pairs and never reads the cache: it
    writes the same report and leaves the corrupt file as it found it."""
    _, files, fast = pipeline
    out = tmp_path / "out"
    shutil.copytree(pipeline[0], out)
    original = (out / "paths.bin").read_bytes()
    data = bytearray(original)
    _corrupt(data, what)
    (out / "paths.bin").write_bytes(bytes(data))
    capsys.readouterr()
    assert main([command, *data_flags(files), "--out", str(out), *fast]) == EXIT_OK
    assert capsys.readouterr().err == ""
    if command == "train":
        assert (out / "paths.bin").read_bytes() == original
    else:
        assert (out / "paths.bin").read_bytes() == bytes(data)
        report = (out / "eval_report.csv").read_bytes()
        assert report == (pipeline[0] / "eval_report.csv").read_bytes()


def test_eval_on_empty_test_split_exits_two(pipeline, tmp_path, capsys, monkeypatch):
    """An empty test split is a data error, reported in one line before any walk."""
    _, files, fast = pipeline
    out = tmp_path / "out"
    shutil.copytree(pipeline[0], out)
    empty = tmp_path / "test.tsv"
    empty.write_text("")
    walks = []
    monkeypatch.setattr(cli.paths_mod, "extract_paths", lambda *a, **k: walks.append(a))
    argv = ["eval", *data_flags(files), "--test", str(empty), "--out", str(out), *fast]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "test split is empty" in err and str(empty) in err
    assert walks == []


def test_eval_appends_metrics_line(pipeline, tmp_path, capsys, monkeypatch):
    """eval appends one line: the test pairs, the walk of their paths, the
    store's compile summary, the entity queries and how many candidates they
    rescored exactly, and per-stage seconds with the p50 and p90 of one entity
    query, and each process's claim blocks ranked and entity ranking seconds,
    the blocks summing to the claim count; its stdout is unchanged.
    With the toy table's scan covering every query or, past a ``SCAN_MAX_DIM``
    of 0, none, the line differs only in the rescores, and the report not at all."""
    _, files, fast = pipeline
    out = tmp_path / "out"
    shutil.copytree(pipeline[0], out)
    kg = load_dataset(files["train"], files["valid"], files["test"])
    test_pairs = {(h, t) for h, _, t in kg.test}
    outputs, rescored = [], []
    for scan_max_dim in (energy.SCAN_MAX_DIM, 0):
        monkeypatch.setattr(energy, "SCAN_MAX_DIM", scan_max_dim)
        before = (out / "metrics.jsonl").read_text().splitlines()
        capsys.readouterr()
        assert main(["eval", *data_flags(files), "--out", str(out), *fast]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "{" not in stdout
        outputs.append((stdout, (out / "eval_report.csv").read_bytes()))
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert lines[:-1] == before
        line = json.loads(lines[-1])
        assert set(line) == {
            "command", "test_pairs", "pairs", "pairs_without_paths", "paths",
            "paths_below_cutoff", "paths_over_cap", "blocks", "blocks_joined",
            "last_hop_gathered", "last_hop_kept", "fully_composed_frac", "residual_lengths",
            "entity_queries", "rescored", "seconds",
        }
        assert line["command"] == "eval"
        assert line["test_pairs"] == line["pairs"] == len(test_pairs)
        assert 0 < line["pairs"] - line["pairs_without_paths"] <= line["pairs"]
        assert line["blocks"] > 0 and line["blocks_joined"] <= line["blocks"]
        assert 0 < line["last_hop_kept"] <= line["last_hop_gathered"]
        assert 0.0 <= line["fully_composed_frac"] <= 1.0
        lengths = line["residual_lengths"]
        assert line["paths"] > 0 and sum(lengths.values()) == line["paths"]
        assert line["fully_composed_frac"] == lengths.get("1", 0) / line["paths"]
        assert line["entity_queries"] == 2 * len(kg.test)
        assert set(line["rescored"]) == {"total", "max"}
        assert 1 <= line["rescored"]["max"] <= kg.n_entities
        assert line["rescored"]["total"] <= line["entity_queries"] * kg.n_entities
        rescored.append(line["rescored"])
        seconds = dict(line["seconds"])
        shares = seconds.pop("entity_shares")
        blocks = seconds.pop("entity_blocks")
        assert set(seconds) == {
            "walk", "entity_ranking", "relation_ranking", "entity_query_p50", "entity_query_p90",
        }
        assert all(isinstance(v, float) and v >= 0 for v in seconds.values())
        assert seconds["entity_query_p50"] <= seconds["entity_query_p90"]
        # the toy's 40 test triples are ranked in one process, as one claim block
        assert len(shares) == len(blocks) == 1 and isinstance(shares[0], float)
        assert 0 <= shares[0] <= seconds["entity_ranking"]
        assert sum(blocks) == 1
    assert outputs[0] == outputs[1]
    assert rescored[0]["total"] < rescored[1]["total"] == 2 * len(kg.test) * kg.n_entities
    assert main(["eval", *data_flags(files), "--out", str(out), *fast, "--alpha1", "0"]) == EXIT_OK
    skipped = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
    assert skipped["test_pairs"] == len(test_pairs)
    assert skipped["pairs"] == skipped["paths"] == skipped["blocks"] == 0
    capsys.readouterr()


def test_scoring_reads_checkpoint_without_copying(pipeline, tmp_path, capsys, monkeypatch):
    """eval and explain score from read-only views of the checkpoint, with the
    outputs that writeable copies give."""
    _, files, fast = pipeline
    out = tmp_path / "out"
    shutil.copytree(pipeline[0], out)
    common = [*data_flags(files), "--out", str(out), *fast]
    explain = ["explain", *common, "--machine", "country_0", "country_1"]
    emb = model.load_checkpoint(out / "checkpoint.bin")[0]
    for table in (emb.entities, emb.relations):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    capsys.readouterr()
    outputs = []
    for copies in (False, True):
        if copies:
            real = cli.load_checkpoint

            def copying(*args, **kwargs):
                table, *rest = real(*args, **kwargs)
                return (model.EmbeddingTable(table.entities.copy(), table.relations.copy()), *rest)

            monkeypatch.setattr(cli, "load_checkpoint", copying)
        assert main(["eval", *common]) == EXIT_OK
        assert main(explain) == EXIT_OK
        outputs.append((capsys.readouterr().out, (out / "eval_report.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_train_appends_composition_metrics(toy_dir, tmp_path, capsys):
    """train appends one line of composition metrics from the compile step; its
    stdout is the same as without the metrics file."""
    _, files = toy_dir
    out = tmp_path / "out"
    common = [*data_flags(files), "--out", str(out), "--dim", "8", "--epochs", "1",
              "--batches", "5"]
    assert main(["extract-paths", *common]) == EXIT_OK
    assert main(["encode-rules", *common]) == EXIT_OK
    capsys.readouterr()
    assert main(["train", *common]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "{" not in stdout
    lines = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert [line["command"] for line in lines] == ["extract-paths", "train", "train"]
    assert "epoch" in lines[2]
    metrics = lines[1]
    assert set(metrics) == {
        "command", "paths", "fully_composed_frac", "residual_lengths", "rule_applications",
        "seconds",
    }
    # the planner's planning, the batch loop's waiting for spans (the first one
    # included) and the batch loop
    seconds = metrics["seconds"]
    assert set(seconds) == {"planning", "span_wait", "first_span_wait", "batch_loop"}
    assert all(isinstance(s, float) and s >= 0.0 for s in seconds.values())
    assert seconds["first_span_wait"] <= seconds["span_wait"] <= seconds["batch_loop"]
    n_paths = load_path_set(out / "paths.bin").n_paths
    assert metrics["paths"] == n_paths > 0
    assert 0.0 <= metrics["fully_composed_frac"] <= 1.0
    lengths = metrics["residual_lengths"]
    assert set(lengths) <= {"1", "2"} and sum(lengths.values()) == n_paths
    assert metrics["fully_composed_frac"] == lengths.get("1", 0) / n_paths
    encoded = (out / "encoded_rules.tsv").read_text().splitlines()
    rules = {line.partition("\t")[0] for line in encoded}
    assert metrics["rule_applications"] and set(metrics["rule_applications"]) <= rules
    assert all(isinstance(n, int) and n > 0 for n in metrics["rule_applications"].values())
    # a path is fully composed only through a rule, and one 2-step path applies at most one
    assert sum(metrics["rule_applications"].values()) == lengths.get("1", 0)
    assert main(["train", *common]) == EXIT_OK
    assert capsys.readouterr().out == stdout


def test_train_appends_epoch_metrics(toy_dir, tmp_path, capsys):
    """train appends one line per epoch: per loss term the draws planned, the
    give-ups and the active hinges, and the entity rows projected."""
    _, files = toy_dir
    out = tmp_path / "out"
    common = [*data_flags(files), "--out", str(out), "--dim", "8", "--epochs", "3",
              "--batches", "5"]
    assert main(["encode-rules", *common]) == EXIT_OK
    capsys.readouterr()
    assert main(["train", *common]) == EXIT_OK
    stdout = capsys.readouterr().out
    lines = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    epochs = [line for line in lines if "epoch" in line]
    assert [line["epoch"] for line in epochs] == [0, 1, 2]
    assert all(line["command"] == "train" for line in epochs)
    kg = load_dataset(files["train"], files["valid"], files["test"])
    for line in epochs:
        assert set(line) == {"command", "epoch", "triple", "path", "relpair",
                             "entity_rows_projected"}
        assert line["triple"]["draws"] == 3 * len(kg.train)
        for term in ("triple", "path", "relpair"):
            counts = line[term]
            assert counts["giveups"] + counts["hinges"] == counts["draws"]
            assert 0 <= counts["active"] <= counts["hinges"]
            assert 0.0 <= counts["giveup_frac"] <= 1.0 and 0.0 <= counts["active_frac"] <= 1.0
            assert counts["active_frac"] == (counts["active"] / counts["hinges"]
                                             if counts["hinges"] else 0.0)
        assert line["path"]["draws"] > 0 and line["relpair"]["draws"] > 0
        assert line["triple"]["active"] > 0
        assert isinstance(line["entity_rows_projected"], int)
        assert line["entity_rows_projected"] >= 0
    # the draws per term are fixed by the graph, paths and rules
    assert len({json.dumps([line[t]["draws"] for t in ("triple", "path", "relpair")])
                for line in epochs}) == 1
    assert epochs[0]["entity_rows_projected"] > 0  # updates push rows out of the ball
    assert main(["train", *common]) == EXIT_OK
    assert capsys.readouterr().out == stdout


def test_train_in_a_fresh_interpreter_writes_the_same_checkpoint(toy_dir, tmp_path, capsys):
    """``python -m rpje.cli train``, run as a process of its own as a user runs
    it, exits 0 and writes the checkpoint of the in-process run, byte for byte."""
    _, files = toy_dir
    flags = [*data_flags(files), "--dim", "16", "--epochs", "5", "--batches", "10"]
    in_process, fresh = tmp_path / "in-process", tmp_path / "fresh"
    assert main(["train", *flags, "--out", str(in_process)]) == EXIT_OK
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run(
        [sys.executable, "-m", "rpje.cli", "train", *flags, "--out", str(fresh)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout == capsys.readouterr().out.replace(str(in_process), str(fresh))
    checkpoint = (in_process / "checkpoint.bin").read_bytes()
    assert (fresh / "checkpoint.bin").read_bytes() == checkpoint


def test_split_walk_in_a_fresh_interpreter_writes_the_same_cache(tmp_path, monkeypatch, capsys):
    """``python -m rpje.cli extract-paths`` on the hub-paths graph, whose 3-step
    walk of 49 blocks splits across the CPUs of any machine with more than one,
    writes the ``paths.bin`` bytes, the stdout and the metric counts of an
    in-process run kept in one process."""
    _, cfg = workloads.write_workload(workloads.WORKLOADS["hub-paths"], str(tmp_path / "data"))
    cpus = forked.cpus()
    in_process, fresh = tmp_path / "in-process", tmp_path / "fresh"
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    assert main(["extract-paths", "--config", cfg, "--out", str(in_process)]) == EXIT_OK
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run(
        [sys.executable, "-m", "rpje.cli", "extract-paths", "--config", cfg, "--out", str(fresh)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout == capsys.readouterr().out.replace(str(in_process), str(fresh))
    assert (fresh / "paths.bin").read_bytes() == (in_process / "paths.bin").read_bytes()
    one, split = (json.loads((out / "metrics.jsonl").read_text()) for out in (in_process, fresh))
    assert one["blocks"] == 49 and len(one["seconds"]["shares"]) == 1
    assert (len(split["seconds"]["shares"]) > 1) == (cpus > 1)
    assert {**one, "seconds": None} == {**split, "seconds": None}


def test_split_ranking_in_a_fresh_interpreter_writes_the_same_report(tmp_path, monkeypatch,
                                                                     capsys):
    """``python -m rpje.cli eval`` on the wide-eval graph, whose 640 test triples
    split across the CPUs of any machine with more than one, writes the
    ``eval_report.csv`` bytes, the stdout and the metric counts of an in-process
    run kept in one process."""
    _, cfg = workloads.write_workload(workloads.WORKLOADS["wide-eval"], str(tmp_path / "data"))
    cpus = forked.cpus()
    in_process, fresh = tmp_path / "in-process", tmp_path / "fresh"
    for command in ("encode-rules", "extract-paths", "train"):
        assert main([command, "--config", cfg, "--out", str(in_process)]) == EXIT_OK
    shutil.copytree(in_process, fresh)
    capsys.readouterr()
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    assert main(["eval", "--config", cfg, "--out", str(in_process)]) == EXIT_OK
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run(
        [sys.executable, "-m", "rpje.cli", "eval", "--config", cfg, "--out", str(fresh)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout == capsys.readouterr().out
    report = (in_process / "eval_report.csv").read_bytes()
    assert (fresh / "eval_report.csv").read_bytes() == report
    one, split = (json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
                  for out in (in_process, fresh))
    assert one["entity_queries"] == 2 * 640 and len(one["seconds"]["entity_shares"]) == 1
    assert (len(split["seconds"]["entity_shares"]) > 1) == (cpus > 1)
    claims = -(-640 // evaluation._CLAIM_TRIPLES) if cpus > 1 else 1
    assert sum(split["seconds"]["entity_blocks"]) == claims
    assert {**one, "seconds": None} == {**split, "seconds": None}


def test_small_walks_start_no_process(toy_dir, tmp_path, monkeypatch):
    """With every fork but the span planner's refused, the toy pipeline and
    ``explain`` still exit 0: their walks, the one-pair walk among them, are
    too small to split, and ``train`` forks its planner alone."""
    _, files = toy_dir
    common = [*data_flags(files), "--out", str(tmp_path), "--dim", "16", "--epochs", "2"]
    real_child, started = forked.Child, []

    def child(what, *args):
        started.append(what)
        if what != "span planner":
            raise AssertionError(f"{what} was forked")
        return real_child(what, *args)

    monkeypatch.setattr(forked, "Child", child)
    for command in ("encode-rules", "extract-paths", "train", "eval"):
        assert main([command, *common]) == EXIT_OK, command
    assert main(["explain", *common, "country_0", "country_1"]) == EXIT_OK
    assert started == ["span planner"]
