"""Embedding table, training hyperparameters and checkpoints (``checkpoint.bin``, in
the ``artifacts`` layout); the energies are in ``energy``."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .artifacts import read_arrays, write_arrays
from .energy import NORMS
from .kg import KnowledgeGraph
from .paths import DEFAULT_CUTOFF, DEFAULT_MAX_STEPS, DEFAULT_PER_PAIR_CAP


class ConfigError(ValueError):
    """Bad config file or option value."""


@dataclass
class TrainingConfig:
    """Hyperparameters; defaults follow the best reported experimental settings."""

    dim: int = 100
    lr: float = 0.001
    epochs: int = 500
    n_batches: int = 100
    margin_triple: float = 1.0   # gamma_1
    margin_path: float = 1.0     # gamma_2
    margin_relpair: float = 1.0  # gamma_3
    alpha_paths: float = 1.0     # alpha_1; 0 drops E2/L2 (the -PaRu2 ablation)
    alpha_relpairs: float = 3.0  # alpha_2; 0 drops E3/L3 (the -Ru1 ablation)
    norm: str = "L1"
    confidence_threshold: float = 0.7
    max_path_steps: int = DEFAULT_MAX_STEPS
    path_cutoff: float = DEFAULT_CUTOFF
    per_pair_cap: int = DEFAULT_PER_PAIR_CAP
    seed: int = 0

    def validate(self) -> None:
        if self.dim <= 0:
            raise ConfigError("dim must be positive")
        if not 0.0 < self.lr < math.inf:  # NaN fails too
            raise ConfigError("lr must be positive and finite")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.n_batches < 1:
            raise ConfigError("n_batches must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for name in ("margin_triple", "margin_path", "margin_relpair"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ConfigError(f"{name} must be positive and finite")
        for name in ("alpha_paths", "alpha_relpairs"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be non-negative and finite")
        if self.norm not in NORMS:
            raise ConfigError(f"norm must be L1 or L2, got {self.norm!r}")
        if self.max_path_steps not in (2, 3):
            raise ConfigError("max_path_steps must be 2 or 3")
        if not 0.0 <= self.path_cutoff < 1.0:
            raise ConfigError("path_cutoff must lie in [0,1)")
        if not 0 <= self.per_pair_cap < 2**32:  # paths.bin stores it as uint32
            raise ConfigError("per_pair_cap must lie in [0, 2^32)")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigError("confidence_threshold must lie in [0,1]")


class EmbeddingTable:
    """Dense entity/base-relation vectors; inverse relations are served negated."""

    def __init__(self, entities: np.ndarray, relations: np.ndarray):
        self.entities = entities
        self.relations = relations

    @property
    def dim(self) -> int:
        return self.entities.shape[1]

    @property
    def n_entities(self) -> int:
        return self.entities.shape[0]

    @property
    def n_base_relations(self) -> int:
        return self.relations.shape[0]

    def relation_vec(self, r: int) -> np.ndarray:
        n = self.n_base_relations
        if r >= n:
            return -self.relations[r - n]
        return self.relations[r]


def init_embeddings(kg: KnowledgeGraph, cfg: TrainingConfig) -> EmbeddingTable:
    """Uniform in [-6/sqrt(d), 6/sqrt(d)] per coordinate, then row-normalized."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    bound = 6.0 / np.sqrt(cfg.dim)

    def sample(n):
        m = rng.uniform(-bound, bound, size=(n, cfg.dim))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        return m

    return EmbeddingTable(sample(kg.n_entities), sample(kg.n_base_relations))


_CKPT_MAGIC = b"RPJECKPT"
_CKPT_VERSION = 3  # 2: the header holds the training norm; 3: the dataset hash covers row order
# version, dim, entity and relation counts, dataset hash, norm; then the entity
# and the relation rows as float64, which need no padding after these 56 bytes
_CKPT_HEADER = struct.Struct("<H3I32s2s")


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint."""


def save_checkpoint(emb: EmbeddingTable, dataset_hash: str, norm: str, path) -> None:
    fields = (_CKPT_VERSION, emb.dim, emb.n_entities, emb.n_base_relations,
              bytes.fromhex(dataset_hash), norm.encode("ascii"))
    write_arrays(path, _CKPT_MAGIC, _CKPT_HEADER, fields,
                 (np.asarray(emb.entities, "<f8"), np.asarray(emb.relations, "<f8")))


def _checkpoint_layout(fields) -> list[tuple[str, int]]:
    version, dim, n_ent, n_rel = fields[:4]
    if version != _CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if dim < 1:  # a table of no dimensions scores nothing
        raise CheckpointError(f"checkpoint dimension {dim} is not positive")
    return [("<f8", dim * n_ent), ("<f8", dim * n_rel)]


def load_checkpoint(path, expected_dataset_hash: str | None = None) -> tuple[EmbeddingTable, str, str]:
    """Returns (table, dataset_hash, norm); scoring uses the norm the table was trained with.

    The table's arrays are read-only views of the file's bytes: scoring only reads them.
    A table holding a NaN or an infinite value is refused: it can rank nothing.
    """
    fields, (ents, rels) = read_arrays(
        path, _CKPT_MAGIC, _CKPT_HEADER, _checkpoint_layout, CheckpointError
    )
    _, dim, n_ent, n_rel, ds_hash, norm = fields
    ds_hash, norm = ds_hash.hex(), norm.decode("ascii", errors="replace")
    if expected_dataset_hash is not None and ds_hash != expected_dataset_hash:
        raise CheckpointError(f"{path}: checkpoint built for a different dataset")
    if norm not in NORMS:
        raise CheckpointError(f"{path}: unknown norm {norm!r} in checkpoint")
    # A minimum and a maximum carry a NaN through and show an infinity, with no
    # bool array as ``isfinite`` makes; the initial 0 passes an empty array.
    extremes = (reduce(initial=0.0) for a in (ents, rels) for reduce in (a.min, a.max))
    if not all(map(math.isfinite, extremes)):
        raise CheckpointError(f"{path}: a value is not finite")
    return EmbeddingTable(ents.reshape(n_ent, dim), rels.reshape(n_rel, dim)), ds_hash, norm
