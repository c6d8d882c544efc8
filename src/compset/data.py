"""Tensor container, dataset manifests, and the synthetic compositional task.

Container layout (little-endian throughout)::

    bytes 0..3   magic "CKAT"
    u32          version (currently 1)
    u32          dtype code (1 = float32, 2 = float64)
    u32          ndim
    u32 * ndim   dims
    payload      row-major values, prod(dims) * itemsize bytes

Files starting with the numpy magic (\\x93NUMPY) are read through
``numpy.load`` instead, as an import path; writing always produces the
native container.

A dataset on disk is a directory of per-(session, split) tensor stacks plus
``manifest.json`` describing classes, sample rows, labels, and (for
synthetic data) ground-truth annotations.
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    BadVersion,
    InvalidInput,
    TruncatedPayload,
    UnknownDtype,
)
from .seeding import substream

MAGIC = b"CKAT"
VERSION = 1
_NUMPY_MAGIC = b"\x93NUMPY"
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_OF_KIND = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_MAX_NDIM = 32


def write_atomic(path, *parts) -> None:
    """Give path its new contents all at once: write each part (str as
    UTF-8, or anything with a contiguous buffer, written without a copy)
    in turn to a sibling temp file, then os.replace it over path.  A write
    that fails part-way leaves the previous file byte-identical and no
    temp file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as f:
            for part in parts:
                f.write(part.encode() if isinstance(part, str) else part)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_tensor(path, tensor) -> None:
    """Write a float32/float64 array to the binary container: the header,
    then the array's own buffer."""
    arr = np.ascontiguousarray(tensor)
    code = _CODE_OF_KIND.get(arr.dtype.newbyteorder("="))
    if code is None:
        raise UnknownDtype(f"only float32/float64 tensors are stored, got {arr.dtype}")
    if arr.ndim < 1 or arr.ndim > _MAX_NDIM:
        raise InvalidInput(f"ndim must be in [1, {_MAX_NDIM}], got {arr.ndim}")
    if any(s < 1 for s in arr.shape):
        raise InvalidInput(f"every dim must be >= 1, got {arr.shape}")
    header = MAGIC + struct.pack("<III", VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype(_DTYPE_CODES[code], copy=False)
    write_atomic(path, header, memoryview(payload).cast("B"))


def read_tensor(path) -> np.ndarray:
    """Read a container (or .npy) file back into a writable array.

    The payload's length is checked against the file's size before the
    array is allocated, and then read straight into it."""
    with Path(path).open("rb") as f:
        head = f.read(16)
        if head[:6] == _NUMPY_MAGIC:
            return _read_npy(path)
        if head[:4] != MAGIC:
            raise BadMagic(f"{path}: not a tensor container (magic {head[:4]!r})")
        if len(head) < 16:
            raise TruncatedPayload(f"{path}: header cut short at {len(head)} bytes")
        version, code, ndim = struct.unpack_from("<III", head, 4)
        if version != VERSION:
            raise BadVersion(f"{path}: version {version} is not supported")
        if code not in _DTYPE_CODES:
            raise UnknownDtype(f"{path}: dtype code {code} is not registered")
        if ndim < 1 or ndim > _MAX_NDIM:
            raise TruncatedPayload(f"{path}: implausible ndim {ndim}")
        raw_dims = f.read(4 * ndim)
        if len(raw_dims) < 4 * ndim:
            raise TruncatedPayload(f"{path}: dims cut short")
        dims = struct.unpack(f"<{ndim}I", raw_dims)
        if any(s < 1 for s in dims):
            raise TruncatedPayload(f"{path}: zero-sized dim in {dims}")
        dtype = _DTYPE_CODES[code]
        need = int(np.prod([int(s) for s in dims], dtype=object)) * dtype.itemsize
        have = os.fstat(f.fileno()).st_size - (16 + 4 * ndim)
        if have != need:
            raise TruncatedPayload(f"{path}: payload holds {have} bytes, header promises {need}")
        arr = np.empty(dims, dtype=dtype)
        got = f.readinto(memoryview(arr).cast("B"))
        if got != need:
            raise TruncatedPayload(f"{path}: payload holds {got} bytes, header promises {need}")
    return arr


def _read_npy(path) -> np.ndarray:
    try:
        arr = np.load(path)
    except ValueError as e:
        raise InvalidInput(f"{path}: unreadable .npy file ({e})") from None
    if arr.dtype.kind not in "biuf":  # complex, strings, records: no real tensor
        raise UnknownDtype(f"{path}: .npy dtype {arr.dtype} is not a real number type")
    if arr.ndim < 1:
        raise InvalidInput(f"{path}: a .npy tensor needs ndim >= 1, got 0")
    return arr


@dataclass
class FeatureBatch:
    """A stack of equally-shaped feature maps with per-sample metadata."""

    X: np.ndarray  # (B, n, d) float64
    labels: np.ndarray  # (B,) int64
    sessions: np.ndarray  # (B,) int64
    sample_ids: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.sessions = np.asarray(self.sessions, dtype=np.int64)
        if self.X.ndim != 3:
            raise InvalidInput(f"X must be (B, n, d), got shape {self.X.shape}")
        b = self.X.shape[0]
        if not (len(self.labels) == len(self.sessions) == len(self.sample_ids) == b):
            raise InvalidInput("batch metadata lengths disagree with X")

    def __len__(self) -> int:
        return self.X.shape[0]

    def subset(self, idx) -> "FeatureBatch":
        idx = np.asarray(idx)
        if idx.dtype == bool:
            if idx.shape != (len(self),):
                raise InvalidInput(
                    f"boolean mask of shape {idx.shape} cannot select from {len(self)} samples"
                )
            idx = np.flatnonzero(idx)
        return FeatureBatch(
            X=self.X[idx],
            labels=self.labels[idx],
            sessions=self.sessions[idx],
            sample_ids=[self.sample_ids[int(i)] for i in idx],
        )

    @staticmethod
    def concat(batches: list["FeatureBatch"]) -> "FeatureBatch":
        if not batches:
            raise InvalidInput("cannot concatenate zero batches")
        return FeatureBatch(
            X=np.concatenate([b.X for b in batches], axis=0),
            labels=np.concatenate([b.labels for b in batches]),
            sessions=np.concatenate([b.sessions for b in batches]),
            sample_ids=[s for b in batches for s in b.sample_ids],
        )


@dataclass
class SynthConfig:
    """Knobs of the synthetic compositional task.

    A pool of ``pool_size`` nonnegative ground-truth primitive vectors is
    shared by all classes; each class composes ``primitives_per_class`` of
    them.  A sample is ``shared_patches`` noisy copies of its class's
    primitives plus ``distractor_patches`` off-class or pure-noise patches.
    Incremental classes must reuse at least one base-class primitive.
    """

    pool_size: int = 30
    primitives_per_class: int = 4
    shared_patches: int = 10
    distractor_patches: int = 6
    noise_sigma: float = 0.1
    channels: int = 32
    base_classes: int = 20
    incremental_sessions: int = 2
    classes_per_session: int = 5
    shots: int = 5
    test_per_class: int = 50
    train_per_base_class: int = 50
    seed: int = 0

    def validate(self) -> None:
        if self.primitives_per_class > self.pool_size:
            raise InvalidInput("primitives_per_class cannot exceed pool_size")
        if self.primitives_per_class < 1 or self.pool_size < 2:
            raise InvalidInput("need a pool of >= 2 and >= 1 primitive per class")
        if self.shared_patches + self.distractor_patches < 1:
            raise InvalidInput("samples need at least one patch")
        if self.shared_patches < 1:
            raise InvalidInput("samples need at least one shared patch")
        if self.channels < 2:
            raise InvalidInput("need >= 2 channels")
        if self.base_classes < 2:
            raise InvalidInput("need >= 2 base classes")
        if self.incremental_sessions < 0 or self.classes_per_session < 1:
            raise InvalidInput("bad session layout")
        if min(self.shots, self.test_per_class, self.train_per_base_class) < 1:
            raise InvalidInput("per-class sample counts must be >= 1")
        if self.noise_sigma < 0.0:
            raise InvalidInput("noise_sigma must be >= 0")

    @property
    def patches(self) -> int:
        return self.shared_patches + self.distractor_patches

    @property
    def n_classes(self) -> int:
        return self.base_classes + self.incremental_sessions * self.classes_per_session

    @property
    def n_sessions(self) -> int:
        return 1 + self.incremental_sessions


@dataclass
class SynthDataset:
    """Generated (or loaded) task: per-session train/test batches + truth."""

    config: SynthConfig
    pool: np.ndarray  # (pool_size, channels)
    class_sessions: dict[int, int]
    class_primitives: dict[int, list[int]]
    train: dict[int, FeatureBatch] = field(default_factory=dict)
    test: dict[int, FeatureBatch] = field(default_factory=dict)
    patch_annotations: dict[str, dict] = field(default_factory=dict)

    @property
    def n_sessions(self) -> int:
        return len(self.train)

    def classes_of_session(self, session: int) -> list[int]:
        return sorted(c for c, s in self.class_sessions.items() if s == session)


def _sample_patches(cfg, pool, rng, own, n_samples):
    """Draw n_samples maps for one class; returns (X, annotations)."""
    others = [j for j in range(cfg.pool_size) if j not in set(own)]
    maps = np.empty((n_samples, cfg.patches, cfg.channels))
    notes = []
    for s in range(n_samples):
        sources = np.full(cfg.patches, -1, dtype=np.int64)
        shared_flag = np.zeros(cfg.patches, dtype=bool)
        patches = np.empty((cfg.patches, cfg.channels))
        for p in range(cfg.shared_patches):
            src = own[int(rng.integers(len(own)))]
            patches[p] = np.abs(pool[src] + cfg.noise_sigma * rng.standard_normal(cfg.channels))
            sources[p] = src
            shared_flag[p] = True
        for p in range(cfg.shared_patches, cfg.patches):
            if others and rng.random() < 0.5:
                src = others[int(rng.integers(len(others)))]
                patches[p] = np.abs(pool[src] + cfg.noise_sigma * rng.standard_normal(cfg.channels))
                sources[p] = src
            else:
                patches[p] = np.abs(rng.standard_normal(cfg.channels))
        order = rng.permutation(cfg.patches)
        maps[s] = patches[order]
        notes.append(
            {
                "pool_index": [int(v) for v in sources[order]],
                "shared": [int(i) for i in np.flatnonzero(shared_flag[order])],
            }
        )
    return maps, notes


def synth_generate(cfg: SynthConfig) -> SynthDataset:
    """Deterministically generate the synthetic task for cfg.seed.

    Pool vectors are half-normal so every patch is nonnegative and, at
    noise_sigma = 0, a shared patch equals its pool vector bit-for-bit
    (|v + 0| = v for v >= 0).
    """
    cfg.validate()
    pool = np.abs(substream(cfg.seed, "pool").standard_normal((cfg.pool_size, cfg.channels)))

    class_sessions: dict[int, int] = {}
    for c in range(cfg.base_classes):
        class_sessions[c] = 0
    nxt = cfg.base_classes
    for k in range(1, cfg.n_sessions):
        for _ in range(cfg.classes_per_session):
            class_sessions[nxt] = k
            nxt += 1

    rng_cls = substream(cfg.seed, "class-primitives")
    class_primitives: dict[int, list[int]] = {}
    base_union: set[int] = set()
    for c in sorted(class_sessions):
        picks = rng_cls.choice(cfg.pool_size, size=cfg.primitives_per_class, replace=False)
        picks = [int(v) for v in picks]
        if class_sessions[c] == 0:
            base_union.update(picks)
        elif base_union and not (set(picks) & base_union):
            # novel classes must reuse base vocabulary
            slot = int(rng_cls.integers(cfg.primitives_per_class))
            picks[slot] = int(rng_cls.choice(sorted(base_union)))
        class_primitives[c] = picks

    ds = SynthDataset(
        config=cfg,
        pool=pool,
        class_sessions=class_sessions,
        class_primitives=class_primitives,
    )
    for k in range(cfg.n_sessions):
        cls_ids = ds.classes_of_session(k)
        for split, count in (("train", cfg.train_per_base_class if k == 0 else cfg.shots), ("test", cfg.test_per_class)):
            xs, labels, ids, notes_all = [], [], [], []
            for c in cls_ids:
                rng = substream(cfg.seed, f"samples-{split}", c)
                maps, notes = _sample_patches(cfg, pool, rng, class_primitives[c], count)
                for i in range(count):
                    sid = f"s{k}-{split}-c{c:03d}-{i:04d}"
                    ids.append(sid)
                    ds.patch_annotations[sid] = notes[i]
                xs.append(maps)
                labels.extend([c] * count)
            batch = FeatureBatch(
                X=np.concatenate(xs, axis=0),
                labels=np.array(labels),
                sessions=np.full(len(labels), k),
                sample_ids=ids,
            )
            if split == "train":
                ds.train[k] = batch
            else:
                ds.test[k] = batch
    return ds


MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "compset-dataset"
MANIFEST_SCHEMA = {
    "format": str, "version": int, "seed": int, "config": dict, "pool_file": str,
    "classes": [{"id": int, "session": int}],
    "samples": [{"id": str, "path": str, "row": int, "label": int, "session": int, "split": str}],
    "annotations": {"class_primitives": {int: [int]}, "patches": {str: dict}},
}


def require_key(doc: dict, key: str, where) -> object:
    """Fetch a required key from a JSON document, naming the file on failure."""
    if key not in doc:
        raise InvalidInput(f"{where}: missing required key {key!r}")
    return doc[key]


def check_json(value, schema, where, path: str = "$") -> None:
    """Raise InvalidInput unless a parsed JSON value has the schema's types.

    A schema is int, float, bool or str (a bool is no number; an int passes
    as a float), [item] for a list, {int: item} or {str: item} for an object
    keyed by decimal integers or by any string, or a dict of named keys,
    each checked when present."""
    if type(value) is schema:  # a leaf of the exact type, the common case
        return
    kind = type(schema) if isinstance(schema, (list, dict)) else schema
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise InvalidInput(f"{where}: malformed {path}: expected {kind.__name__}, got {value!r:.60}")
    if isinstance(schema, list):
        for i, item in enumerate(value):
            check_json(item, schema[0], where, f"{path}[{i}]")
    elif isinstance(schema, dict):
        any_key = schema.get(int, schema.get(str))
        for k, item in value.items():
            if int in schema and not re.fullmatch(r"-?[0-9]+", k):
                raise InvalidInput(f"{where}: malformed {path}: key {k!r} is not an integer")
            if any_key is not None or k in schema:
                check_json(item, schema.get(k, any_key), where, f"{path}.{k}")


_FIELD_KINDS = {"int": int, "float": float, "bool": bool, "str": str}


def json_fields(cls, section, where) -> dict:
    """A JSON object's settings for dataclass cls, checked: an unknown key
    or a value whose JSON type is not its field's raises InvalidInput."""
    kinds = {f.name: _FIELD_KINDS[f.type] for f in fields(cls)}
    check_json(section, kinds, where)
    unknown = set(section) - set(kinds)
    if unknown:
        raise InvalidInput(f"{where}: unknown {cls.__name__} keys {sorted(unknown)}")
    return section


def save_dataset(ds: SynthDataset, outdir) -> Path:
    """Write tensors plus manifest.json; returns the manifest path."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_tensor(out / "pool.ckat", ds.pool)
    samples = []
    for split, table in (("train", ds.train), ("test", ds.test)):
        for k, batch in sorted(table.items()):
            fname = f"session{k}_{split}.ckat"
            write_tensor(out / fname, batch.X)
            for row in range(len(batch)):
                samples.append(
                    {
                        "id": batch.sample_ids[row],
                        "path": fname,
                        "row": row,
                        "label": int(batch.labels[row]),
                        "session": int(batch.sessions[row]),
                        "split": split,
                    }
                )
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": 1,
        "seed": ds.config.seed,
        "config": asdict(ds.config),
        "classes": [
            {"id": c, "session": s} for c, s in sorted(ds.class_sessions.items())
        ],
        "pool_file": "pool.ckat",
        "samples": samples,
        "annotations": {
            "class_primitives": {str(c): v for c, v in sorted(ds.class_primitives.items())},
            "patches": {k: ds.patch_annotations[k] for k in sorted(ds.patch_annotations)},
        },
    }
    path = out / MANIFEST_NAME
    write_atomic(path, json.dumps(manifest, indent=2, sort_keys=False) + "\n")
    return path


def load_dataset(directory) -> SynthDataset:
    """Load a dataset directory written by save_dataset (or compatible)."""
    root = Path(directory)
    mpath = root / MANIFEST_NAME
    if not mpath.exists():
        raise InvalidInput(f"{root}: no {MANIFEST_NAME}")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as e:
        raise InvalidInput(f"{mpath}: manifest is not valid JSON ({e})") from None
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise InvalidInput(f"{mpath}: unrecognized manifest format")
    check_json(manifest, MANIFEST_SCHEMA, mpath)
    cfg = SynthConfig(**json_fields(SynthConfig, require_key(manifest, "config", mpath), mpath))
    cfg.validate()
    pool = read_tensor(root / manifest.get("pool_file", "pool.ckat")).astype(np.float64, copy=False)
    classes = require_key(manifest, "classes", mpath)
    samples = require_key(manifest, "samples", mpath)
    ann = manifest.get("annotations", {})
    class_primitives = {int(c): v for c, v in ann.get("class_primitives", {}).items()}
    try:
        class_sessions = {e["id"]: e["session"] for e in classes}
        grouped: dict[tuple[int, str], list[dict]] = {}
        for s in samples:
            if s["split"] not in ("train", "test"):
                raise InvalidInput(f"{mpath}: sample split {s['split']!r} is neither train nor test")
            grouped.setdefault((s["session"], s["split"]), []).append(s)
    except KeyError as e:
        raise InvalidInput(f"{mpath}: malformed class or sample entry ({e!r})") from None
    ds = SynthDataset(
        config=cfg,
        pool=pool,
        class_sessions=class_sessions,
        class_primitives=class_primitives,
        patch_annotations=dict(ann.get("patches", {})),
    )
    tensors: dict[str, np.ndarray] = {}
    for (k, split), rows in sorted(grouped.items()):
        try:
            rows.sort(key=lambda r: r["row"])
            fname = rows[0]["path"]
            if any(r["path"] != fname for r in rows):
                raise InvalidInput(f"{mpath}: session {k} {split} spans multiple files")
            if fname not in tensors:
                tensors[fname] = read_tensor(root / fname).astype(np.float64, copy=False)
            stack = tensors[fname]
            if [r["row"] for r in rows] != list(range(len(rows))) or len(rows) != stack.shape[0]:
                raise InvalidInput(f"{mpath}: rows of {fname} are not a dense 0..{stack.shape[0]-1}")
            batch = FeatureBatch(
                X=stack,
                labels=np.array([r["label"] for r in rows]),
                sessions=np.full(len(rows), k),
                sample_ids=[r["id"] for r in rows],
            )
        except KeyError as e:
            raise InvalidInput(f"{mpath}: sample entry missing key {e.args[0]!r}") from None
        (ds.train if split == "train" else ds.test)[k] = batch
    if 0 not in ds.train:
        raise InvalidInput(f"{mpath}: dataset has no base-session train split")
    return ds
