"""Per-class primitive sets: initialization, growth, and replacement.

A bank holds one (N, d) block of primitive vectors per registered class,
in ascending class-id order, with a frozen flag per block.  Replacement
builds, for each class, the set obtained by rewriting every primitive as
an attention-weighted mixture of *donor* primitives (softmax over negative
squared distances); at sharp attention this degenerates to copying the
nearest donor, which is also available directly as a hard, ratio-
controlled edit used by the reuse analysis.

Both nearest-row searches here, the Lloyd assignment of k-means init and
the hard replacement, go through ``numkit._nearest_rows``: GEMM-form
distances over blocks of query rows under a byte budget, with each row's
near-minimal candidates recomputed as the plain squared difference, so
argmins, lowest-index ties and copied bytes equal a brute-force search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InsufficientData, InvalidInput
from .numkit import _nearest_rows, _positions, as_matrix
from .seeding import substream


@dataclass
class PrimitiveBank:
    """Primitive blocks for every registered class, ascending class id."""

    class_ids: list[int]
    Z: np.ndarray  # (C, N, d) float64
    frozen: np.ndarray  # (C,) bool

    def __post_init__(self):
        self.Z = np.asarray(self.Z, dtype=np.float64)
        self.frozen = np.asarray(self.frozen, dtype=bool)
        if self.Z.ndim != 3:
            raise InvalidInput(f"Z must be (C, N, d), got {self.Z.shape}")
        if len(self.class_ids) != self.Z.shape[0] or len(self.frozen) != self.Z.shape[0]:
            raise InvalidInput("class_ids/frozen length disagrees with Z")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise InvalidInput("duplicate class ids in bank")
        if sorted(self.class_ids) != list(self.class_ids):
            raise InvalidInput("bank classes must be in ascending id order")
        if self.Z.shape[1] < 1 or self.Z.shape[2] < 2:
            raise InvalidInput("blocks need >= 1 primitive and >= 2 channels")

    @property
    def n_classes(self) -> int:
        return self.Z.shape[0]

    @property
    def n_primitives(self) -> int:
        return self.Z.shape[1]

    @property
    def channels(self) -> int:
        return self.Z.shape[2]

    def block(self, class_id: int) -> np.ndarray:
        return self.Z[_positions(self.class_ids, [class_id], "class")[0]]

    def copy(self) -> "PrimitiveBank":
        return PrimitiveBank(list(self.class_ids), self.Z.copy(), self.frozen.copy())


def kmeans_centers(points, k: int, rng: np.random.Generator, iters: int = 100) -> np.ndarray:
    """Deterministic Lloyd clustering of rows.

    The pool is canonicalized by a lexicographic row sort, so the result is
    invariant to input row order.  Init picks a seeded first center and then
    greedily the farthest point; ties always resolve to the lowest index.
    Exactly k distinct points reproduce themselves as centers.
    """
    pts = as_matrix(points, "points")
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if pts.shape[0] < k:
        raise InsufficientData(f"{pts.shape[0]} points cannot seed {k} centers")
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    npts = pts.shape[0]

    first = int(rng.integers(npts))
    chosen = [first]
    d2 = ((pts - pts[first]) ** 2).sum(axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    centers = pts[chosen].copy()

    for _ in range(iters):
        assign, dmin = _nearest_rows(pts, centers)
        new = centers.copy()
        taken: set[int] = set()
        for j in range(k):
            sel = assign == j
            if sel.any():
                new[j] = pts[sel].mean(axis=0)
            else:
                # empty cluster: seize the point farthest from every center
                far = np.argsort(-dmin)
                pick = next(int(i) for i in far if int(i) not in taken)
                taken.add(pick)
                new[j] = pts[pick]
        if np.array_equal(new, centers):
            break
        centers = new
    return centers


def init_primitive_bank(
    class_ids,
    n_primitives: int,
    channels: int,
    scheme: str = "gaussian",
    seed: int = 0,
    sigma: float = 0.1,
    patches_by_class: dict[int, np.ndarray] | None = None,
) -> PrimitiveBank:
    """Fresh unfrozen bank, one block per class.

    gaussian: i.i.d. N(0, sigma^2) entries from a per-class substream, so
    the same (seed, class) pair always yields the same block regardless of
    which other classes are present.  kmeans: cluster that class's patch
    pool into n_primitives centers.
    """
    ids = [int(c) for c in class_ids]
    if not ids:
        raise InvalidInput("need at least one class")
    if sorted(set(ids)) != sorted(ids):
        raise InvalidInput("duplicate class ids")
    ids = sorted(ids)
    if n_primitives < 1 or channels < 2:
        raise InvalidInput("need n_primitives >= 1 and channels >= 2")
    if scheme not in ("gaussian", "kmeans"):
        raise InvalidInput(f"unknown init scheme {scheme!r}")
    if scheme == "gaussian" and not sigma > 0.0:
        raise InvalidInput("gaussian init needs sigma > 0")

    blocks = np.empty((len(ids), n_primitives, channels))
    for i, c in enumerate(ids):
        if scheme == "gaussian":
            blocks[i] = sigma * substream(seed, "init-gauss", c).standard_normal(
                (n_primitives, channels)
            )
        else:
            if patches_by_class is None or c not in patches_by_class:
                raise InvalidInput(f"kmeans init needs patches for class {c}")
            pool = as_matrix(patches_by_class[c], f"patches[{c}]")
            if pool.shape[1] != channels:
                raise InvalidInput(f"class {c} patches have {pool.shape[1]} channels, want {channels}")
            if pool.shape[0] < n_primitives:
                raise InsufficientData(
                    f"class {c}: {pool.shape[0]} patches < {n_primitives} primitives"
                )
            blocks[i] = kmeans_centers(pool, n_primitives, substream(seed, "init-kmeans", c))
    return PrimitiveBank(ids, blocks, np.zeros(len(ids), dtype=bool))


def extend_bank(
    bank: PrimitiveBank,
    new_class_ids,
    patches_by_class: dict[int, np.ndarray] | None = None,
    scheme: str = "kmeans",
    seed: int = 0,
    sigma: float = 0.1,
) -> PrimitiveBank:
    """Bank grown by the new classes; existing blocks copied bit-for-bit
    and marked frozen, new blocks unfrozen."""
    new_ids = sorted(int(c) for c in new_class_ids)
    if len(set(new_ids)) != len(new_ids):
        raise InvalidInput("duplicate new class ids")
    clash = set(new_ids) & set(bank.class_ids)
    if clash:
        raise InvalidInput(f"classes already registered: {sorted(clash)}")
    if not new_ids:
        out = bank.copy()
        out.frozen[:] = True
        return out
    if any(c < max(bank.class_ids) for c in new_ids):
        raise InvalidInput("new class ids must come after all existing ones")
    fresh = init_primitive_bank(
        new_ids,
        bank.n_primitives,
        bank.channels,
        scheme=scheme,
        seed=seed,
        sigma=sigma,
        patches_by_class=patches_by_class,
    )
    return PrimitiveBank(
        class_ids=list(bank.class_ids) + new_ids,
        Z=np.concatenate([bank.Z, fresh.Z], axis=0),
        frozen=np.concatenate([np.ones(bank.n_classes, dtype=bool), fresh.frozen]),
    )


@dataclass
class ReplacedBank:
    """Attention-rewritten blocks plus the attention that produced them.

    donor_rows[i] are flat indices into bank.Z.reshape(C*N, d) so gradients
    can be scattered back to the donors.
    """

    class_ids: list[int]
    Z_hat: np.ndarray  # (C, N, d)
    attention: list[np.ndarray]  # per class (N, M_c)
    donor_rows: list[np.ndarray]  # per class (M_c,) int

    def block(self, class_id: int) -> np.ndarray:
        return self.Z_hat[_positions(self.class_ids, [class_id], "class")[0]]


def _attention_weights(targets: np.ndarray, donors: np.ndarray, gamma: float) -> np.ndarray:
    """softmax_k(gamma * -(||t_i - d_k||^2)) rows; rows sum to 1.

    Weights below the smallest normal float are flushed to 0: at sharp
    attention many are subnormal, and arithmetic on subnormals is slow in
    the products that use them.  exp is skipped where its result would be
    0 or subnormal, where NumPy's exp is also slow.  A flushed term is
    below an ulp of any sum that also holds a normal term, so only a sum of
    flushed terms alone changes: it becomes 0 instead of a few times the
    smallest normal.
    """
    diff = targets[:, None, :] - donors[None, :, :]
    sq = np.einsum("ikd,ikd->ik", diff, diff)
    z = -gamma * sq
    z -= z.max(axis=1, keepdims=True)
    tiny = np.finfo(np.float64).tiny
    e = np.exp(z, out=np.zeros_like(z), where=z >= np.log(tiny))
    att = e / e.sum(axis=1, keepdims=True)
    att[att < tiny] = 0.0
    return att


def build_replaced(
    bank: PrimitiveBank, donor_map: dict[int, list[int]], gamma: float, classes=None
) -> ReplacedBank:
    """Attention-replace every class in the bank, or only the registered
    `classes`, per its donor list; the result follows bank order.
    """
    if not gamma > 0.0:
        raise InvalidInput("gamma must be positive")
    cnum, npr, d = bank.Z.shape
    flat = bank.Z.reshape(cnum * npr, d)
    start = {c: i * npr for i, c in enumerate(bank.class_ids)}
    targets = list(bank.class_ids) if classes is None else sorted(int(c) for c in classes)
    unknown = [c for c in targets if c not in start]
    if unknown:
        raise InvalidInput(f"classes not registered: {unknown}")
    z_hat = np.empty((len(targets), npr, d))
    atts: list[np.ndarray] = []
    donor_rows: list[np.ndarray] = []
    for j, c in enumerate(targets):
        donors = donor_map.get(c)
        if not donors:
            raise InvalidInput(f"class {c} has no donors")
        if c in donors:
            raise InvalidInput(f"class {c} cannot donate to itself")
        if len(set(donors)) != len(donors):
            raise InvalidInput(f"class {c} has duplicate donors")
        unknown = [dc for dc in donors if dc not in start]
        if unknown:
            raise InvalidInput(f"donor classes not registered: {sorted(unknown)}")
        idx = np.concatenate(
            [np.arange(start[dc], start[dc] + npr) for dc in sorted(donors)]
        )
        att = _attention_weights(flat[start[c] : start[c] + npr], flat[idx], gamma)
        z_hat[j] = att @ flat[idx]
        atts.append(att)
        donor_rows.append(idx)
    return ReplacedBank(targets, z_hat, atts, donor_rows)


def hard_nearest_replace(
    bank: PrimitiveBank,
    target_classes,
    donor_classes,
    ratio: float,
    seed: int = 0,
) -> PrimitiveBank:
    """Overwrite ceil(ratio * N) seeded-random primitives of each target
    class with their nearest donor primitive (bit-equal copies).

    Ties go to the lowest flat donor index; ratio 0 is a no-op copy.
    """
    if not 0.0 <= ratio <= 1.0:
        raise InvalidInput(f"ratio must be in [0, 1], got {ratio}")
    targets = sorted(int(c) for c in target_classes)
    donors = sorted(int(c) for c in donor_classes)
    if not donors:
        raise InvalidInput("donor pool is empty")
    overlap = set(targets) & set(donors)
    if overlap:
        raise InvalidInput(f"classes cannot be both target and donor: {sorted(overlap)}")
    out = bank.copy()
    n_swap = int(np.ceil(ratio * bank.n_primitives))
    if n_swap == 0 or not targets:
        return out
    pool = bank.Z[_positions(bank.class_ids, donors, "donor classes")].reshape(-1, bank.channels)
    blocks = np.repeat(_positions(bank.class_ids, targets, "target classes"), n_swap)
    picks = np.concatenate([
        np.sort(substream(seed, "replace", c).choice(bank.n_primitives, size=n_swap, replace=False))
        for c in targets
    ])
    nearest, _ = _nearest_rows(bank.Z[blocks, picks], pool)
    out.Z[blocks, picks] = pool[nearest]
    return out
