"""Per-class primitive sets: initialization, growth, and replacement.

A bank holds one (N, d) block of primitive vectors per registered class,
in ascending class-id order, with a frozen flag per block.  Replacement
builds, for each class, the set obtained by rewriting every primitive as
an attention-weighted mixture of *donor* primitives (softmax over negative
squared distances); at sharp attention this degenerates to copying the
nearest donor, which is also available directly as a hard, ratio-
controlled edit used by the reuse analysis.

Replacement takes one stacked pass per donor count, with no loop over
classes.  Squared distances come in chunks of at most ``_CHUNK_BYTES`` of
target-donor differences (one target row where a row alone is larger),
each summed over d by the einsum a single class would use.  Where the classes donate to each other (the base session),
each pair of rows is differenced once and mirrored.  One C-contiguous
(G, N, M) softmax and one stacked product follow.  Every class gets the
bytes of a loop over classes.

Both nearest-row searches here, the Lloyd assignment of k-means init and
the hard replacement, go through ``numkit._nearest_rows``: GEMM-form
distances over blocks of query rows under a byte budget, with each row's
near-minimal candidates recomputed as the plain squared difference, so
argmins, lowest-index ties and copied bytes equal a brute-force search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class DonorGroup(NamedTuple):
    """Replaced classes that have the same number of donor rows, stacked.

    positions index the ReplacedBank's class_ids, blocks the bank's
    classes.  donor_rows are flat indices into bank.Z.reshape(C*N, d), in
    ascending donor order per class, so gradients can be scattered back to
    the donors; donors holds those rows, once when every class of the
    group has the same donors.
    """

    positions: np.ndarray  # (G,) int
    blocks: np.ndarray  # (G,) int
    attention: np.ndarray  # (G, N, M) C-contiguous, rows sum to 1; a free (G*N, M) view
    donor_rows: np.ndarray  # (G, M) int
    donors: np.ndarray  # (G, M, d), or (1, M, d) when shared


@dataclass
class ReplacedBank:
    """Attention-rewritten blocks plus the attention that produced them.

    `groups` holds the stacked attention, one group per donor count;
    attention[i] and donor_rows[i] are views of class i's slices.
    """

    class_ids: list[int]
    Z_hat: np.ndarray  # (C, N, d)
    attention: list[np.ndarray]  # per class (N, M_c)
    donor_rows: list[np.ndarray]  # per class (M_c,) int
    groups: list[DonorGroup]

    def block(self, class_id: int) -> np.ndarray:
        return self.Z_hat[_positions(self.class_ids, [class_id], "class")[0]]


# bytes of one chunk of target-donor differences
_CHUNK_BYTES = 2**20


def _chunk_rows(cols: int, d: int) -> int:
    """Target rows per chunk of (rows, cols, d) differences."""
    return max(1, _CHUNK_BYTES // (cols * d * 8))


def _squares(diff: np.ndarray) -> np.ndarray:
    """(r, k) sums over d of a C-contiguous (r, k, d) difference chunk, each
    summed in the same order whatever r and k are."""
    return np.einsum("ikd,ikd->ik", diff, diff)


def _others(values: np.ndarray) -> np.ndarray:
    """(G, G-1): row k holds every value but the k-th, in order."""
    g = len(values)
    return np.broadcast_to(values, (g, g))[~np.eye(g, dtype=bool)].reshape(g, g - 1)


def _mutual_distances(pts: np.ndarray, npr: int) -> np.ndarray:
    """(R, R) squared distances between the rows of G blocks of npr rows.

    Only pairs from different blocks are read.  Each is formed once, from
    the earlier block's row, and mirrored: (a - b)^2 equals (b - a)^2 bit
    for bit and the sum over d runs in the same order.
    """
    n, d = pts.shape
    table = np.empty((n, n))
    for lo in range(0, n - npr, npr):  # one target block per pass
        c0 = lo + npr
        step = _chunk_rows(n - c0, d)
        for r0 in range(lo, c0, step):
            r1 = min(c0, r0 + step)
            sq = _squares(pts[None, c0:] - pts[r0:r1, None])
            table[r0:r1, c0:] = sq
            table[c0:, r0:r1] = sq.T
    return table


def _group_distances(pts: np.ndarray, donors: np.ndarray, npr: int, mutual: bool) -> np.ndarray:
    """(G, N, M) squared distances from each class's N rows (pts, (G*N, d))
    to its M donor rows (donors, (G, M, d) or (1, M, d) when shared), in
    chunks of at most _CHUNK_BYTES of differences, or of one target row.
    mutual: every class's donors are the other classes of the group."""
    rows, d = pts.shape
    g, m = rows // npr, donors.shape[1]
    if mutual:
        cols = (_others(np.arange(g))[:, :, None] * npr + np.arange(npr)).reshape(g, 1, m)
        table = _mutual_distances(pts, npr).reshape(g, npr, rows)
        return np.take_along_axis(table, cols, axis=2)
    out = np.empty((rows, m))
    step = _chunk_rows(m, d)
    for r0 in range(0, rows, step):
        r1 = min(rows, r0 + step)
        src = donors if len(donors) == 1 else donors[np.arange(r0, r1) // npr]
        out[r0:r1] = _squares(src - pts[r0:r1, None])
    return out.reshape(g, npr, m)


def _attention_weights(sq: np.ndarray, gamma: float) -> np.ndarray:
    """softmax(-gamma * sq) over the last axis of a C-contiguous stack of
    squared distances, which it overwrites; rows sum to 1.

    Weights below the smallest normal float are flushed to 0: at sharp
    attention many are subnormal, and arithmetic on subnormals is slow in
    the products that use them.  Where exp's result would be 0 or
    subnormal, its argument is zeroed first and its result then dropped:
    NumPy's exp takes a slow path below about -708, and a multiply by the
    0/1 mask is faster than a masked exp.  A flushed term is below an ulp
    of any sum that also holds a normal term, so only a sum of flushed
    terms alone changes: it becomes 0 instead of a few times the smallest
    normal.
    """
    tiny = np.finfo(np.float64).tiny
    z = np.multiply(sq, -gamma, out=sq)
    z -= z.max(axis=-1, keepdims=True)
    keep = z >= np.log(tiny)
    z *= keep
    att = np.exp(z, out=z)
    att *= keep
    att /= att.sum(axis=-1, keepdims=True)
    att *= att >= tiny
    return att


def _donor_blocks(bank: PrimitiveBank, donor_map, targets) -> list[np.ndarray]:
    """Each target's donor block positions, ascending; checks every list."""
    out = []
    for c in targets:
        donors = donor_map.get(c)
        if not donors:
            raise InvalidInput(f"class {c} has no donors")
        if c in donors:
            raise InvalidInput(f"class {c} cannot donate to itself")
        if len(set(donors)) != len(donors):
            raise InvalidInput(f"class {c} has duplicate donors")
        out.append(_positions(bank.class_ids, sorted(donors), "donor classes"))
    return out


def build_replaced(
    bank: PrimitiveBank, donor_map: dict[int, list[int]], gamma: float, classes=None
) -> ReplacedBank:
    """Attention-replace every class in the bank, or only the registered
    `classes`, per its donor list; the result follows bank order.

    Classes with equal donor counts are replaced in one stacked pass:
    chunked squared distances (a table formed once and mirrored where the
    classes donate to each other), one (G, N, M) softmax and one stacked
    product, each class's arithmetic the same as alone.
    """
    if not gamma > 0.0:
        raise InvalidInput("gamma must be positive")
    cnum, npr, d = bank.Z.shape
    flat = bank.Z.reshape(cnum * npr, d)
    targets = list(bank.class_ids) if classes is None else sorted(int(c) for c in classes)
    blocks = _positions(bank.class_ids, targets, "classes")
    donor_blocks = _donor_blocks(bank, donor_map, targets)
    counts = np.array([len(b) for b in donor_blocks], dtype=np.int64)
    z_hat = np.empty((len(targets), npr, d))
    atts: list[np.ndarray] = [None] * len(targets)
    donor_rows: list[np.ndarray] = [None] * len(targets)
    groups = []
    rows = np.arange(npr)
    for m in np.unique(counts):  # one pass per donor count
        at = np.flatnonzero(counts == m)
        tblocks = blocks[at]
        dblocks = np.stack([donor_blocks[j] for j in at])
        g = len(at)
        mutual = m == g - 1 and np.array_equal(dblocks, _others(tblocks))
        idx = (dblocks[:, :, None] * npr + rows).reshape(g, m * npr)
        donors = flat[idx[:1]] if (dblocks == dblocks[0]).all() else flat[idx]
        pts = flat[(tblocks[:, None] * npr + rows).ravel()]
        att = _attention_weights(_group_distances(pts, donors, npr, mutual), gamma)
        z_hat[at] = att @ donors
        groups.append(DonorGroup(at, tblocks, att, idx, donors))
        for k, j in enumerate(at):
            atts[j], donor_rows[j] = att[k], idx[k]
    return ReplacedBank(targets, z_hat, atts, donor_rows, groups)


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
