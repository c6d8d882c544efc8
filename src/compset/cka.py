"""Set similarity between patch feature maps and primitive sets.

A sample is a feature map X of shape (n, d): one row per spatial patch, d
channels.  A class is represented by a learned primitive set Z of shape
(N, d).  Their similarity is linear centered-kernel alignment over the
patch/primitive dimension:

    sim(X, Z) = ||Xc @ Zc.T||_F^2 / (||Xc @ Xc.T||_F * ||Zc @ Zc.T||_F)

where Xc, Zc subtract each row's mean across channels.  The value lives in
[0, 1] (Cauchy-Schwarz on the centered Gram inner product), is symmetric,
and is invariant to per-set isotropic scaling, to orthogonal mixing of the
patch dimension, and to one channel permutation applied to both sets.

One batched kernel, `composition_scores_stack`, computes this CKA: the
scores of power-transformed maps against every class block and, for
training, the gradient of a loss on them with respect to the blocks.  Its
numerators take one of two forms.  The product form squares the
(B, n, C, N) product Xc Zc^T in blocks under a byte budget; the Gram form
uses ||Xc Zc^T||_F^2 = <Xc^T Xc, Zc^T Zc>_F, one GEMM over the d x d
Grams.  A call without a gradient takes the Gram form when the class
Grams fit one block and it needs fewer multiply-adds; a call with a
gradient keeps the product, which the gradient reuses.
`linear_cka` is one pair of it; `cka_rc`, the CKA of two representations
of one batch, is `linear_cka` of their transposes.

The kernel's map operand can come prepared: `prepare_maps` power-transforms
and row-centres a stack once and keeps each map's a = ||Xc Xc^T||_F, as a
`PreparedMaps`.  Every step of that works entry by entry, patch row by
patch row or map by map, so maps or patches sliced from a prepared stack
hold the same bytes as a stack prepared from the slice.  An analysis or a
training step prepares its maps once and hands the result to every call
that scores them.

`edited_scores` scores prepared maps against a bank and against copies of
it with some rows replaced, as the reuse analysis needs.  With Xc
row-centred, ||Xc Zc^T||_F^2 = sum_j ||Xc zc_j||^2 over the rows zc_j of
Zc, so every row contributes on its own: a table of row contributions,
built a block of maps at a time, holds each original row and each
distinct replacement row once, and each copy's numerators are a gather of
its rows and a sum over them.  The sum runs in another order than the
product form's, so its scores differ from the kernel's in the last bits.

`cosine_scores_stack` computes the plain mean/max cosine comparators for
the evaluation heads and `allmatch_similarity`.  `patch_importance`
apportions a pair's score exactly across its patches, for a whole stack
of (map, block) pairs in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import DegenerateInput, DegenerateSet, InvalidInput, NumericalFailure
from .numkit import _BLOCK_BYTES, Matrix, _row_step, as_matrix


def _set_matrix(X, name: str) -> Matrix:
    m = as_matrix(X, name)
    if m.shape[1] < 2:
        raise DegenerateInput(f"{name} needs at least 2 channels to center, got {m.shape[1]}")
    return m


def _pair(X, Z) -> tuple[Matrix, Matrix]:
    Xm = _set_matrix(X, "X")
    Zm = _set_matrix(Z, "Z")
    if Xm.shape[1] != Zm.shape[1]:
        raise InvalidInput(f"channel mismatch: X has {Xm.shape[1]}, Z has {Zm.shape[1]}")
    return Xm, Zm


def _finite(v: np.ndarray) -> np.ndarray:
    if not np.isfinite(v).all():
        raise NumericalFailure("set similarity overflows: a map or block is too large to score")
    return v


def linear_cka(X, Z) -> float:
    """Linear CKA of two row sets sharing channels: one pair of composition_scores_stack."""
    Xm, Zm = _pair(X, Z)
    try:
        val = float(composition_scores_stack(Xm[None], Zm[None])[0, 0])
    except DegenerateSet as e:
        side = "X" if e.class_id is None else "Z"
        raise DegenerateSet(f"{side} centers to zero; similarity undefined") from None
    return min(max(val, 0.0), 1.0)


def power_transform(X, alpha: float) -> Matrix:
    """Signed power map sign(x) * |x|^alpha, alpha in (0, 1].

    Flattens dominant activations before scoring; identity at alpha = 1.
    """
    return power_transform_stack(as_matrix(X, "X")[None], alpha)[0]


def patch_importance(X, Z) -> np.ndarray:
    """Per-patch share I[i] = sum_k (Xc_i . Zc_k)^2 / (a * b).

    Nonnegative, and sums to linear_cka(X, Z); the ranking drives the
    patch-filtering analysis.  One pair X (n, d), Z (N, d) gives (n,); a
    stack of maps X (B, n, d) against one block per map Z (B, N, d) gives
    (B, n) in one call.  X may be `PreparedMaps`, whose power transform and
    centring are then not redone.  A set that centers to zero raises
    DegenerateSet naming its index; as in composition_scores_stack, a
    non-finite a * b or share (finite inputs whose Gram overflows) raises
    NumericalFailure.
    """
    if np.ndim(X) == 2 and np.ndim(Z) == 2:
        Xm, Zm = _pair(X, Z)
        return patch_importance(Xm[None], Zm[None])[0]
    raw = not isinstance(X, PreparedMaps)
    X3 = np.asarray(X, dtype=np.float64) if raw else X
    Z3 = np.asarray(Z, dtype=np.float64)
    if len(X3.shape) != 3 or Z3.ndim != 3 or len(X3) != len(Z3):
        raise InvalidInput("need one pair (n, d), (N, d) or stacks (B, n, d), (B, N, d) of equal B")
    if X3.shape[2] != Z3.shape[2]:
        raise InvalidInput("channel mismatch between maps and primitive blocks")
    if (raw and not np.isfinite(X3).all()) or not np.isfinite(Z3).all():
        raise InvalidInput("maps or blocks contain non-finite entries")
    maps = prepare_maps(X3) if raw else X3
    a = maps.a
    with np.errstate(over="ignore", invalid="ignore"):
        Zc = center_stack(Z3)
        b = gram_frobenius_stack(Zc)
        if np.any(a == 0.0):
            raise DegenerateSet(f"map {int(np.argmax(a == 0.0))} centers to zero; similarity undefined")
        if np.any(b == 0.0):
            raise DegenerateSet(f"block {int(np.argmax(b == 0.0))} centers to zero; similarity undefined")
        prod = maps.Xc @ Zc.transpose(0, 2, 1)
        ab = _finite(a * b)
    return _finite((prod * prod).sum(axis=2) / ab[:, None])


def allmatch_similarity(X, Z, mode: str = "mean") -> float:
    """Plain cosine comparators between two row sets: one pair of
    cosine_scores_stack.  A zero row has no direction, so it raises
    DegenerateInput here rather than counting as cosine 0."""
    Xm = as_matrix(X, "X")
    Zm = as_matrix(Z, "Z")
    if Xm.shape[1] != Zm.shape[1]:
        raise InvalidInput("channel mismatch between X and Z")
    if not (Xm.any(axis=1).all() and Zm.any(axis=1).all()):
        raise DegenerateInput("zero rows have no direction; cosine undefined")
    return float(cosine_scores_stack(Xm[None], Zm[None], mode)[0, 0])


def cka_rc(A, B) -> float:
    """CKA between two representations of one batch (rows are samples).

    With each column centered over the batch, linear CKA is
    ||Ac^T Bc||_F^2 / (||Ac^T Ac||_F ||Bc^T Bc||_F), which equals the HSIC
    form over the b x b Grams (Kornblith et al. 2019).  Centering A's
    columns is row-centering A^T, so this is linear_cka(A.T, B.T): for p
    and q features it needs O(p q + (p + q) b) memory, and a b x b Gram
    only when the kernel's Gram form fits one block and costs less.
    """
    Am = as_matrix(A, "A")
    Bm = as_matrix(B, "B")
    if Bm.shape[0] != Am.shape[0]:
        raise InvalidInput("A and B must hold the same batch (equal row counts)")
    if Am.shape[0] < 2:
        raise InvalidInput("need at least 2 samples to center over the batch")
    try:
        return linear_cka(Am.T, Bm.T)
    except DegenerateSet:
        raise DegenerateSet("a representation is constant across the batch") from None


# ---------------------------------------------------------------------------
# Batched kernels on stacks of equally-shaped maps: the hot paths shared by
# the losses, the evaluation protocol, and the benchmark.
# ---------------------------------------------------------------------------


def power_transform_stack(X3: np.ndarray, alpha: float) -> np.ndarray:
    """power_transform applied to a (B, n, d) stack."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidInput(f"alpha must be in (0, 1], got {alpha}")
    if alpha == 1.0:
        return np.array(X3, dtype=np.float64)
    X3 = np.asarray(X3, dtype=np.float64)
    out = np.abs(X3)
    np.power(out, alpha, out=out)
    np.copysign(out, X3, out=out)
    out += 0.0  # -0.0 maps to 0.0, as sign(x) * |x|^alpha does
    return out


def center_stack(T: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-center every map in a (B, n, d) stack (in place with out=T)."""
    return np.subtract(T, T.mean(axis=2, keepdims=True), out=out)


def gram_frobenius_stack(Tc: np.ndarray) -> np.ndarray:
    """||Tc_b Tc_b^T||_F for each map in a centered (B, n, d) stack."""
    _, n, d = Tc.shape
    if n <= d:
        g = Tc @ Tc.transpose(0, 2, 1)
    else:
        g = Tc.transpose(0, 2, 1) @ Tc
    return np.sqrt(np.einsum("bij,bij->b", g, g))


@dataclass(frozen=True, eq=False)
class PreparedMaps:
    """A (B, n, d) stack of maps ready for scoring: power-transformed at
    ``alpha``, every patch row centred, and each map's a = ||Xc Xc^T||_F.

    ``shape`` and ``len`` are the stack's, so a prepared stack stands in
    for the raw one wherever only its shape is read.  Made by
    `prepare_maps`; its arrays are shared, not copied, by every call that
    scores it.
    """

    Xc: np.ndarray  # (B, n, d)
    a: np.ndarray  # (B,)
    alpha: float

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.Xc.shape

    def __len__(self) -> int:
        return len(self.Xc)

    def keep_patches(self, sel: np.ndarray) -> "PreparedMaps":
        """Patches sel[b] (B, k) of every map b.  Centring is per patch, so
        only a, which spans a map's patches, is computed again."""
        Xc = np.take_along_axis(self.Xc, sel[:, :, None], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            return PreparedMaps(Xc, gram_frobenius_stack(Xc), self.alpha)


def prepare_maps(X3, alpha: float = 1.0) -> PreparedMaps:
    """Power-transform and row-centre a (B, n, d) stack once, for every
    call that scores it.  Non-finite entries are not checked here: they,
    and finite maps whose Gram overflows, give a non-finite a that the
    scoring calls reject with NumericalFailure."""
    X3 = np.asarray(X3, dtype=np.float64)
    if X3.ndim != 3:
        raise InvalidInput(f"maps must be (B, n, d), got ndim={X3.ndim}")
    if X3.shape[2] < 2:
        raise DegenerateInput("need at least 2 channels to center")
    with np.errstate(over="ignore", invalid="ignore"):
        Xc = power_transform_stack(X3, alpha)  # a new array: center it in place
        center_stack(Xc, out=Xc)
        return PreparedMaps(Xc, gram_frobenius_stack(Xc), alpha)


def _gram_form(maps_shape, blocks_shape) -> bool:
    """Whether a gradient-free call of maps (B, n, d) against blocks
    (C, N, d) scores in Gram form: the (C, d, d) class Grams fit one block
    and the form takes fewer multiply-adds, B n d^2 + C N d^2 + B C d^2
    against the product's B n C N d."""
    (bsz, n, d), (ncls, npr, _) = maps_shape, blocks_shape
    if 8 * ncls * d * d > _BLOCK_BYTES:
        return False
    return bsz * n * d * d + ncls * npr * d * d + bsz * ncls * d * d < bsz * n * ncls * npr * d


def _product_numerators(Xc: np.ndarray, Zc: np.ndarray, one_block: bool):
    """||Xc_b Zc_c^T||_F^2 (B, C) and the last block's (b, n, c, N) product.

    The product runs as GEMMs over (b*n, d) x (d, c*N), b maps against c
    classes at a time, each block of about square shape in one buffer of at
    most the byte budget.  ``one_block`` takes the whole product at once,
    for training's vjp, which reuses it.  An empty batch or bank still
    makes one (empty) block.
    """
    bsz, n, d = Xc.shape
    ncls, npr, _ = Zc.shape
    if one_block:
        mb, cb = max(bsz, 1), max(ncls, 1)
    else:
        mb = max(1, min(bsz, isqrt(_BLOCK_BYTES // 8) // n))
        cb = max(1, min(ncls, _row_step(8 * mb * n * npr)))
    zf = Zc.reshape(ncls * npr, d)
    buf = np.empty(mb * n * cb * npr)
    num = np.empty((bsz, ncls))
    for c0 in range(0, max(ncls, 1), cb):
        zt = zf[c0 * npr : (c0 + cb) * npr].T
        nc = zt.shape[1] // npr
        for b0 in range(0, max(bsz, 1), mb):
            xb = Xc[b0 : b0 + mb]
            rows, cols = len(xb) * n, nc * npr
            prod = np.matmul(xb.reshape(rows, d), zt, out=buf[: rows * cols].reshape(rows, cols))
            prod = prod.reshape(len(xb), n, nc, npr)
            num[b0 : b0 + mb, c0 : c0 + cb] = np.einsum("bnkm,bnkm->bk", prod, prod)
    return num, prod


def _gram_numerators(Xc: np.ndarray, Zc: np.ndarray) -> np.ndarray:
    """||Xc_b Zc_c^T||_F^2 (B, C) as <Xc_b^T Xc_b, Zc_c^T Zc_c>_F.

    The class Grams are one (C, d^2) stack; the map Grams are built in
    blocks of maps under the byte budget, each block one (b, d^2) x (d^2, C)
    GEMM.  The inner product of two Grams can round below 0, a sum of
    squares cannot, so the result is clamped at 0.
    """
    bsz, _, d = Xc.shape
    ncls = len(Zc)
    gz = (Zc.transpose(0, 2, 1) @ Zc).reshape(ncls, d * d)
    mb = _row_step(8 * d * d)
    buf = np.empty((min(bsz, mb), d, d))
    num = np.empty((bsz, ncls))
    for b0 in range(0, bsz, mb):
        xb = Xc[b0 : b0 + mb]
        gx = np.matmul(xb.transpose(0, 2, 1), xb, out=buf[: len(xb)])
        np.matmul(gx.reshape(len(xb), d * d), gz.T, out=num[b0 : b0 + mb])
    return np.maximum(num, 0.0, out=num)


def composition_scores_stack(
    X3: np.ndarray,
    Zstack: np.ndarray,
    alpha: float = 1.0,
    on_degenerate: str = "raise",
    _with_vjp: bool = False,
):
    """Composition scores of every map against every class block.

    X3 is (B, n, d) raw maps, or `PreparedMaps` prepared at ``alpha``;
    Zstack is (C, N, d) raw primitive blocks; the result is (B, C).
    ``on_degenerate`` chooses between raising DegenerateSet and scoring
    the offending pairs 0.0 (evaluation policy).
    A non-finite a, b or score (finite inputs whose Gram overflows) raises
    NumericalFailure.

    The numerators ||Xc Zc^T||_F^2 take one of two forms.  The product
    form squares the (B, n, C, N) product, in blocks of maps x classes
    under the byte budget.  The Gram form takes the identity
    ||Xc Zc^T||_F^2 = <Xc^T Xc, Zc^T Zc>_F (Kornblith et al. 2019,
    arXiv:1905.00414) as one (B, d^2) x (d^2, C) GEMM; a call without a
    gradient uses it when `_gram_form` holds: the class Grams fit one
    block and it needs fewer multiply-adds.  With ``_with_vjp`` the
    result is ``(scores, vjp)``, where ``vjp`` maps d(loss)/d(scores)
    (B, C) to d(loss)/d(Zstack) (C, N, d); the vjp reuses the product, so
    the whole batch is one block of the product form.
    """
    if on_degenerate not in ("raise", "zero"):
        raise InvalidInput("on_degenerate must be 'raise' or 'zero'")
    maps = X3 if isinstance(X3, PreparedMaps) else np.asarray(X3, dtype=np.float64)
    Zs = np.asarray(Zstack, dtype=np.float64)
    if len(maps.shape) != 3 or Zs.ndim != 3:
        raise InvalidInput("X3 must be (B, n, d) and Zstack (C, N, d)")
    if maps.shape[2] != Zs.shape[2]:
        raise InvalidInput("channel mismatch between maps and primitive blocks")
    if maps.shape[2] < 2:
        raise DegenerateInput("need at least 2 channels to center")
    if not isinstance(maps, PreparedMaps):
        maps = prepare_maps(maps, alpha)
    elif maps.alpha != alpha:
        raise InvalidInput(f"maps were prepared at alpha={maps.alpha}, not {alpha}")
    Xc, a = maps.Xc, maps.a
    # a finite map can still overflow its Gram or the product: under
    # ignored warnings every non-finite a, b or score is caught below
    with np.errstate(over="ignore", invalid="ignore"):
        Zc = center_stack(Zs)
        b = gram_frobenius_stack(Zc)
        bad_a = a == 0.0
        bad_b = b == 0.0
        if on_degenerate == "raise":
            if np.any(bad_a):
                raise DegenerateSet(f"map {int(np.argmax(bad_a))} centers to zero")
            if np.any(bad_b):
                idx = int(np.argmax(bad_b))
                raise DegenerateSet(f"class block {idx} centers to zero", class_id=idx)
        a = np.where(bad_a, 1.0, a)
        b = np.where(bad_b, 1.0, b)
        if _with_vjp or not _gram_form(Xc.shape, Zs.shape):
            num, prod = _product_numerators(Xc, Zc, one_block=_with_vjp)
        else:
            num = _gram_numerators(Xc, Zc)
        scores = num / (a[:, None] * b[None, :])
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(scores).all()):
        raise NumericalFailure("composition scores overflow: a map or block is too large to score")
    if np.any(bad_a) or np.any(bad_b):
        scores[bad_a, :] = 0.0
        scores[:, bad_b] = 0.0
    if not _with_vjp:
        return scores

    def vjp(dscores: np.ndarray) -> np.ndarray:
        """For one pair, with P = Xc Zc^T and G = Zc Zc^T:
        d score/d Zc = (2/(a b)) (P^T Xc - (num/b^2) G Zc); the row
        centering then projects the gradient back through J.  A degenerate
        pair has P = 0 and passes no gradient."""
        coef = dscores * (2.0 / (a[:, None] * b[None, :]))  # (B, C)
        pw = prod * coef[:, None, :, None]  # (B, n, C, N)
        t1 = np.tensordot(pw, Xc, axes=([0, 1], [0, 1]))  # (C, N, d)
        s2 = (coef * num).sum(axis=0) / (b * b)  # (C,)
        gz = Zc @ Zc.transpose(0, 2, 1)  # (C, N, N)
        dZc = t1 - s2[:, None, None] * (gz @ Zc)
        return dZc - dZc.mean(axis=2, keepdims=True)

    return scores, vjp


def _block_norms(Zs: np.ndarray, blocks: np.ndarray, rows=None, new_rows=None, which=None) -> np.ndarray:
    """||Zc_c Zc_c^T||_F of the blocks Zs[blocks], after writing
    new_rows[which] into the flat rows ``rows`` of Zs (rows inside those
    blocks), centring the blocks a budget's worth at a time."""
    ncls, npr, d = Zs.shape
    out = np.empty(len(blocks))
    step = _row_step(8 * npr * d)
    if rows is not None:
        local = np.searchsorted(blocks, rows // npr)
    for i0 in range(0, len(blocks), step):
        chunk = Zs[blocks[i0 : i0 + step]]  # a copy
        if rows is not None:
            sel = (local >= i0) & (local < i0 + step)
            chunk.reshape(-1, d)[(local[sel] - i0) * npr + rows[sel] % npr] = new_rows[which[sel]]
        out[i0 : i0 + step] = gram_frobenius_stack(center_stack(chunk, out=chunk))
    return out


def edited_scores(maps: PreparedMaps, Zstack, new_rows, edits) -> np.ndarray:
    """Scores (1 + E, B, C) of prepared maps against the blocks Zstack
    (C, N, d) and against E edited copies of them.

    An edit ``(rows, which)`` writes new_rows[which] into the distinct rows
    ``rows`` (k,) of Zstack.reshape(C * N, d); ``new_rows`` (M, d) holds
    every replacement row once.  As in evaluation, a map or block that
    centres to zero, an edited block included, scores 0.0; a non-finite
    a, b or score raises NumericalFailure.

    A numerator is a sum over a block's rows of T[b, j] = ||Xc_b zc_j||^2.
    T holds every row of Zstack and of new_rows once; it is built a block
    of maps at a time, as GEMMs of about square shape whose buffer, like T
    and one copy's gathered rows, fits the byte budget.  Each copy gathers
    its rows of T and sums every block's N of them; only the edited
    blocks' b is computed again.  The sum runs over patches and then over
    rows, so the scores differ from the kernel's in the last bits.
    """
    Zs = np.asarray(Zstack, dtype=np.float64)
    new_rows = np.asarray(new_rows, dtype=np.float64).reshape(-1, maps.shape[2])
    if Zs.ndim != 3 or Zs.shape[2] != maps.shape[2]:
        raise InvalidInput("Zstack must be (C, N, d) with the maps' channels")
    bsz, n, d = maps.shape
    ncls, npr, _ = Zs.shape
    sources = ((Zs.reshape(ncls * npr, d), 0), (new_rows, ncls * npr))  # the rows of T
    cols = np.tile(np.arange(ncls * npr), (1 + len(edits), 1))
    a = maps.a
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.tile(_block_norms(Zs, np.arange(ncls)), (1 + len(edits), 1))
        for e, (rows, which) in enumerate(edits, 1):
            rows = np.asarray(rows, dtype=np.int64)
            cols[e, rows] = ncls * npr + np.asarray(which)
            blocks = np.unique(rows // npr)
            b[e, blocks] = _block_norms(Zs, blocks, rows, new_rows, np.asarray(which))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericalFailure("composition scores overflow: a map or block is too large to score")
    bad_a = a == 0.0
    bad_b = b == 0.0
    a = np.where(bad_a, 1.0, a)
    b = np.where(bad_b, 1.0, b)

    nrows = ncls * npr + len(new_rows)
    mb = max(1, min(bsz, isqrt(_BLOCK_BYTES // 8) // n, _row_step(8 * nrows) // 4))
    rb = _row_step(8 * max(mb * n, d))
    buf = np.empty(mb * n * min(rb, nrows))
    zbuf = np.empty((min(rb, nrows), d))
    table = np.empty((mb, nrows))
    scores = np.empty((len(cols), bsz, ncls))
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, bsz, mb):
            xf = maps.Xc[b0 : b0 + mb].reshape(-1, d)
            m = len(xf) // n
            for src, c0 in sources:
                for r0 in range(0, len(src), rb):
                    z = src[r0 : r0 + rb]
                    zc = np.subtract(z, z.mean(axis=1, keepdims=True), out=zbuf[: len(z)])
                    k = len(zc)
                    prod = np.matmul(xf, zc.T, out=buf[: m * n * k].reshape(m * n, k)).reshape(m, n, k)
                    np.einsum("bnr,bnr->br", prod, prod, out=table[:m, c0 + r0 : c0 + r0 + k])
            for e, c in enumerate(cols):
                num = table[:m, c].reshape(m, ncls, npr).sum(axis=2)
                scores[e, b0 : b0 + m] = num / (a[b0 : b0 + m, None] * b[e])
    if not np.isfinite(scores).all():
        raise NumericalFailure("composition scores overflow: a map or block is too large to score")
    scores[:, bad_a, :] = 0.0
    scores[np.broadcast_to(bad_b[:, None, :], scores.shape)] = 0.0
    return scores


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)


def cosine_scores_stack(X3: np.ndarray, Zstack: np.ndarray, mode: str = "mean") -> np.ndarray:
    """Plain cosine comparators of every (B, n, d) map against every
    (C, N, d) class block, (B, C).  mode="mean": average cosine over all
    (patch, primitive) pairs, the dot product of the two averaged unit-row
    sets; mode="max": average over patches of the best primitive cosine.
    A zero row counts as a zero vector: its cosines are 0."""
    if mode not in ("mean", "max"):
        raise InvalidInput(f"mode must be 'mean' or 'max', got {mode!r}")
    xu = _unit_rows(np.asarray(X3, dtype=np.float64))  # (B, n, d)
    zu = _unit_rows(np.asarray(Zstack, dtype=np.float64))  # (C, N, d)
    if mode == "mean":
        return xu.mean(axis=1) @ zu.mean(axis=1).T
    bsz, n, d = xu.shape
    cnum, npr, _ = zu.shape
    out = np.empty((bsz, cnum))
    step = _row_step(8 * n * cnum * npr)
    for lo in range(0, bsz, step):
        hi = min(bsz, lo + step)
        cos = (xu[lo:hi].reshape(-1, d) @ zu.reshape(-1, d).T).reshape(hi - lo, n, cnum, npr)
        out[lo:hi] = cos.max(axis=3).mean(axis=1)
    return out
