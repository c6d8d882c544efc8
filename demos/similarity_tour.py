"""A tour of the measurement layer: set similarity and its decompositions.

Everything here operates on plain arrays (rows = patch features or
primitive vectors, columns = channels); no training involved.

    python3 demos/similarity_tour.py
"""

import numpy as np

from compset import (
    allmatch_similarity,
    cka_rc,
    composition_scores_stack,
    linear_cka,
    patch_importance,
    power_transform,
)

rng = np.random.default_rng(0)

print("-- similarity between row sets --")
x = rng.standard_normal((6, 16))  # 6 patches, 16 channels
z = rng.standard_normal((4, 16))  # 4 primitives
v = linear_cka(x, z)
print(f"linear_cka(x, z)          = {v:.6f}")
print(f"symmetric:   cka(z, x)    = {linear_cka(z, x):.6f}")
print(f"self:        cka(x, x)    = {linear_cka(x, x):.6f}")
print(f"scale-free:  cka(5x, z/3) = {linear_cka(5 * x, z / 3):.6f}")
perm = rng.permutation(16)
print(f"channel-permutation (joint): {linear_cka(x[:, perm], z[:, perm]):.6f}")

print()
print("-- the same number from the batch direction --")
print(f"cka_rc(x.T, z.T) = {cka_rc(x.T, z.T):.6f}  (equals linear_cka(x, z))")

print()
print("-- decomposition: which patches contributed what --")
importance = patch_importance(x, z)
print(f"importances of the {importance.shape[0]} patches: {np.round(importance, 4)}")
print(f"sum of importances = {importance.sum():.6f}  (the score again)")

print()
print("-- power transform flattens dominant activations --")
spiky = np.array([[9.0, 0.1, 0.1, 0.1], [0.1, 9.0, 0.1, 0.1]])
for alpha in (1.0, 0.5):
    print(f"alpha={alpha}: first row -> {np.round(power_transform(spiky, alpha)[0], 3)}")
blocks = rng.standard_normal((5, 3, 4))  # 5 classes of 3 primitives
scores = composition_scores_stack(spiky[None], blocks, alpha=0.5)
print(f"composition scores of the map against 5 classes (alpha=0.5): {np.round(scores[0], 4)}")
print(f"class 2 by hand: {linear_cka(power_transform(spiky, 0.5), blocks[2]):.4f}")

print()
print("-- plain cosine comparators for contrast --")
print(f"allmatch mean: {allmatch_similarity(x, z, 'mean'):+.6f}")
print(f"allmatch max:  {allmatch_similarity(x, z, 'max'):+.6f}")
