"""Analysis tools on a trained model: replacement, retention, filtering.

Trains the small task from the quickstart, then shows the three analysis
entry points: attention replacement of one class's primitives by donor
mixtures, accuracy retention when novel primitives are hard-replaced by
frozen base ones, and test accuracy when only the most important patches
of each sample are kept.

    python3 demos/reuse_and_importance.py
"""

import numpy as np

from compset import (
    FeatureBatch,
    Hyperparams,
    SynthConfig,
    build_replaced,
    importance_filter_eval,
    retrieval_export,
    reuse_retention_eval,
    run_sessions,
    synth_generate,
)

config = SynthConfig(
    pool_size=20,
    primitives_per_class=3,
    shared_patches=6,
    distractor_patches=2,
    channels=16,
    base_classes=4,
    incremental_sessions=2,
    classes_per_session=2,
    shots=3,
    test_per_class=25,
    train_per_base_class=20,
    seed=0,
)
hp = Hyperparams(n_primitives=6, base_epochs=40, inc_epochs=25, batch_size=16, seed=0)
ds = synth_generate(config)
state = run_sessions(ds, hp)
full_test = FeatureBatch.concat([ds.test[k] for k in sorted(ds.test)])

print("-- attention replacement: rebuild class 4 from base donors --")
donors = state.classes_of_session(0)
replaced = build_replaced(state.bank, {4: donors}, gamma=state.hp.gamma, classes=[4])
print(f"replaced block shape {replaced.block(4).shape}; attention rows (one per primitive):")
for j, row in enumerate(replaced.attention[0]):
    print(f"  primitive {j}: max weight {row.max():.3f} on donor row {int(row.argmax())}")

print()
print("-- retention when novel primitives are hard-replaced --")
for point in reuse_retention_eval(state, ds.test, [0.0, 0.25, 0.5, 1.0], seed=0):
    print(f"  replace {point.ratio:4.0%} of novel primitives: "
          f"novel accuracy {point.novel_accuracy:6.2f} "
          f"(retention {point.retention:6.2f}%)")

print()
print("-- accuracy when only the top-k patches are kept --")
for k, acc in sorted(importance_filter_eval(state, full_test, [1, 2, 4, 8]).items()):
    print(f"  keep {k} of {config.patches} patches: {acc:6.2f}%")

print()
print("-- retrieval: most important patches and tightest primitive pairs --")
export = retrieval_export(state, full_test, top_k=2)
cls = sorted(export["top_patches"], key=int)[0]
print(f"class {cls} top patches:")
for entry in export["top_patches"][cls]:
    print(f"  {entry}")
print(f"class {cls} nearest cross-class primitives:")
for pairing in export["nearest_primitives"][cls]:
    print(f"  {pairing}")
