"""Shared fixtures: the expensive default-task trainings.

Three seeds of the default synthetic task, each trained twice (with and
without the replacement loss), are reused by every end-to-end test so the
minutes-long work happens once per pytest session.  Derived measurements
that several tests consume (retention curves, importance AUC) are computed
once here as well.
"""

import time

import numpy as np
import pytest

from compset import FeatureBatch, Hyperparams, SynthConfig, cka, patch_importance, synth_generate
from compset.cka import power_transform_stack
from compset.protocol import reuse_retention_eval, run_sessions, score_matrix
from util import auc_score

SEEDS = (0, 1, 2)


@pytest.fixture(scope="session")
def default_runs():
    runs = {}
    for seed in SEEDS:
        t0 = time.perf_counter()
        ds = synth_generate(SynthConfig(seed=seed))
        state = run_sessions(ds, Hyperparams(seed=seed))
        elapsed = time.perf_counter() - t0
        state_no_rcmp = run_sessions(ds, Hyperparams(seed=seed, lambda2=0.0))
        runs[seed] = {
            "ds": ds,
            "state": state,
            "state_no_rcmp": state_no_rcmp,
            "pipeline_seconds": elapsed,
        }
    return runs


@pytest.fixture(scope="session")
def retention_by_seed(default_runs):
    """Retention at 50% hard-nearest replacement, per seed and loss setting."""
    out = {"with_replacement_loss": {}, "without_replacement_loss": {}}
    for seed, run in default_runs.items():
        ds = run["ds"]
        out["with_replacement_loss"][seed] = reuse_retention_eval(
            run["state"], ds.test, [0.5], seed=seed
        )[0].retention
        out["without_replacement_loss"][seed] = reuse_retention_eval(
            run["state_no_rcmp"], ds.test, [0.5], seed=seed
        )[0].retention
    return out


def mean_importance_auc(state, ds) -> float:
    """How well patch importance ranks shared patches above distractors.

    Per test sample: importance of each patch for the predicted class, then
    the exact pairwise AUC (ties count 0.5) between ground-truth shared
    patches and distractors, averaged over all samples.
    """
    full = FeatureBatch.concat([ds.test[k] for k in sorted(ds.test)])
    scores = score_matrix(state, full.X, "composition")
    pred = np.argmax(scores, axis=1)
    imp = patch_importance(power_transform_stack(full.X, state.hp.alpha), state.bank.Z[pred])
    mask = np.zeros(imp.shape, dtype=bool)
    for i, sid in enumerate(full.sample_ids):
        mask[i, np.asarray(ds.patch_annotations[sid]["shared"], dtype=int)] = True
    return float(np.mean([auc_score(v[m], v[~m]) for v, m in zip(imp, mask)]))


@pytest.fixture(scope="session")
def auc_by_seed(default_runs):
    return {
        seed: mean_importance_auc(run["state"], run["ds"])
        for seed, run in default_runs.items()
    }


@pytest.fixture
def transforms(monkeypatch):
    """The shape of every stack power-transformed while the test runs:
    one per preparation of maps for scoring."""
    shapes = []
    inner = cka.power_transform_stack

    def counted(X3, alpha):
        shapes.append(np.shape(X3))
        return inner(X3, alpha)

    monkeypatch.setattr(cka, "power_transform_stack", counted)
    return shapes
