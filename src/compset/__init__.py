"""Compositional few-shot class-incremental classification heads.

Patch feature maps are scored against learned per-class primitive sets with
linear centered-kernel alignment; training couples a cosine classifier, a
composition loss, and a replaced-composition loss that rewards primitive
reuse across classes.  See README.md for the tour.
"""

__version__ = "0.1.0"

from .cka import (
    CompositionScore,
    FeatureMap,
    MatchWeights,
    allmatch_similarity,
    center_rows,
    cka_rc,
    composition_score,
    composition_scores_stack,
    linear_cka,
    match_decomposition,
    match_weights,
    patch_importance,
    power_transform,
)
from .data import (
    FeatureBatch,
    SynthConfig,
    SynthDataset,
    load_dataset,
    read_tensor,
    save_dataset,
    synth_generate,
    write_tensor,
)
from .errors import (
    BadMagic,
    BadVersion,
    CompsetError,
    DegenerateInput,
    DegenerateSet,
    InsufficientData,
    InvalidInput,
    NumericalFailure,
    TensorFormatError,
    TruncatedPayload,
    UnknownDtype,
)
from .losses import (
    ClassifierWeights,
    FixedColumns,
    Grads,
    Hyperparams,
    fixed_columns,
    loss_cls,
    loss_cmp,
    loss_rcmp,
    total_loss_and_grad,
)
from .numkit import central_diff_grad, frobenius_norm, stable_softmax
from .primitives import (
    PrimitiveBank,
    ReplacedBank,
    attention_replace,
    build_replaced,
    extend_bank,
    hard_nearest_replace,
    init_primitive_bank,
    kmeans_centers,
)
from .protocol import (
    BenchResult,
    EvalReport,
    ReusePoint,
    SessionSchedule,
    evaluate_sessions,
    importance_filter_eval,
    performance_drop,
    primitive_count_sweep,
    retrieval_export,
    reuse_retention_eval,
    run_sessions,
    schedule_of,
    score_matrix,
    throughput_bench,
)
from .training import (
    ModelState,
    OptimizerState,
    donor_map_for,
    donor_map_of,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train_base,
    train_incremental,
)

import types as _types

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _types.ModuleType)
]
