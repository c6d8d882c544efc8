#!/usr/bin/env bash
# Every CLI subcommand on one small task, start to finish.
#
#   bash demos/cli_walkthrough.sh [workdir]
#
# Uses a temporary directory unless one is given. Each step writes a
# provenance.json next to its outputs; reruns with the same seed and the
# same paths reproduce every artifact byte-for-byte (only the provenance
# timestamp changes).
set -euo pipefail

work="${1:-$(mktemp -d)}"
mkdir -p "$work"
echo "working in $work"
cd "$work"

cat > config.json <<'EOF'
{
  "synth": {
    "pool_size": 20, "primitives_per_class": 3,
    "shared_patches": 6, "distractor_patches": 2,
    "noise_sigma": 0.1, "channels": 16,
    "base_classes": 4, "incremental_sessions": 2, "classes_per_session": 2,
    "shots": 3, "test_per_class": 25, "train_per_base_class": 20,
    "seed": 0
  },
  "hyperparams": {
    "n_primitives": 6, "base_epochs": 40, "inc_epochs": 25,
    "batch_size": 16, "seed": 0
  }
}
EOF

echo; echo "== gen: synthesize the dataset =="
compset gen --config config.json --out data

echo; echo "== train-base: fit the base session =="
compset train-base --config config.json --data data --out ck0

echo; echo "== train-inc: two few-shot sessions =="
compset train-inc --ckpt ck0 --data data --out ck1
compset train-inc --ckpt ck1 --data data --out ck2

echo; echo "== eval: per-session report, both heads =="
compset eval --ckpt ck2 --data data --out report
compset eval --ckpt ck2 --data data --head baseline --out report-baseline
cat report/report.txt

echo; echo "== sweep: accuracy vs primitives-per-class =="
compset sweep --config config.json --data data --n-values 1,2,6 --out sweep

echo; echo "== importance: keep only the top patches =="
compset importance --ckpt ck2 --data data --keep 1,2,4,8 --out importance

echo; echo "== reuse-eval: retention under hard replacement =="
compset reuse-eval --ckpt ck2 --data data --ratios 0,0.5,1.0 --out reuse

echo; echo "== compare-reps: similarity between two stored matrices =="
python3 - <<'EOF'
import numpy as np
from compset import write_tensor
rng = np.random.default_rng(0)
a = rng.standard_normal((8, 16))
write_tensor("a.ckat", a)
write_tensor("b.ckat", a + 0.1 * rng.standard_normal((8, 16)))
EOF
compset compare-reps a.ckat b.ckat

echo; echo "all artifacts under $work"
