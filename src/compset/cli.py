"""Command-line front end.

Subcommands: gen, train-base, train-inc, eval, sweep, importance,
reuse-eval, compare-reps.  Exit codes: 0 success, 1 usage error,
2 data or validation error.  Every run emits a JSON provenance record
(config, seed, versions) into --out, or to stderr when a command has no
output directory; the timestamp inside it is the only non-reproducible
output byte.

Config precedence: built-in defaults < --preset < --config file <
explicit flags.  When --data is omitted, the COMPSET_DATA_DIR environment
variable supplies the dataset directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cka import cka_rc
from .data import (
    FeatureBatch,
    SynthConfig,
    json_fields,
    load_dataset,
    read_tensor,
    save_dataset,
    synth_generate,
    write_atomic,
)
from .errors import CompsetError, InvalidInput
from .losses import Hyperparams
from .protocol import (
    HEADS,
    evaluate_sessions,
    importance_filter_eval,
    primitive_count_sweep,
    retrieval_export,
    reuse_retention_eval,
    sweep_table,
)
from .training import ModelState, load_checkpoint, save_checkpoint, train_base, train_incremental

DATA_DIR_ENV = "COMPSET_DATA_DIR"

PRESETS: dict[str, dict] = {
    "synth-default": {"synth": {}},
    "miniimagenet-like": {"hyperparams": {"lambda1": 2.0, "lambda2": 2.0, "alpha": 0.8}},
    "cifar-like": {"hyperparams": {"lambda1": 2.0, "lambda2": 2.0, "alpha": 0.6}},
    "cub-like": {"hyperparams": {"lambda1": 0.01, "lambda2": 0.01, "alpha": 0.5}},
}


class UsageError(Exception):
    """Bad invocation: flags, presets, or config files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def _apply_section(obj, section: dict, where: str):
    try:
        return dataclasses.replace(obj, **json_fields(type(obj), section, where))
    except InvalidInput as e:
        raise UsageError(str(e)) from None


def _flag_values(config_class, args) -> dict:
    """The explicit flags named after config_class's fields (--seed sets
    both configs' seed)."""
    return {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(config_class)
        if getattr(args, f.name, None) is not None
    }


def _build_config(args) -> tuple[Hyperparams, SynthConfig]:
    hp = Hyperparams()
    synth = SynthConfig()
    preset = getattr(args, "preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise UsageError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        sections = PRESETS[preset]
        hp = _apply_section(hp, sections.get("hyperparams", {}), f"preset {preset}")
        synth = _apply_section(synth, sections.get("synth", {}), f"preset {preset}")
    cfg_path = getattr(args, "config", None)
    if cfg_path is not None:
        try:
            doc = json.loads(Path(cfg_path).read_text())
        except FileNotFoundError:
            raise UsageError(f"config file not found: {cfg_path}") from None
        except json.JSONDecodeError as e:
            raise UsageError(f"config file is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(doc) - {"hyperparams", "synth"}
        if unknown:
            raise UsageError(f"config file: unknown sections {sorted(unknown)}")
        hp = _apply_section(hp, doc.get("hyperparams", {}), "config.hyperparams")
        synth = _apply_section(synth, doc.get("synth", {}), "config.synth")
    hp = dataclasses.replace(hp, **_flag_values(Hyperparams, args))
    synth = dataclasses.replace(synth, **_flag_values(SynthConfig, args))
    try:
        hp.validate()
        synth.validate()
    except InvalidInput as e:
        raise UsageError(str(e)) from None
    return hp, synth


def _provenance(command: str, args, hp: Hyperparams | None, synth: SynthConfig | None, outdir: Path | None):
    doc = {
        "command": command,
        "argv": [a for a in (args._argv or [])],
        "seed": getattr(args, "seed", None),
        "config": {
            "hyperparams": dataclasses.asdict(hp) if hp else None,
            "synth": dataclasses.asdict(synth) if synth else None,
        },
        "versions": {
            "compset": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        write_atomic(outdir / "provenance.json", text)
    else:
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _data_dir(args) -> str:
    if getattr(args, "data", None):
        return args.data
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return env
    raise UsageError(f"--data not given and {DATA_DIR_ENV} is unset")


def _load_pair(args) -> tuple[ModelState, dict[int, FeatureBatch]]:
    """The checkpoint and its dataset's test sets."""
    return load_checkpoint(args.ckpt), load_dataset(_data_dir(args)).test


def _numbers(text: str, flag: str, kind=int) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} wants a comma-separated {kind.__name__} list, got {text!r}") from None


def cmd_gen(args) -> int:
    hp, synth = _build_config(args)
    out = Path(args.out)
    ds = synth_generate(synth)
    save_dataset(ds, out)
    _provenance("gen", args, None, synth, out)
    n_train = sum(len(b) for b in ds.train.values())
    n_test = sum(len(b) for b in ds.test.values())
    print(
        f"wrote {out}: {synth.n_classes} classes over {synth.n_sessions} sessions, "
        f"{n_train} train / {n_test} test maps"
    )
    return 0


def cmd_train_base(args) -> int:
    hp, _ = _build_config(args)
    ds = load_dataset(_data_dir(args))
    state = train_base(ds.train[0], hp)
    out = Path(args.out)
    save_checkpoint(state, out)
    _provenance("train-base", args, hp, ds.config, out)
    print(
        f"trained base session: {state.bank.n_classes} classes, "
        f"final epoch loss {state.loss_history[0][-1]:.6f}"
    )
    return 0


def cmd_train_inc(args) -> int:
    state = load_checkpoint(args.ckpt)
    ds = load_dataset(_data_dir(args))
    session = args.session if args.session is not None else state.sessions_seen
    if session != state.sessions_seen:
        raise InvalidInput(
            f"checkpoint expects session {state.sessions_seen} next, got --session {session}"
        )
    if session not in ds.train:
        raise InvalidInput(f"dataset has no train split for session {session}")
    new_state = train_incremental(state, ds.train[session])
    out = Path(args.out)
    save_checkpoint(new_state, out)
    _provenance("train-inc", args, new_state.hp, ds.config, out)
    print(
        f"trained session {session}: now {new_state.bank.n_classes} classes, "
        f"final loss {new_state.loss_history[session][-1]:.6f}"
    )
    return 0


def cmd_eval(args) -> int:
    state, test = _load_pair(args)
    report = evaluate_sessions(state, test, args.head)
    out = Path(args.out) if args.out else None
    if out is not None:
        _write_json(out / "report.json", report.to_json_dict())
        write_atomic(out / "report.txt", report.to_text() + "\n")
    _provenance("eval", args, state.hp, None, out)
    print(report.to_text())
    return 0


def cmd_sweep(args) -> int:
    hp, _ = _build_config(args)
    ds = load_dataset(_data_dir(args))
    results = primitive_count_sweep(ds, _numbers(args.n_values, "--n-values"), hp)
    out = Path(args.out)
    _write_json(
        out / "sweep.json",
        {str(n): results[n].to_json_dict() for n in sorted(results)},
    )
    table = sweep_table(results)
    write_atomic(out / "sweep.txt", table + "\n")
    _provenance("sweep", args, hp, ds.config, out)
    print(table)
    return 0


def cmd_importance(args) -> int:
    state, test = _load_pair(args)
    batch = FeatureBatch.concat([test[k] for k in sorted(test)])
    accs = importance_filter_eval(
        state, batch, _numbers(args.keep, "--keep"), rank_by_true_label=args.true_label
    )
    out = Path(args.out) if args.out else None
    if out is not None:
        _write_json(out / "importance.json", {str(k): v for k, v in accs.items()})
    if args.retrieval_top_k is not None:
        doc = retrieval_export(state, batch, args.retrieval_top_k)
        if out is not None:
            _write_json(out / "retrieval.json", doc)
        else:
            print(json.dumps(doc, sort_keys=True))
    _provenance("importance", args, state.hp, None, out)
    for k in sorted(accs):
        print(f"keep {k:>3}: accuracy {accs[k]:6.2f}")
    return 0


def cmd_reuse_eval(args) -> int:
    state, test = _load_pair(args)
    seed = args.seed if args.seed is not None else state.hp.seed
    points = reuse_retention_eval(state, test, _numbers(args.ratios, "--ratios", float), seed=seed)
    out = Path(args.out) if args.out else None
    if out is not None:
        _write_json(
            out / "reuse.json",
            [dataclasses.asdict(p) for p in points],
        )
    _provenance("reuse-eval", args, state.hp, None, out)
    for p in points:
        print(f"ratio {p.ratio:4.2f}: novel acc {p.novel_accuracy:6.2f}, retention {p.retention:6.2f}")
    return 0


def cmd_compare_reps(args) -> int:
    value = cka_rc(read_tensor(args.rep_a), read_tensor(args.rep_b))
    out = Path(args.out) if args.out else None
    if out is not None:
        _write_json(out / "compare.json", {"cka": value})
    _provenance("compare-reps", args, None, None, out)
    print(value)
    return 0


def _add_common(p: argparse.ArgumentParser, config: bool = True):
    p.add_argument("--seed", type=int, default=None, help="root seed (hyperparams and data)")
    if config:
        p.add_argument("--preset", default=None, help=f"one of {sorted(PRESETS)}")
        p.add_argument("--config", default=None, help="JSON file with hyperparams/synth sections")


def _add_hp_flags(p: argparse.ArgumentParser):
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--lambda1", type=float, default=None)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--n-primitives", dest="n_primitives", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--base-epochs", dest="base_epochs", type=int, default=None)
    p.add_argument("--inc-epochs", dest="inc_epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--init-scheme", dest="init_scheme", choices=["gaussian", "kmeans"], default=None)


def build_parser() -> _Parser:
    top = _Parser(prog="compset", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset + manifest")
    _add_common(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--base-classes", dest="base_classes", type=int, default=None)
    p.add_argument("--incremental-sessions", dest="incremental_sessions", type=int, default=None)
    p.add_argument("--classes-per-session", dest="classes_per_session", type=int, default=None)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    p.add_argument("--train-per-base-class", dest="train_per_base_class", type=int, default=None)
    p.add_argument("--test-per-class", dest="test_per_class", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train-base", help="fit the base session")
    _add_common(p)
    _add_hp_flags(p)
    p.add_argument("--data", default=None, help="dataset directory (default: $COMPSET_DATA_DIR)")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("train-inc", help="fit the next incremental session")
    _add_common(p, config=False)
    p.add_argument("--ckpt", required=True, help="input checkpoint directory")
    p.add_argument("--data", default=None, help="dataset directory (default: $COMPSET_DATA_DIR)")
    p.add_argument("--out", required=True, help="output checkpoint directory")
    p.add_argument("--session", type=int, default=None, help="session index (default: next)")
    p.set_defaults(func=cmd_train_inc)

    p = sub.add_parser("eval", help="per-session metric report")
    _add_common(p, config=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", default=None, help="dataset directory (default: $COMPSET_DATA_DIR)")
    p.add_argument("--head", choices=list(HEADS), default="composition")
    p.add_argument("--out", default=None, help="report directory (optional)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="retrain and evaluate per primitive-set size")
    _add_common(p)
    _add_hp_flags(p)
    p.add_argument("--data", default=None, help="dataset directory (default: $COMPSET_DATA_DIR)")
    p.add_argument("--n-values", dest="n_values", required=True, help="e.g. 1,4,16")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("importance", help="accuracy after top-k patch filtering")
    _add_common(p, config=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", default=None, help="dataset directory (default: $COMPSET_DATA_DIR)")
    p.add_argument("--keep", required=True, help="e.g. 1,4,8,16")
    p.add_argument("--true-label", dest="true_label", action="store_true",
                   help="rank patches against the labeled class (analysis only)")
    p.add_argument("--retrieval-top-k", dest="retrieval_top_k", type=int, default=None,
                   help="also export per-class top patches and primitive pairings")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("reuse-eval", help="novel-accuracy retention under replacement")
    _add_common(p, config=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", default=None, help="dataset directory (default: $COMPSET_DATA_DIR)")
    p.add_argument("--ratios", required=True, help="e.g. 0,0.2,0.5,1.0")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reuse_eval)

    p = sub.add_parser("compare-reps", help="CKA between two stored representations")
    _add_common(p, config=False)
    p.add_argument("rep_a", help="tensor file (container or .npy)")
    p.add_argument("rep_b")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare_reps)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args._argv = argv
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (OSError, CompsetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
