"""Seeded corruption of a saved dataset and checkpoint.

Every damaged file must end in a CompsetError from the loaders, which
`compset eval` reports with exit code 2 rather than a traceback: each JSON
field set to a value of another type, truncated tensor files, and flipped
tensor header bytes.  A flipped payload byte changes one stored number; a
non-finite one is rejected, a finite one cannot be told from real data, so
there the loaders must either succeed or raise a CompsetError.
"""

import json
import shutil

import numpy as np
import pytest

from compset import (
    CompsetError,
    Hyperparams,
    SynthConfig,
    load_checkpoint,
    load_dataset,
    run_sessions,
    save_checkpoint,
    save_dataset,
    synth_generate,
)
from compset.cli import main
from compset.data import read_tensor, write_tensor

TINY = SynthConfig(
    pool_size=8,
    primitives_per_class=2,
    shared_patches=3,
    distractor_patches=1,
    channels=4,
    base_classes=3,
    incremental_sessions=1,
    classes_per_session=2,
    shots=2,
    test_per_class=2,
    train_per_base_class=4,
    seed=0,
)
HP = Hyperparams(n_primitives=2, base_epochs=2, inc_epochs=2, batch_size=8)
TENSORS = ["ck/bank.ckat", "ck/weights.ckat", "data/pool.ckat", "data/session0_train.ckat",
           "data/session1_test.ckat"]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    ds = synth_generate(TINY)
    save_dataset(ds, root / "data")
    save_checkpoint(run_sessions(ds, HP), root / "ck")
    return root


@pytest.fixture
def work(saved, tmp_path):
    shutil.copytree(saved / "data", tmp_path / "data")
    shutil.copytree(saved / "ck", tmp_path / "ck")
    return tmp_path


def run_eval(work) -> int:
    return main(["eval", "--ckpt", str(work / "ck"), "--data", str(work / "data")])


def assert_rejected(work, capsys):
    with pytest.raises(CompsetError):
        load_checkpoint(work / "ck")
        load_dataset(work / "data")
    capsys.readouterr()
    assert run_eval(work) == 2
    assert "error:" in capsys.readouterr().err


def leaf_paths(doc, path=()):
    """The path of the document itself and of every value inside it,
    descending into objects and into the first item of each list."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from leaf_paths(doc[0], path + (0,))


def wrong_values(value):
    """Values of JSON types other than value's (a bool is no number)."""
    return [None, 7 if isinstance(value, str) else "x", 1 if isinstance(value, bool) else True]


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def with_value(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    get(doc, path[:-1])[path[-1]] = value
    return doc


def mutations(saved, name):
    doc = json.loads((saved / name).read_text())
    for path in leaf_paths(doc):
        # per-sample ground-truth notes are opaque: the loader passes them on
        if path[:2] == ("annotations", "patches") and len(path) > 3:
            continue
        for value in wrong_values(get(doc, path)):
            yield path, with_value(doc, path, value)


def test_untouched_copy_evaluates(work):
    assert run_eval(work) == 0


@pytest.mark.parametrize("name", ["ck/state.json", "data/manifest.json"])
def test_every_field_of_a_wrong_type_is_rejected(saved, tmp_path, capsys, name):
    count = 0
    for i, (path, doc) in enumerate(mutations(saved, name)):
        work = tmp_path / str(i)
        shutil.copytree(saved, work)
        (work / name).write_text(json.dumps(doc))
        try:
            assert_rejected(work, capsys)
        except (Exception, pytest.fail.Exception) as e:
            raise AssertionError(f"{name} field {path!r} set to {get(doc, path)!r}") from e
        count += 1
    assert count > 60


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("data/manifest.json", ("samples", 0, "session"), "x"),
        ("data/manifest.json", ("samples", 0, "label"), "x"),
        ("data/manifest.json", ("samples", 0, "row"), "x"),
        ("data/manifest.json", ("samples", 0, "split"), "valid"),
        ("data/manifest.json", ("config", "channels"), "x"),
        ("data/manifest.json", ("classes", 0, "id"), 1.5),
        ("ck/state.json", ("class_ids",), ["a", "b"]),
        ("ck/state.json", ("hyperparams", "tau"), "x"),
        ("ck/state.json", ("hyperparams", "n_primitives"), 2.0),
        ("ck/state.json", ("hyperparams", "lambda1"), float("nan")),
        ("ck/state.json", ("hyperparams", "init_sigma"), -1.0),
        ("ck/state.json", ("loss_history",), {"0": ["x"]}),
        ("ck/state.json", ("class_sessions",), [1]),
        ("ck/state.json", ("class_sessions",), {"a": 0}),
        ("ck/state.json", ("hyperparams",), [1]),
    ],
)
def test_reported_malformed_fields_are_data_errors(work, capsys, name, path, value):
    doc = json.loads((work / name).read_text())
    (work / name).write_text(json.dumps(with_value(doc, path, value)))
    assert_rejected(work, capsys)


@pytest.mark.parametrize("name", TENSORS)
def test_truncated_tensor_files_are_rejected(saved, tmp_path, capsys, name):
    size = (saved / name).stat().st_size
    rng = np.random.default_rng([0, size])
    for cut in sorted({0, 3, 15, size - 1, *rng.integers(1, size, 5).tolist()}):
        work = tmp_path / str(cut)
        shutil.copytree(saved, work)
        (work / name).write_bytes((saved / name).read_bytes()[:cut])
        assert_rejected(work, capsys)


@pytest.mark.parametrize("name", TENSORS)
def test_flipped_tensor_bytes(saved, tmp_path, capsys, name):
    raw = (saved / name).read_bytes()
    header = 16 + 4 * int.from_bytes(raw[12:16], "little")
    rng = np.random.default_rng([1, len(raw)])
    for i, pos in enumerate(rng.integers(0, len(raw), 40).tolist()):
        work = tmp_path / str(i)
        shutil.copytree(saved, work)
        flipped = bytearray(raw)
        flipped[pos] ^= int(rng.integers(1, 256))
        (work / name).write_bytes(bytes(flipped))
        if pos < header:
            assert_rejected(work, capsys)
            continue
        try:
            load_checkpoint(work / "ck")
            load_dataset(work / "data")
        except CompsetError:
            pass
        assert run_eval(work) in (0, 2)


def test_overflowing_test_maps_exit_2(work, capsys):
    # one finite entry of 1e200 overflows its map's Gram: scoring raises
    # NumericalFailure instead of a NaN score row voting for class 0
    path = work / "data" / "session1_test.ckat"
    maps = read_tensor(path)
    maps[0, 0, 0] = 1e200
    write_tensor(path, maps)
    capsys.readouterr()
    assert run_eval(work) == 2
    assert "overflow" in capsys.readouterr().err


def test_overflowing_test_maps_exit_2_from_importance(work, capsys):
    # ranking by true label scores no full map at these keep counts, so the
    # overflow surfaces in the patch importances, which once ranked NaNs
    path = work / "data" / "session1_test.ckat"
    maps = read_tensor(path)
    maps[0, 0, 0] = 1e200
    write_tensor(path, maps)
    capsys.readouterr()
    argv = ["importance", "--ckpt", str(work / "ck"), "--data", str(work / "data"),
            "--keep", "1,2", "--true-label", "--retrieval-top-k", "5"]
    assert main(argv) == 2
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["ck/bank.ckat", "ck/weights.ckat"])
def test_non_finite_parameters_are_rejected(work, capsys, name):
    raw = bytearray((work / name).read_bytes())
    raw[-8:] = np.array([np.nan]).tobytes()
    (work / name).write_bytes(bytes(raw))
    assert_rejected(work, capsys)
