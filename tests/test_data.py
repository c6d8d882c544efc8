"""Tests for the tensor container, feature batches, and the synthetic task."""

import json
import struct
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from compset import (
    BadMagic,
    BadVersion,
    FeatureBatch,
    InvalidInput,
    SynthConfig,
    TruncatedPayload,
    UnknownDtype,
    load_dataset,
    read_tensor,
    save_dataset,
    synth_generate,
    write_tensor,
)
from compset.data import write_atomic

GOLDEN_HEX = (
    "434b4154"  # magic "CKAT"
    "01000000"  # version 1
    "01000000"  # dtype code 1 (float32)
    "02000000"  # ndim 2
    "01000000"  # dim 0 = 1
    "02000000"  # dim 1 = 2
    "0000803f"  # 1.0f
    "00000040"  # 2.0f
)


class TestContainerGolden:
    def test_write_matches_golden_bytes(self, tmp_path):
        path = tmp_path / "t.ckat"
        write_tensor(path, np.array([[1.0, 2.0]], dtype=np.float32))
        assert path.read_bytes() == bytes.fromhex(GOLDEN_HEX)

    def test_read_golden_bytes(self, tmp_path):
        path = tmp_path / "t.ckat"
        path.write_bytes(bytes.fromhex(GOLDEN_HEX))
        arr = read_tensor(path)
        assert arr.dtype == np.float32
        assert arr.shape == (1, 2)
        np.testing.assert_array_equal(arr, np.array([[1.0, 2.0]], dtype=np.float32))

    def test_header_is_sixteen_plus_four_per_dim(self, tmp_path):
        rng = np.random.default_rng(3)
        for ndim in (1, 2, 3, 4):
            shape = tuple(int(v) for v in rng.integers(1, 4, size=ndim))
            path = tmp_path / f"h{ndim}.ckat"
            arr = rng.standard_normal(shape)
            write_tensor(path, arr)
            want = 16 + 4 * ndim + arr.size * 8
            assert path.stat().st_size == want


class TestRoundTrip:
    def test_bit_exact_both_dtypes_up_to_three_dims(self, tmp_path):
        rng = np.random.default_rng(0)
        case = 0
        for dtype in (np.float32, np.float64):
            for ndim in (1, 2, 3):
                for _ in range(5):
                    shape = tuple(int(v) for v in rng.integers(1, 6, size=ndim))
                    arr = rng.standard_normal(shape).astype(dtype)
                    path = tmp_path / f"rt{case}.ckat"
                    case += 1
                    write_tensor(path, arr)
                    back = read_tensor(path)
                    assert back.dtype == arr.dtype
                    assert back.shape == arr.shape
                    assert back.tobytes() == arr.tobytes()

    def test_special_values_survive(self, tmp_path):
        arr = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e300])
        path = tmp_path / "s.ckat"
        write_tensor(path, arr)
        assert read_tensor(path).tobytes() == arr.tobytes()

    def test_noncontiguous_input_saves_logical_order(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((3, 4))
        path = tmp_path / "t.ckat"
        write_tensor(path, arr.T)
        np.testing.assert_array_equal(read_tensor(path), arr.T)

    def test_result_is_writable(self, tmp_path):
        path = tmp_path / "w.ckat"
        write_tensor(path, np.ones(3))
        back = read_tensor(path)
        back[0] = 7.0
        assert back[0] == 7.0

    def test_integer_array_rejected(self, tmp_path):
        with pytest.raises(UnknownDtype):
            write_tensor(tmp_path / "i.ckat", np.arange(4))

    def test_half_precision_rejected(self, tmp_path):
        with pytest.raises(UnknownDtype):
            write_tensor(tmp_path / "h.ckat", np.ones(3, dtype=np.float16))

    def test_scalar_promotes_to_one_element_vector(self, tmp_path):
        path = tmp_path / "0.ckat"
        write_tensor(path, np.float64(1.5))
        back = read_tensor(path)
        assert back.shape == (1,)
        assert back[0] == 1.5

    def test_zero_sized_dim_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            write_tensor(tmp_path / "z.ckat", np.empty((2, 0)))

    def test_too_many_dims_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            write_tensor(tmp_path / "n.ckat", np.ones((1,) * 33))


def _valid_bytes():
    return bytes.fromhex(GOLDEN_HEX)


class TestCorruption:
    def _expect(self, tmp_path, raw, exc):
        path = tmp_path / "bad.ckat"
        path.write_bytes(raw)
        with pytest.raises(exc):
            read_tensor(path)

    def test_bad_magic(self, tmp_path):
        raw = b"X" + _valid_bytes()[1:]
        self._expect(tmp_path, raw, BadMagic)

    def test_header_cut_short(self, tmp_path):
        self._expect(tmp_path, _valid_bytes()[:10], TruncatedPayload)

    def test_bad_version(self, tmp_path):
        raw = bytearray(_valid_bytes())
        struct.pack_into("<I", raw, 4, 2)
        self._expect(tmp_path, bytes(raw), BadVersion)

    def test_unknown_dtype_code(self, tmp_path):
        raw = bytearray(_valid_bytes())
        struct.pack_into("<I", raw, 8, 3)
        self._expect(tmp_path, bytes(raw), UnknownDtype)

    def test_implausible_ndim(self, tmp_path):
        raw = bytearray(_valid_bytes())
        struct.pack_into("<I", raw, 12, 1000)
        self._expect(tmp_path, bytes(raw), TruncatedPayload)

    def test_zero_ndim(self, tmp_path):
        raw = bytearray(_valid_bytes())
        struct.pack_into("<I", raw, 12, 0)
        self._expect(tmp_path, bytes(raw), TruncatedPayload)

    def test_dims_cut_short(self, tmp_path):
        raw = b"CKAT" + struct.pack("<III", 1, 1, 3) + struct.pack("<II", 2, 2)
        self._expect(tmp_path, raw, TruncatedPayload)

    def test_zero_sized_dim(self, tmp_path):
        raw = b"CKAT" + struct.pack("<III", 1, 2, 2) + struct.pack("<II", 2, 0)
        self._expect(tmp_path, raw, TruncatedPayload)

    def test_truncated_last_byte(self, tmp_path):
        self._expect(tmp_path, _valid_bytes()[:-1], TruncatedPayload)

    def test_extra_trailing_byte(self, tmp_path):
        self._expect(tmp_path, _valid_bytes() + b"\x00", TruncatedPayload)

    def test_payload_missing_entirely(self, tmp_path):
        self._expect(tmp_path, _valid_bytes()[:24], TruncatedPayload)

    def test_header_promising_more_than_the_file_holds(self, tmp_path):
        # 8 * (2**32 - 1)**3 bytes: checked against the file size, never allocated
        raw = b"CKAT" + struct.pack("<III", 1, 2, 3) + struct.pack("<III", *(3 * [2**32 - 1]))
        self._expect(tmp_path, raw + bytes(64), TruncatedPayload)

    def test_read_is_writable_and_owns_its_memory(self, tmp_path):
        path = tmp_path / "t.ckat"
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        got = read_tensor(path)
        assert got.flags.writeable and got.flags.owndata and got.flags.c_contiguous
        np.testing.assert_array_equal(got, np.arange(6.0).reshape(2, 3))

    def test_error_message_names_the_file(self, tmp_path):
        path = tmp_path / "named.ckat"
        path.write_bytes(_valid_bytes()[:-1])
        with pytest.raises(TruncatedPayload, match="named.ckat"):
            read_tensor(path)


class TestAtomicWrites:
    @staticmethod
    def fail_part_way(monkeypatch):
        """Make every file write stop with a full disk after half the bytes
        of its first write."""
        real_open = Path.open

        class HalfThenFail:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                data = memoryview(data.encode() if isinstance(data, str) else data).cast("B")
                self.f.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        def opened(self, mode="r", *args, **kwargs):
            f = real_open(self, mode, *args, **kwargs)
            return HalfThenFail(f) if "w" in mode else f

        monkeypatch.setattr(Path, "open", opened)

    def test_failed_tensor_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.ckat"
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        before = path.read_bytes()
        self.fail_part_way(monkeypatch)
        with pytest.raises(OSError):
            write_tensor(path, np.ones((40, 3)))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.ckat"]

    def test_failed_dataset_save_keeps_the_old_files(self, tmp_path, monkeypatch):
        cfg = SynthConfig(base_classes=2, incremental_sessions=0, train_per_base_class=2,
                          test_per_class=2, seed=1)
        save_dataset(synth_generate(cfg), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        self.fail_part_way(monkeypatch)
        with pytest.raises(OSError):
            save_dataset(synth_generate(replace(cfg, seed=2)), tmp_path)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_text_is_written_as_utf8_and_replaces_the_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("old")
        write_atomic(path, '{"a": 1}\n')
        assert path.read_bytes() == b'{"a": 1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestNumpyImport:
    def test_npy_file_is_loaded(self, tmp_path):
        rng = np.random.default_rng(7)
        arr = rng.standard_normal((4, 5))
        path = tmp_path / "x.npy"
        np.save(path, arr)
        np.testing.assert_array_equal(read_tensor(path), arr)

    def test_npy_float32_preserved(self, tmp_path):
        arr = np.ones((2, 3), dtype=np.float32)
        path = tmp_path / "y.npy"
        np.save(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr)

    def test_corrupt_npy_rejected_with_typed_error(self, tmp_path):
        path = tmp_path / "broken.npy"
        path.write_bytes(b"\x93NUMPY" + b"\x01\x00garbage-not-a-header")
        with pytest.raises(InvalidInput, match="broken.npy"):
            read_tensor(path)

    def test_object_npy_rejected_with_typed_error(self, tmp_path):
        path = tmp_path / "obj.npy"
        np.save(path, np.array([{"a": 1}], dtype=object), allow_pickle=True)
        with pytest.raises(InvalidInput, match="obj.npy"):
            read_tensor(path)

    @pytest.mark.parametrize("arr", [
        np.array([["a", "b"], ["c", "d"]]),
        np.array([[1.0 + 2.0j, 3.0]]),
        np.zeros(2, dtype=[("x", "f8"), ("y", "f8")]),
        np.array([1, 2], dtype="datetime64[D]"),
    ], ids=["str", "complex", "record", "datetime"])
    def test_non_real_npy_rejected_naming_the_file(self, tmp_path, arr):
        # a string map once raised a bare ValueError; a complex one lost its
        # imaginary part with only a warning
        path = tmp_path / "odd.npy"
        np.save(path, arr)
        with pytest.raises(UnknownDtype, match="odd.npy"):
            read_tensor(path)

    def test_zero_dim_npy_rejected(self, tmp_path):
        path = tmp_path / "scalar.npy"
        np.save(path, np.float64(3.0))
        with pytest.raises(InvalidInput, match=r"scalar\.npy.*ndim"):
            read_tensor(path)

    @pytest.mark.parametrize("dtype", [bool, np.int32, np.uint8, np.float16])
    def test_real_number_npy_accepted(self, tmp_path, dtype):
        arr = np.arange(6).reshape(2, 3).astype(dtype)
        path = tmp_path / "ok.npy"
        np.save(path, arr)
        back = read_tensor(path)
        assert back.dtype == arr.dtype
        np.testing.assert_array_equal(back, arr)


def _toy_batch(b=4, n=3, d=5, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureBatch(
        X=rng.standard_normal((b, n, d)),
        labels=rng.integers(0, 3, size=b),
        sessions=np.zeros(b, dtype=np.int64),
        sample_ids=[f"s{i}" for i in range(b)],
    )


class TestFeatureBatch:
    def test_len_and_dtype_coercion(self):
        batch = FeatureBatch(
            X=np.ones((2, 3, 4), dtype=np.float32),
            labels=[1, 2],
            sessions=[0, 0],
            sample_ids=["a", "b"],
        )
        assert len(batch) == 2
        assert batch.X.dtype == np.float64
        assert batch.labels.dtype == np.int64

    def test_subset_picks_rows(self):
        batch = _toy_batch()
        sub = batch.subset([2, 0])
        np.testing.assert_array_equal(sub.X, batch.X[[2, 0]])
        np.testing.assert_array_equal(sub.labels, batch.labels[[2, 0]])
        assert sub.sample_ids == ["s2", "s0"]

    def test_subset_boolean_mask_keeps_metadata_aligned(self):
        batch = _toy_batch(b=6)
        rng = np.random.default_rng(11)
        for _ in range(20):
            mask = rng.random(6) < 0.5
            sub = batch.subset(mask)
            picked = np.flatnonzero(mask)
            np.testing.assert_array_equal(sub.X, batch.X[picked])
            np.testing.assert_array_equal(sub.labels, batch.labels[picked])
            assert sub.sample_ids == [batch.sample_ids[i] for i in picked]

    def test_subset_rejects_wrong_length_mask(self):
        batch = _toy_batch(b=4)
        with pytest.raises(InvalidInput):
            batch.subset(np.array([True, False, True]))

    def test_concat_of_subsets_rebuilds_batch(self):
        batch = _toy_batch(b=6)
        joined = FeatureBatch.concat([batch.subset([0, 1]), batch.subset([2, 3, 4]), batch.subset([5])])
        np.testing.assert_array_equal(joined.X, batch.X)
        np.testing.assert_array_equal(joined.labels, batch.labels)
        assert joined.sample_ids == batch.sample_ids

    def test_concat_rejects_empty_list(self):
        with pytest.raises(InvalidInput):
            FeatureBatch.concat([])

    def test_rejects_metadata_length_mismatch(self):
        with pytest.raises(InvalidInput):
            FeatureBatch(
                X=np.ones((2, 3, 4)),
                labels=[0],
                sessions=[0, 0],
                sample_ids=["a", "b"],
            )

    def test_rejects_non_three_dim_stack(self):
        with pytest.raises(InvalidInput):
            FeatureBatch(X=np.ones((3, 4)), labels=[0, 1, 2], sessions=[0, 0, 0], sample_ids=["a", "b", "c"])


SMALL = SynthConfig(
    pool_size=8,
    primitives_per_class=3,
    shared_patches=4,
    distractor_patches=2,
    noise_sigma=0.1,
    channels=6,
    base_classes=4,
    incremental_sessions=2,
    classes_per_session=2,
    shots=2,
    test_per_class=3,
    train_per_base_class=5,
    seed=11,
)


class TestSynthConfig:
    def test_default_config_is_valid(self):
        SynthConfig().validate()

    def test_derived_counts_on_default(self):
        cfg = SynthConfig()
        assert cfg.patches == 16
        assert cfg.n_classes == 30
        assert cfg.n_sessions == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"primitives_per_class": 31},
            {"pool_size": 1, "primitives_per_class": 1},
            {"primitives_per_class": 0},
            {"shared_patches": 0},
            {"channels": 1},
            {"base_classes": 1},
            {"incremental_sessions": -1},
            {"classes_per_session": 0},
            {"shots": 0},
            {"test_per_class": 0},
            {"train_per_base_class": 0},
            {"noise_sigma": -0.5},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(InvalidInput):
            replace(SynthConfig(), **kwargs).validate()


class TestSynthGenerate:
    def test_shapes_and_counts(self):
        ds = synth_generate(SMALL)
        assert ds.pool.shape == (8, 6)
        assert ds.n_sessions == 3
        assert sorted(ds.train) == [0, 1, 2]
        assert sorted(ds.test) == [0, 1, 2]
        assert ds.train[0].X.shape == (4 * 5, 6, 6)
        assert ds.train[1].X.shape == (2 * 2, 6, 6)
        assert ds.test[2].X.shape == (2 * 3, 6, 6)
        assert ds.classes_of_session(0) == [0, 1, 2, 3]
        assert ds.classes_of_session(1) == [4, 5]
        assert ds.classes_of_session(2) == [6, 7]

    def test_pool_is_nonnegative(self):
        ds = synth_generate(SMALL)
        assert np.all(ds.pool >= 0)
        assert np.any(ds.pool > 0)

    def test_labels_match_session_rosters(self):
        ds = synth_generate(SMALL)
        for k in range(3):
            for batch in (ds.train[k], ds.test[k]):
                assert set(batch.labels.tolist()) == set(ds.classes_of_session(k))
                assert np.all(batch.sessions == k)

    def test_sample_ids_unique_and_annotated(self):
        ds = synth_generate(SMALL)
        seen = []
        for table in (ds.train, ds.test):
            for batch in table.values():
                seen.extend(batch.sample_ids)
        assert len(seen) == len(set(seen))
        assert set(seen) == set(ds.patch_annotations)

    def test_annotation_shape_contract(self):
        ds = synth_generate(SMALL)
        for note in ds.patch_annotations.values():
            assert len(note["pool_index"]) == SMALL.patches
            assert len(note["shared"]) == SMALL.shared_patches
            assert note["shared"] == sorted(note["shared"])
            for p in note["shared"]:
                assert note["pool_index"][p] >= 0

    def test_each_class_picks_distinct_primitives(self):
        ds = synth_generate(SMALL)
        for c, picks in ds.class_primitives.items():
            assert len(picks) == SMALL.primitives_per_class
            assert len(set(picks)) == SMALL.primitives_per_class
            assert all(0 <= p < SMALL.pool_size for p in picks)

    def test_incremental_classes_reuse_base_vocabulary(self):
        for seed in range(5):
            ds = synth_generate(replace(SMALL, seed=seed))
            base_union = set()
            for c in ds.classes_of_session(0):
                base_union.update(ds.class_primitives[c])
            for c, s in ds.class_sessions.items():
                if s > 0:
                    assert set(ds.class_primitives[c]) & base_union

    def test_incremental_reuse_on_default_config(self):
        ds = synth_generate(SynthConfig())
        base_union = set()
        for c in ds.classes_of_session(0):
            base_union.update(ds.class_primitives[c])
        for c, s in ds.class_sessions.items():
            if s > 0:
                assert set(ds.class_primitives[c]) & base_union

    def test_zero_noise_shared_patches_equal_pool_rows(self):
        ds = synth_generate(replace(SMALL, noise_sigma=0.0))
        for table in (ds.train, ds.test):
            for batch in table.values():
                for i, sid in enumerate(batch.sample_ids):
                    note = ds.patch_annotations[sid]
                    for p in note["shared"]:
                        src = note["pool_index"][p]
                        np.testing.assert_array_equal(batch.X[i, p], ds.pool[src])

    def test_zero_noise_no_distractors_patches_are_true_primitives(self):
        cfg = replace(SMALL, noise_sigma=0.0, distractor_patches=0)
        ds = synth_generate(cfg)
        for table in (ds.train, ds.test):
            for batch in table.values():
                for i in range(len(batch)):
                    own = ds.class_primitives[int(batch.labels[i])]
                    own_rows = ds.pool[own]
                    for p in range(cfg.patches):
                        hits = np.all(batch.X[i, p] == own_rows, axis=1)
                        assert hits.any()

    def test_zero_noise_sourced_distractors_equal_pool_rows(self):
        ds = synth_generate(replace(SMALL, noise_sigma=0.0))
        for batch in ds.train.values():
            for i, sid in enumerate(batch.sample_ids):
                note = ds.patch_annotations[sid]
                for p, src in enumerate(note["pool_index"]):
                    if src >= 0:
                        np.testing.assert_array_equal(batch.X[i, p], ds.pool[src])

    def test_default_noise_annotations_agree_with_nearest_pool(self):
        ds = synth_generate(SynthConfig())
        batches = [ds.train[k] for k in sorted(ds.train)]
        batches += [ds.test[k] for k in sorted(ds.test)]
        patches = []
        sources = []
        for batch in batches:
            for i, sid in enumerate(batch.sample_ids):
                note = ds.patch_annotations[sid]
                patches.append(batch.X[i, note["shared"]])
                sources.extend(note["pool_index"][p] for p in note["shared"])
        stack = np.concatenate(patches, axis=0)
        want = np.asarray(sources)
        d2 = (
            np.sum(stack**2, axis=1)[:, None]
            - 2.0 * stack @ ds.pool.T
            + np.sum(ds.pool**2, axis=1)[None, :]
        )
        got = np.argmin(d2, axis=1)
        agreement = float(np.mean(got == want))
        assert agreement >= 0.99

    def test_same_seed_is_bit_identical(self):
        a = synth_generate(SMALL)
        b = synth_generate(SMALL)
        np.testing.assert_array_equal(a.pool, b.pool)
        assert a.class_primitives == b.class_primitives
        for k in a.train:
            assert a.train[k].X.tobytes() == b.train[k].X.tobytes()
            assert a.test[k].X.tobytes() == b.test[k].X.tobytes()
        assert a.patch_annotations == b.patch_annotations

    def test_different_seeds_differ(self):
        a = synth_generate(SMALL)
        b = synth_generate(replace(SMALL, seed=12))
        assert a.pool.tobytes() != b.pool.tobytes()

    def test_invalid_config_rejected_at_generation(self):
        with pytest.raises(InvalidInput):
            synth_generate(replace(SMALL, channels=1))


class TestSaveLoad:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = synth_generate(SMALL)
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert asdict(back.config) == asdict(ds.config)
        np.testing.assert_array_equal(back.pool, ds.pool)
        assert back.class_sessions == ds.class_sessions
        assert back.class_primitives == ds.class_primitives
        for k in ds.train:
            for split in ("train", "test"):
                a = (ds.train if split == "train" else ds.test)[k]
                b = (back.train if split == "train" else back.test)[k]
                assert a.X.tobytes() == b.X.tobytes()
                np.testing.assert_array_equal(a.labels, b.labels)
                np.testing.assert_array_equal(a.sessions, b.sessions)
                assert a.sample_ids == b.sample_ids
        assert back.patch_annotations == ds.patch_annotations

    def test_manifest_schema(self, tmp_path):
        mpath = save_dataset(synth_generate(SMALL), tmp_path)
        manifest = json.loads(mpath.read_text())
        assert manifest["format"] == "compset-dataset"
        assert manifest["version"] == 1
        assert manifest["seed"] == SMALL.seed
        assert set(manifest["config"]) == set(asdict(SMALL))
        for entry in manifest["classes"]:
            assert set(entry) == {"id", "session"}
        for rec in manifest["samples"]:
            assert {"path", "label", "session"} <= set(rec)
        assert set(manifest["annotations"]) == {"class_primitives", "patches"}

    def test_same_seed_saves_byte_identical_directories(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        save_dataset(synth_generate(SMALL), a)
        save_dataset(synth_generate(SMALL), b)
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_reload_then_resave_is_stable(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        save_dataset(synth_generate(SMALL), first)
        save_dataset(load_dataset(first), second)
        for name in sorted(p.name for p in first.iterdir()):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            load_dataset(tmp_path)

    def test_wrong_format_rejected(self, tmp_path):
        save_dataset(synth_generate(SMALL), tmp_path)
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["format"] = "something-else"
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(InvalidInput):
            load_dataset(tmp_path)

    def test_unknown_config_keys_rejected(self, tmp_path):
        save_dataset(synth_generate(SMALL), tmp_path)
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["config"]["mystery_knob"] = 3
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(InvalidInput, match="mystery_knob"):
            load_dataset(tmp_path)

    def test_non_dense_rows_rejected(self, tmp_path):
        save_dataset(synth_generate(SMALL), tmp_path)
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        victim = next(r for r in manifest["samples"] if r["split"] == "train" and r["session"] == 0)
        manifest["samples"].remove(victim)
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(InvalidInput):
            load_dataset(tmp_path)

    def test_split_spanning_two_files_rejected(self, tmp_path):
        save_dataset(synth_generate(SMALL), tmp_path)
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        rows = [r for r in manifest["samples"] if r["split"] == "train" and r["session"] == 0]
        copy = tmp_path / "copy.ckat"
        copy.write_bytes((tmp_path / rows[0]["path"]).read_bytes())
        rows[0]["path"] = "copy.ckat"
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(InvalidInput):
            load_dataset(tmp_path)

    def test_missing_base_train_rejected(self, tmp_path):
        save_dataset(synth_generate(SMALL), tmp_path)
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["samples"] = [
            r for r in manifest["samples"] if not (r["split"] == "train" and r["session"] == 0)
        ]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(InvalidInput):
            load_dataset(tmp_path)

    def test_unknown_manifest_sections_are_tolerated(self, tmp_path):
        save_dataset(synth_generate(SMALL), tmp_path)
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["extra_section"] = {"free": "form"}
        mpath.write_text(json.dumps(manifest))
        ds = load_dataset(tmp_path)
        assert ds.n_sessions == 3

    def test_corrupt_tensor_surfaces_container_error(self, tmp_path):
        save_dataset(synth_generate(SMALL), tmp_path)
        victim = tmp_path / "session0_train.ckat"
        victim.write_bytes(victim.read_bytes()[:-1])
        with pytest.raises(TruncatedPayload):
            load_dataset(tmp_path)

    def test_corrupt_manifest_json_rejected(self, tmp_path):
        save_dataset(synth_generate(SMALL), tmp_path)
        mpath = tmp_path / "manifest.json"
        mpath.write_text(mpath.read_text()[:-30])
        with pytest.raises(InvalidInput, match="not valid JSON"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key", ["config", "classes", "samples"])
    def test_missing_required_manifest_key_rejected(self, tmp_path, key):
        save_dataset(synth_generate(SMALL), tmp_path)
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        del manifest[key]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(InvalidInput, match=key):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("field", ["row", "path", "label", "id"])
    def test_sample_entry_missing_field_rejected(self, tmp_path, field):
        save_dataset(synth_generate(SMALL), tmp_path)
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        del manifest["samples"][0][field]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(InvalidInput):
            load_dataset(tmp_path)

    def test_malformed_class_entry_rejected(self, tmp_path):
        save_dataset(synth_generate(SMALL), tmp_path)
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["classes"][0] = "not-a-dict"
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(InvalidInput, match="malformed"):
            load_dataset(tmp_path)
