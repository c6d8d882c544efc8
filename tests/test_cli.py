"""End-to-end tests of the command-line front end (in-process)."""

import json
import shutil

import numpy as np
import pytest

from compset import load_checkpoint, load_dataset, write_tensor
from compset.cli import main
from compset.protocol import evaluate_sessions

MICRO_CONFIG = {
    "synth": {
        "pool_size": 20,
        "primitives_per_class": 3,
        "shared_patches": 6,
        "distractor_patches": 2,
        "noise_sigma": 0.1,
        "channels": 16,
        "base_classes": 4,
        "incremental_sessions": 2,
        "classes_per_session": 2,
        "shots": 3,
        "test_per_class": 5,
        "train_per_base_class": 20,
        "seed": 0,
    },
    "hyperparams": {
        "n_primitives": 6,
        "base_epochs": 40,
        "inc_epochs": 25,
        "batch_size": 16,
        "seed": 0,
    },
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One full CLI pipeline: gen, train-base, two train-inc steps."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(MICRO_CONFIG))
    data = root / "data"
    ck0 = root / "ck0"
    ck1 = root / "ck1"
    ck2 = root / "ck2"
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train-base", "--config", str(cfg), "--data", str(data), "--out", str(ck0)]) == 0
    assert main(["train-inc", "--ckpt", str(ck0), "--data", str(data), "--out", str(ck1)]) == 0
    assert main(["train-inc", "--ckpt", str(ck1), "--data", str(data), "--out", str(ck2)]) == 0
    return {"root": root, "cfg": cfg, "data": data, "ck0": ck0, "ck1": ck1, "ck2": ck2}


def provenance_core(path):
    """Provenance minus the fields that differ across distinct invocations:
    the timestamp and the argv (the two runs use different --out paths)."""
    doc = json.loads(path.read_text())
    doc.pop("timestamp")
    doc.pop("argv")
    return doc


class TestParsing:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("gen", "train-base", "train-inc", "eval", "sweep",
                     "importance", "reuse-eval", "compare-reps", "bench"):
            assert name in out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["importance", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--ckpt", "--data", "--keep", "--true-label", "--retrieval-top-k"):
            assert flag in out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["mystery"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["gen", "--out", "x", "--mystery"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self):
        assert main(["gen"]) == 1

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1


class TestGen:
    def test_writes_dataset_and_provenance(self, work, capsys):
        names = {p.name for p in work["data"].iterdir()}
        assert "manifest.json" in names
        assert "pool.ckat" in names
        assert "session0_train.ckat" in names
        assert "provenance.json" in names
        ds = load_dataset(work["data"])
        assert ds.config.base_classes == 4

    def test_prints_summary_line(self, tmp_path, capsys):
        out = tmp_path / "ds"
        rc = main(["gen", "--out", str(out), "--seed", "1", "--base-classes", "2",
                   "--incremental-sessions", "0", "--train-per-base-class", "2",
                   "--test-per-class", "2", "--shots", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 classes over 1 sessions" in text

    def test_same_seed_regenerates_identical_bytes(self, work, tmp_path):
        again = tmp_path / "again"
        assert main(["gen", "--config", str(work["cfg"]), "--out", str(again)]) == 0
        names = sorted(p.name for p in work["data"].iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            a = (work["data"] / name).read_bytes()
            b = (again / name).read_bytes()
            if name == "provenance.json":
                continue
            assert a == b, name
        assert provenance_core(work["data"] / "provenance.json") == provenance_core(
            again / "provenance.json"
        )

    def test_config_that_is_a_directory_is_data_error(self, tmp_path, capsys):
        rc = main(["gen", "--config", str(tmp_path), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_seed_outside_32_bits_is_data_error(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path / "x"), "--seed", str(2**32)])
        assert rc == 2
        assert "seed must be in [0, 2**32)" in capsys.readouterr().err

    def test_invalid_synth_setting_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path / "x"), "--base-classes", "1"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_preset_sets_hyperparams(self, work, tmp_path):
        out = tmp_path / "ck"
        rc = main(["train-base", "--preset", "cub-like", "--base-epochs", "1",
                   "--n-primitives", "2", "--data", str(work["data"]), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "state.json").read_text())
        assert doc["hyperparams"]["alpha"] == 0.5
        assert doc["hyperparams"]["lambda1"] == 0.01

    def test_config_file_overrides_preset(self, work, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hyperparams": {"alpha": 0.9, "base_epochs": 1, "n_primitives": 2}}))
        out = tmp_path / "ck"
        rc = main(["train-base", "--preset", "cub-like", "--config", str(cfg),
                   "--data", str(work["data"]), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "state.json").read_text())
        assert doc["hyperparams"]["alpha"] == 0.9
        assert doc["hyperparams"]["lambda1"] == 0.01

    def test_flag_overrides_config_file(self, work, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hyperparams": {"alpha": 0.9, "base_epochs": 1, "n_primitives": 2}}))
        out = tmp_path / "ck"
        rc = main(["train-base", "--config", str(cfg), "--alpha", "0.7",
                   "--data", str(work["data"]), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "state.json").read_text())
        assert doc["hyperparams"]["alpha"] == 0.7

    def test_seed_flag_reaches_both_sections(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["gen", "--out", str(out), "--seed", "5", "--base-classes", "2",
                     "--incremental-sessions", "0", "--train-per-base-class", "2",
                     "--test-per-class", "2", "--shots", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["seed"] == 5

    def test_unknown_preset_is_usage_error(self, work, tmp_path, capsys):
        rc = main(["train-base", "--preset", "mystery", "--data", str(work["data"]),
                   "--out", str(tmp_path / "ck")])
        assert rc == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_unknown_config_section_is_usage_error(self, work, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery": {}}))
        rc = main(["train-base", "--config", str(cfg), "--data", str(work["data"]),
                   "--out", str(tmp_path / "ck")])
        assert rc == 1

    def test_unknown_config_key_is_usage_error(self, work, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hyperparams": {"mystery": 1}}))
        rc = main(["train-base", "--config", str(cfg), "--data", str(work["data"]),
                   "--out", str(tmp_path / "ck")])
        assert rc == 1

    def test_missing_config_file_is_usage_error(self, work, tmp_path):
        rc = main(["train-base", "--config", str(tmp_path / "nope.json"),
                   "--data", str(work["data"]), "--out", str(tmp_path / "ck")])
        assert rc == 1

    def test_malformed_config_file_is_usage_error(self, work, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc = main(["train-base", "--config", str(cfg), "--data", str(work["data"]),
                   "--out", str(tmp_path / "ck")])
        assert rc == 1

    def test_invalid_hyperparam_value_is_usage_error(self, work, tmp_path):
        rc = main(["train-base", "--tau", "0", "--data", str(work["data"]),
                   "--out", str(tmp_path / "ck")])
        assert rc == 1


class TestTrainBase:
    def test_checkpoint_contents(self, work, capsys):
        names = {p.name for p in work["ck0"].iterdir()}
        assert names >= {"bank.ckat", "weights.ckat", "state.json", "provenance.json"}
        state = load_checkpoint(work["ck0"])
        assert state.bank.class_ids == [0, 1, 2, 3]

    def test_rerun_is_byte_identical_except_provenance(self, work, tmp_path):
        again = tmp_path / "ck"
        rc = main(["train-base", "--config", str(work["cfg"]),
                   "--data", str(work["data"]), "--out", str(again)])
        assert rc == 0
        for name in ("bank.ckat", "weights.ckat", "state.json"):
            assert (again / name).read_bytes() == (work["ck0"] / name).read_bytes()
        assert provenance_core(again / "provenance.json") == provenance_core(
            work["ck0"] / "provenance.json"
        )

    def test_missing_data_flag_and_env_is_usage_error(self, work, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("COMPSET_DATA_DIR", raising=False)
        rc = main(["train-base", "--config", str(work["cfg"]), "--out", str(tmp_path / "ck")])
        assert rc == 1
        assert "COMPSET_DATA_DIR" in capsys.readouterr().err

    def test_env_var_supplies_data_dir(self, work, tmp_path, monkeypatch):
        monkeypatch.setenv("COMPSET_DATA_DIR", str(work["data"]))
        out = tmp_path / "ck"
        rc = main(["train-base", "--config", str(work["cfg"]), "--base-epochs", "1",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "state.json").exists()

    def test_data_flag_beats_env_var(self, work, tmp_path, monkeypatch):
        monkeypatch.setenv("COMPSET_DATA_DIR", str(tmp_path / "nowhere"))
        out = tmp_path / "ck"
        rc = main(["train-base", "--config", str(work["cfg"]), "--base-epochs", "1",
                   "--data", str(work["data"]), "--out", str(out)])
        assert rc == 0

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        rc = main(["train-base", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "ck")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_manifest_is_data_error(self, work, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(work["data"], data)
        mpath = data / "manifest.json"
        mpath.write_text(mpath.read_text()[:-30])
        rc = main(["train-base", "--data", str(data), "--out", str(tmp_path / "ck")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "Traceback" not in err

    def test_manifest_missing_key_is_data_error(self, work, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(work["data"], data)
        mpath = data / "manifest.json"
        doc = json.loads(mpath.read_text())
        del doc["classes"]
        mpath.write_text(json.dumps(doc))
        rc = main(["train-base", "--data", str(data), "--out", str(tmp_path / "ck")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "classes" in err
        assert "Traceback" not in err


class TestTrainInc:
    def test_grows_the_registry(self, work):
        s0 = load_checkpoint(work["ck0"])
        s1 = load_checkpoint(work["ck1"])
        s2 = load_checkpoint(work["ck2"])
        assert [len(s.bank.class_ids) for s in (s0, s1, s2)] == [4, 6, 8]
        assert s2.bank.Z[:4].tobytes() == s0.bank.Z.tobytes()

    def test_prints_progress_line(self, work, tmp_path, capsys):
        out = tmp_path / "ck"
        rc = main(["train-inc", "--ckpt", str(work["ck0"]), "--data", str(work["data"]),
                   "--out", str(out)])
        assert rc == 0
        assert "trained session 1" in capsys.readouterr().out

    def test_explicit_session_must_match_checkpoint(self, work, tmp_path, capsys):
        rc = main(["train-inc", "--ckpt", str(work["ck0"]), "--data", str(work["data"]),
                   "--session", "2", "--out", str(tmp_path / "ck")])
        assert rc == 2
        assert "expects session" in capsys.readouterr().err

    def test_session_beyond_dataset_is_data_error(self, work, tmp_path, capsys):
        rc = main(["train-inc", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--out", str(tmp_path / "ck")])
        assert rc == 2
        assert "no train split" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, work, tmp_path):
        again = tmp_path / "ck"
        rc = main(["train-inc", "--ckpt", str(work["ck0"]), "--data", str(work["data"]),
                   "--out", str(again)])
        assert rc == 0
        for name in ("bank.ckat", "weights.ckat", "state.json"):
            assert (again / name).read_bytes() == (work["ck1"] / name).read_bytes()


class TestEval:
    def test_prints_report_and_writes_files(self, work, tmp_path, capsys):
        out = tmp_path / "rep"
        rc = main(["eval", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "performance drop:" in text
        doc = json.loads((out / "report.json").read_text())
        assert doc["head"] == "composition"
        assert len(doc["sessions"]) == 3
        assert (out / "report.txt").read_text().strip() in text

    def test_matches_library_evaluation(self, work, tmp_path):
        out = tmp_path / "rep"
        assert main(["eval", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        state = load_checkpoint(work["ck2"])
        ds = load_dataset(work["data"])
        want = evaluate_sessions(state, ds.test)
        assert [s["overall"] for s in doc["sessions"]] == want.overall_curve()
        assert doc["performance_drop"] == want.performance_drop

    def test_alternative_heads_run(self, work, capsys):
        for head in ("baseline", "allmatch", "maxmatch"):
            rc = main(["eval", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                       "--head", head])
            assert rc == 0
            assert f"head={head}" in capsys.readouterr().out

    def test_invalid_head_is_usage_error(self, work):
        rc = main(["eval", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--head", "mystery"])
        assert rc == 1

    def test_missing_checkpoint_is_data_error(self, work, tmp_path):
        rc = main(["eval", "--ckpt", str(tmp_path / "nowhere"), "--data", str(work["data"])])
        assert rc == 2

    def test_corrupt_checkpoint_is_data_error(self, work, tmp_path, capsys):
        ck = tmp_path / "ck"
        shutil.copytree(work["ck2"], ck)
        spath = ck / "state.json"
        spath.write_text(spath.read_text()[:-10])
        rc = main(["eval", "--ckpt", str(ck), "--data", str(work["data"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_provenance_to_stderr_without_out(self, work, capsys):
        rc = main(["eval", "--ckpt", str(work["ck2"]), "--data", str(work["data"])])
        assert rc == 0
        err = capsys.readouterr().err
        doc = json.loads(err.strip().splitlines()[-1])
        assert doc["command"] == "eval"
        assert "timestamp" in doc


class TestSweep:
    def test_writes_table_and_json(self, work, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(work["cfg"]), "--data", str(work["data"]),
                   "--n-values", "1,6", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert (out / "sweep.txt").read_text().strip() == text.strip()
        doc = json.loads((out / "sweep.json").read_text())
        assert sorted(doc) == ["1", "6"]
        assert len(doc["6"]["sessions"]) == 3

    def test_bad_n_values_is_usage_error(self, work, tmp_path, capsys):
        rc = main(["sweep", "--data", str(work["data"]), "--n-values", "a,b",
                   "--out", str(tmp_path / "s")])
        assert rc == 1
        assert "--n-values" in capsys.readouterr().err


class TestImportance:
    def test_prints_accuracy_per_keep_count(self, work, capsys):
        rc = main(["importance", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--keep", "1,4,8"])
        assert rc == 0
        out = capsys.readouterr().out
        for k in (1, 4, 8):
            assert f"keep {k:>3}: accuracy" in out

    def test_writes_json_report(self, work, tmp_path):
        out = tmp_path / "imp"
        rc = main(["importance", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--keep", "1,8", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "importance.json").read_text())
        assert sorted(doc) == ["1", "8"]
        assert all(0.0 <= v <= 100.0 for v in doc.values())

    def test_true_label_ranking_flag(self, work, capsys):
        rc = main(["importance", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--keep", "2", "--true-label"])
        assert rc == 0
        assert "keep   2" in capsys.readouterr().out

    def test_retrieval_export_to_file(self, work, tmp_path):
        out = tmp_path / "imp"
        rc = main(["importance", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--keep", "2", "--retrieval-top-k", "3", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "retrieval.json").read_text())
        assert set(doc) == {"top_patches", "nearest_primitives"}
        assert all(len(v) <= 3 for v in doc["top_patches"].values())

    def test_retrieval_export_to_stdout(self, work, capsys):
        rc = main(["importance", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--keep", "2", "--retrieval-top-k", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        doc = json.loads(lines[0])
        assert set(doc) == {"top_patches", "nearest_primitives"}

    def test_bad_keep_list_is_usage_error(self, work, capsys):
        rc = main(["importance", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--keep", "one"])
        assert rc == 1
        assert "--keep" in capsys.readouterr().err

    def test_out_of_range_keep_is_data_error(self, work):
        rc = main(["importance", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--keep", "99"])
        assert rc == 2


class TestReuseEval:
    def test_prints_retention_curve(self, work, capsys):
        rc = main(["reuse-eval", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--ratios", "0,0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ratio 0.00" in out
        assert "retention 100.00" in out

    def test_writes_json_points(self, work, tmp_path):
        out = tmp_path / "reuse"
        rc = main(["reuse-eval", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--ratios", "0,1", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "reuse.json").read_text())
        assert [p["ratio"] for p in doc] == [0.0, 1.0]
        assert doc[0]["retention"] == 100.0

    def test_bad_ratio_list_is_usage_error(self, work):
        rc = main(["reuse-eval", "--ckpt", str(work["ck2"]), "--data", str(work["data"]),
                   "--ratios", "lots"])
        assert rc == 1

    def test_base_only_checkpoint_is_data_error(self, work):
        rc = main(["reuse-eval", "--ckpt", str(work["ck0"]), "--data", str(work["data"]),
                   "--ratios", "0.5"])
        assert rc == 2


class TestCompareReps:
    def test_identical_representations_score_one(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rep = rng.standard_normal((20, 8))
        path = tmp_path / "rep.ckat"
        write_tensor(path, rep)
        rc = main(["compare-reps", str(path), str(path)])
        assert rc == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - 1.0) < 1e-12

    def test_mixed_container_and_npy(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((15, 6))
        b = rng.standard_normal((15, 9))
        pa = tmp_path / "a.ckat"
        pb = tmp_path / "b.npy"
        write_tensor(pa, a)
        np.save(pb, b)
        rc = main(["compare-reps", str(pa), str(pb)])
        assert rc == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 <= value <= 1.0

    def test_writes_json(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "rep.ckat"
        write_tensor(path, rng.standard_normal((10, 4)))
        out = tmp_path / "cmp"
        rc = main(["compare-reps", str(path), str(path), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "compare.json").read_text())
        assert abs(doc["cka"] - 1.0) < 1e-12

    def test_non_matrix_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "cube.ckat"
        write_tensor(path, np.ones((2, 3, 4)))
        rc = main(["compare-reps", str(path), str(path)])
        assert rc == 2
        assert "2-D" in capsys.readouterr().err

    def test_corrupt_file_is_data_error(self, tmp_path):
        path = tmp_path / "bad.ckat"
        path.write_bytes(b"not a tensor")
        rc = main(["compare-reps", str(path), str(path)])
        assert rc == 2


class TestBench:
    def test_synthetic_sizes(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--classes", "3", "--n-primitives", "2", "--channels", "8",
                   "--patches", "4", "--maps", "5", "--reps", "2", "--out", str(out)])
        assert rc == 0
        assert "5 maps x 3 classes" in capsys.readouterr().out
        doc = json.loads((out / "bench.json").read_text())
        assert doc["n_maps"] == 5
        assert doc["median_seconds"] > 0
        assert len(doc["reps"]) == 2

    def test_bench_a_checkpoint(self, work, capsys):
        rc = main(["bench", "--ckpt", str(work["ck2"]), "--maps", "4", "--patches", "4",
                   "--reps", "1"])
        assert rc == 0
        assert "4 maps x 8 classes" in capsys.readouterr().out


class TestProvenance:
    def test_out_commands_write_record(self, work):
        doc = json.loads((work["ck0"] / "provenance.json").read_text())
        assert doc["command"] == "train-base"
        assert doc["versions"]["compset"]
        assert doc["versions"]["numpy"]
        assert "--data" in doc["argv"]
        assert doc["config"]["hyperparams"]["n_primitives"] == 6

    def test_gen_records_synth_config(self, work):
        doc = json.loads((work["data"] / "provenance.json").read_text())
        assert doc["command"] == "gen"
        assert doc["config"]["synth"]["base_classes"] == 4
