import json

import numpy as np
import pytest

from videothreads.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_ERROR,
    EXIT_MISSING,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from videothreads.config import RunConfig
from videothreads.errors import ConfigError


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    code = run("synth", "--out", str(root / "c"), "--seed", "3", "--threads", "4",
               "--segments-per-step", "10", "--dim", "16", "--separation", "10",
               "--no-meta")
    assert code == EXIT_OK
    return root / "c"


class TestConfig:
    def test_defaults_include_reference_constants(self):
        cfg = RunConfig().to_dict()
        assert cfg["temperature"] == 0.05
        assert cfg["stages"] == 3
        assert cfg["layers"] == 3
        assert cfg["hidden"] == 768
        assert cfg["edge_threshold"] == 1.0
        assert cfg["delta"] == 4.0
        assert cfg["max_nodes"] == 64
        assert cfg["min_len"] == 2
        assert cfg["k_procedure"] == 7
        assert cfg["kappa"] == 1.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"not_a_key": 1})

    def test_type_validation(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"stages": "three"})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"temperature": True})

    def test_flags_win_over_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kappa": 2.0, "hidden": 32}))
        cfg = RunConfig.from_file(path).override(kappa=3.0, hidden=None)
        assert cfg.kappa == 3.0
        assert cfg.hidden == 32


class TestDumpConfig:
    def test_contains_temperature(self, tmp_path, capsys):
        assert run("dump-config") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["temperature"] == 0.05

    def test_merges_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kappa": 2.5}))
        assert run("dump-config", "--config", str(path)) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["kappa"] == 2.5

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        assert run("dump-config", "--config", str(path)) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    def test_removed_row_normalize_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"row_normalize": True}))
        assert run("dump-config", "--config", str(path)) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert "row_normalize" in err["error"]["message"]


def exit_code(*argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


class TestErrorExitCodes:
    def test_missing_features_file(self, tmp_path, capsys):
        code = run("forward", "--features", str(tmp_path / "nope.hft"),
                   "--out", str(tmp_path / "o.json"))
        assert code == EXIT_MISSING

    @pytest.mark.parametrize("path, error", [
        ("", "IsADirectoryError"),
        ("features.hft/inner.hft", "NotADirectoryError"),
    ])
    def test_unreadable_input_path(self, corpus, tmp_path, capsys, path, error):
        code = run("forward", "--features", str(corpus / path), "--out", str(tmp_path / "o.json"))
        assert code == EXIT_MISSING
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == error

    @pytest.mark.parametrize("case, expected_code, field", [
        ("ground_invalid_json", EXIT_DATA, "query.json"),
        ("ground_no_embedding", EXIT_DATA, "embedding"),
        ("mcq_no_candidates", EXIT_DATA, "candidates"),
        ("procedure_no_timestamps", EXIT_DATA, "timestamps"),
        ("mcq_result_no_correct", EXIT_DATA, "results[1].correct"),
        ("grounding_no_queries", EXIT_DATA, "queries"),
        ("procedure_no_pred", EXIT_USAGE, "--pred"),
    ])
    def test_malformed_documents(self, corpus, tmp_path, capsys, case, expected_code, field):
        doc = tmp_path / "query.json"
        feats = str(corpus / "features.hft")
        ann = str(corpus / "annotations.json")
        contents = {
            "ground_invalid_json": '{"embedding": [1.0, ',
            "ground_no_embedding": json.dumps({"vector": [1.0]}),
            "mcq_no_candidates": json.dumps({"query": [1.0, 0.0]}),
            "procedure_no_timestamps": json.dumps({"labels": [0], "segment_duration": 0.5}),
            "mcq_result_no_correct": json.dumps({"results": [
                {"chosen": 1, "correct": 1}, {"chosen": 0}]}),
            "grounding_no_queries": json.dumps({"items": []}),
            "procedure_no_pred": "{}",
        }
        doc.write_text(contents[case])
        argv = {
            "ground_invalid_json": ("ground", "--features", feats, "--query", str(doc)),
            "ground_no_embedding": ("ground", "--features", feats, "--query", str(doc)),
            "mcq_no_candidates": ("mcq", "--question", str(doc)),
            "procedure_no_timestamps": ("evaluate", "--task", "procedure", "--pred", str(doc),
                                        "--annotations", ann),
            "mcq_result_no_correct": ("evaluate", "--task", "mcq", "--results", str(doc)),
            "grounding_no_queries": ("evaluate", "--task", "grounding", "--queries", str(doc)),
            "procedure_no_pred": ("evaluate", "--task", "procedure", "--annotations", ann),
        }[case]
        code = exit_code(*argv, "--out", str(tmp_path / "o.json"))
        assert code == expected_code
        err = capsys.readouterr().err
        assert field in err
        if expected_code == EXIT_DATA:
            error = json.loads(err)["error"]
            assert error["type"] == "SchemaError"
            assert str(doc) in error["message"]

    def test_bad_magic_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.hft"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = run("forward", "--features", str(bad), "--out", str(tmp_path / "o.json"))
        assert code == EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadMagicError"

    def test_eigensolver_failure_is_library_error(self, corpus, tmp_path, capsys, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        code = run("procedure-learn", "--features", str(corpus / "features.hft"), "--k", "4",
                   "--hidden", "16", "--out", str(tmp_path / "labels.json"))
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConvergenceError"


class TestPipeline:
    def test_synth_layout(self, corpus):
        for name in ("features.hft", "narrations.json", "taxonomy.json",
                     "annotations.json", "planted.json", "summary.json"):
            assert (corpus / name).exists()

    def test_forward_and_jobs_order(self, corpus, tmp_path):
        out1 = tmp_path / "fwd1.json"
        out2 = tmp_path / "fwd2.json"
        feats = str(corpus / "features.hft")
        assert run("forward", "--features", feats, feats, "--jobs", "2",
                   "--hidden", "16", "--out", str(out1), "--no-meta") == EXIT_OK
        assert run("forward", "--features", feats, feats, "--jobs", "1",
                   "--hidden", "16", "--out", str(out2), "--no-meta") == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_procedure_learn_and_evaluate(self, corpus, tmp_path):
        labels = tmp_path / "labels.json"
        report = tmp_path / "report.json"
        assert run("procedure-learn", "--features", str(corpus / "features.hft"),
                   "--k", "4", "--hidden", "16", "--out", str(labels), "--no-meta") == EXIT_OK
        assert run("evaluate", "--task", "procedure", "--pred", str(labels),
                   "--annotations", str(corpus / "annotations.json"),
                   "--out", str(report), "--no-meta") == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["scalars"]["F1"] >= 0.9

    def test_localize_and_evaluate(self, corpus, tmp_path):
        preds = tmp_path / "locs.json"
        report = tmp_path / "locrep.json"
        assert run("localize", "--features", str(corpus / "features.hft"),
                   "--taxonomy", str(corpus / "taxonomy.json"),
                   "--hidden", "16", "--k", "4", "--out", str(preds), "--no-meta") == EXIT_OK
        assert run("evaluate", "--task", "localization", "--pred", str(preds),
                   "--annotations", str(corpus / "annotations.json"),
                   "--out", str(report), "--no-meta") == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["scalars"]["label_accuracy"] >= 0.9

    def test_ground_and_evaluate(self, corpus, tmp_path):
        taxonomy = json.loads((corpus / "taxonomy.json").read_text())
        annotations = json.loads((corpus / "annotations.json").read_text())
        query = tmp_path / "query.json"
        query.write_text(json.dumps({"embedding": taxonomy["embeddings"][1]}))
        preds = tmp_path / "ground.json"
        assert run("ground", "--features", str(corpus / "features.hft"),
                   "--query", str(query), "--hidden", "16", "--k", "4",
                   "--out", str(preds), "--no-meta") == EXIT_OK
        interval = next(iv for iv in annotations["intervals"] if iv["label"] == 1)
        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps({"queries": [
            {"predictions": preds.name, "gt": {"start": interval["start"], "end": interval["end"]}}
        ]}))
        report = tmp_path / "grep.json"
        assert run("evaluate", "--task", "grounding", "--queries", str(queries),
                   "--out", str(report), "--no-meta") == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["scalars"]["R@1@0.5"] == 100.0

    def test_mcq_and_evaluate(self, corpus, tmp_path, capsys):
        from videothreads.dataio import FeatureSequence, read_feature_file, write_feature_file

        seq = read_feature_file(corpus / "features.hft")
        planted = json.loads((corpus / "planted.json").read_text())
        labels = np.array(planted["step_labels"])
        taxonomy = json.loads((corpus / "taxonomy.json").read_text())
        names = []
        for s in range(4):
            mask = labels == s
            clip = FeatureSequence(f"clip{s}", seq.timestamps[mask],
                                   seq.features[mask], seq.segment_duration)
            write_feature_file(tmp_path / f"clip{s}.hft", clip)
            names.append(f"clip{s}.hft")
        names.append(names[0])  # fifth slot reuses clip 0
        question = tmp_path / "q.json"
        question.write_text(json.dumps({
            "query": taxonomy["embeddings"][2],
            "candidates": names,
            "correct": 2,
            "group": "intra",
        }))
        result = tmp_path / "mcq.json"
        assert run("mcq", "--question", str(question), "--hidden", "16",
                   "--out", str(result), "--no-meta") == EXIT_OK
        doc = json.loads(result.read_text())
        assert doc["chosen"] == 2
        results = tmp_path / "choices.json"
        results.write_text(json.dumps({"results": [
            {"chosen": doc["chosen"], "correct": 2, "group": "intra"}]}))
        report = tmp_path / "mcqrep.json"
        assert run("evaluate", "--task", "mcq", "--results", str(results),
                   "--out", str(report), "--no-meta") == EXIT_OK
        assert json.loads(report.read_text())["scalars"]["intra_accuracy"] == 100.0

    def test_grad_check_subcommand(self, tmp_path):
        out = tmp_path / "gc.json"
        assert run("grad-check", "--out", str(out), "--no-meta") == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["max_rel_error"] <= 1e-4
        assert doc["passed"] is True

    def test_train_toy_subcommand(self, tmp_path):
        for i in range(3):
            assert run("synth", "--out", str(tmp_path / "data" / f"v{i}"),
                       "--seed", str(500 + i), "--threads", "2",
                       "--steps-per-thread", "2", "--segments-per-step", "8",
                       "--dim", "8", "--separation", "3", "--no-meta") == EXIT_OK
        cfg = tmp_path / "tc.json"
        cfg.write_text(json.dumps({
            "epochs": 2, "batch_size": 8, "lr": 0.05, "warmup_epochs": 1,
            "hidden": 8, "align_dim": 8, "stages": 2, "layers": 1,
            "alpha": 2.0, "beta": 5.0, "k": 2,
        }))
        params = tmp_path / "p.bin"
        history = tmp_path / "h.jsonl"
        summary = tmp_path / "s.json"
        assert run("train-toy", "--data", str(tmp_path / "data"),
                   "--train-config", str(cfg), "--params-out", str(params),
                   "--history", str(history), "--seed", "1",
                   "--out", str(summary), "--no-meta") == EXIT_OK
        assert params.exists()
        lines = history.read_text().splitlines()
        assert len(lines) == 2
        assert "mean_loss" in json.loads(lines[0])

    def test_unknown_train_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "tc.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code = run("train-toy", "--data", str(tmp_path), "--train-config", str(cfg),
                   "--params-out", str(tmp_path / "p.bin"),
                   "--history", str(tmp_path / "h.jsonl"))
        assert code == EXIT_CONFIG
