import argparse
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from videothreads import _floatrepr, cli
from videothreads.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_ERROR,
    EXIT_MISSING,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from videothreads.config import RunConfig
from videothreads.dataio import FEATURE_MAGIC, FeatureSequence, write_feature_file
from videothreads.errors import ConfigError
from videothreads.model import ModelDims, identity_params, save_params

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_UTF8 = b'{"embedding": [1.0, 2.\xcc]}'  # 0xcc starts a two-byte sequence; "]" cannot end it


def run(*argv):
    return main(list(argv))


def feature_bytes(timestamps, features, duration=0.5):
    """A feature file's bytes, written here so that values the reader
    rejects can be stored."""
    header = FEATURE_MAGIC + struct.pack("<IId", len(timestamps), features.shape[1], duration)
    return (header + np.asarray(timestamps, dtype="<f8").tobytes()
            + np.asarray(features, dtype="<f4").tobytes())


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
            RunConfig.from_dict({"kappa": True})

    @pytest.mark.parametrize("doc", [{"kappa": float("nan")}, {"lr": float("inf")},
                                     {"edge_threshold": -float("inf")}, {"delta": 10**400}])
    def test_non_finite_values_rejected(self, doc):
        [key] = doc
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict(doc)
        with pytest.raises(ConfigError, match=key):
            RunConfig().override(**doc)

    def test_flags_win_over_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kappa": 2.0, "hidden": 32}))
        cfg = RunConfig.from_file(path).override(kappa=3.0, hidden=None)
        assert cfg.kappa == 3.0
        assert cfg.hidden == 32

    @pytest.mark.parametrize("option, key, value", [
        pytest.param("--config", "row_normalize", True, id="row_normalize"),
        pytest.param("--config", "k_threads", 2, id="k_threads"),
        pytest.param("--config", "jobs", 2, id="jobs"),
        pytest.param("--train-config", "cluster_enabled", True, id="cluster_enabled"),
    ])
    def test_removed_key_rejected(self, tmp_path, capsys, option, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        argv = {
            "--config": ("dump-config", "--config", str(path)),
            "--train-config": ("train-toy", "--data", str(tmp_path), "--train-config", str(path),
                               "--params-out", str(tmp_path / "p.bin"),
                               "--history", str(tmp_path / "h.jsonl")),
        }[option]
        assert run(*argv) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert key in err["error"]["message"]


class TestDumpConfig:
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


def subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


MODEL_OPTIONS = {"--config", "--out", "--no-meta", "--params", "--init-seed", "--seed",
                 "--hidden", "--align-dim", "--stages", "--layers", "--edge-threshold"}


class TestParser:
    OPTIONS = {
        "synth": {"--out", "--seed", "--threads", "--steps-per-thread", "--segments-per-step",
                  "--segment-duration", "--dim", "--separation", "--sigma", "--no-interleave",
                  "--no-meta"},
        "forward": MODEL_OPTIONS | {"--kappa", "--max-nodes", "--k", "--features",
                                    "--emit-embeddings"},
        "procedure-learn": MODEL_OPTIONS | {"--kappa", "--max-nodes", "--k", "--depth",
                                            "--features"},
        "ground": MODEL_OPTIONS | {"--kappa", "--max-nodes", "--k", "--min-len", "--features",
                                   "--query"},
        "localize": MODEL_OPTIONS | {"--kappa", "--max-nodes", "--k", "--min-len",
                                     "--features", "--taxonomy"},
        "mcq": MODEL_OPTIONS | {"--delta", "--question"},
        "evaluate": {"--task", "--pred", "--annotations", "--num-steps", "--queries",
                     "--results", "--out", "--no-meta"},
        "train-toy": {"--data", "--train-config", "--params-out", "--history", "--seed",
                      "--out", "--no-meta"},
        "grad-check": {"--epsilon", "--seed", "--out", "--no-meta"},
        "dump-config": {"--config", "--out"},
    }

    def test_option_strings(self):
        got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for name, p in subparsers().items()}
        assert got == self.OPTIONS

    @pytest.mark.parametrize("command, field", [
        ("forward", "k"), ("procedure-learn", "k_procedure"),
        ("ground", "k_candidates"), ("localize", "k_candidates"),
    ])
    def test_k_sets_the_field_its_handler_reads(self, command, field):
        action = next(a for a in subparsers()[command]._actions if "--k" in a.option_strings)
        assert (action.dest, action.type, action.default) == (field, int, None)


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
        ("ground_embedding_not_numbers", EXIT_DATA, "embedding"),
        ("grounding_item_no_predictions", EXIT_DATA, "queries[0].predictions"),
        ("train_config_string_epochs", EXIT_CONFIG, "epochs"),
        ("mcq_query_not_numbers", EXIT_DATA, "query"),
        ("mcq_no_candidate_paths", EXIT_DATA, "candidates"),
        ("procedure_timestamps_not_numbers", EXIT_DATA, "timestamps"),
        ("procedure_duration_not_number", EXIT_DATA, "segment_duration"),
        ("procedure_labels_not_integers", EXIT_DATA, "labels"),
        ("mcq_span_not_numbers", EXIT_DATA, "spans[0]"),
        ("mcq_spans_not_a_list", EXIT_DATA, "spans"),
        ("procedure_label_out_of_range", EXIT_DATA, "labels"),
        ("procedure_labels_wrong_length", EXIT_DATA, "labels"),
        ("procedure_timestamp_out_of_range", EXIT_DATA, "timestamps"),
        ("mcq_results_not_a_list", EXIT_DATA, "results"),
        ("mcq_result_chosen_not_integer", EXIT_DATA, "results[0].chosen"),
        ("mcq_result_correct_bool", EXIT_DATA, "results[0].correct"),
        ("mcq_result_unknown_group", EXIT_DATA, "results[0].group"),
        ("mcq_candidates_mixed_dims", EXIT_DATA, "candidates"),
        ("forward_params_wrong_d_in", EXIT_DATA, "d_in"),
        ("ground_params_wrong_d_t", EXIT_DATA, "d_t"),
        ("localize_params_wrong_d_t", EXIT_DATA, "d_t"),
        ("train_config_zero_epochs", EXIT_CONFIG, "epochs"),
        ("train_config_zero_batch_size", EXIT_CONFIG, "batch_size"),
        ("train_config_alpha_not_below_beta", EXIT_CONFIG, "alpha"),
        ("train_config_zero_temperature", EXIT_CONFIG, "temperature"),
        ("train_narration_no_timestamp", EXIT_DATA, "items[0].timestamp"),
        ("localize_taxonomy_zero_row", EXIT_DATA, "embeddings[0]"),
        ("localize_taxonomy_ragged_rows", EXIT_DATA, "embeddings[1]"),
        ("localize_taxonomy_empty", EXIT_DATA, "labels"),
        ("localization_annotation_no_end", EXIT_DATA, "intervals[0].end"),
        ("localization_prediction_no_score", EXIT_DATA, "predictions[0].score"),
        ("ground_embedding_nan", EXIT_DATA, "embedding[15]"),
        ("localize_taxonomy_infinity", EXIT_DATA, "embeddings[0][3]"),
        ("localize_taxonomy_norm_overflow", EXIT_DATA, "embeddings[0]"),
        ("ground_query_norm_overflow", EXIT_DATA, "embedding"),
        ("mcq_query_norm_overflow", EXIT_DATA, "query"),
        ("train_narration_timestamp_nan", EXIT_DATA, "items[0].timestamp"),
        ("procedure_duration_overflow", EXIT_DATA, "segment_duration"),
        ("mcq_span_inverted", EXIT_DATA, "spans[1]"),
        ("mcq_span_inverted_empty_window", EXIT_DATA, "spans[0]"),
        ("ground_query_not_utf8", EXIT_DATA, "query.json"),
        ("train_config_not_utf8", EXIT_CONFIG, "query.json"),
        ("grounding_gt_inverted", EXIT_DATA, "queries[0].gt"),
        ("grounding_gt_zero", EXIT_DATA, "queries[0].gt"),
        ("grounding_fault_after_missing_predictions", EXIT_DATA, "queries[1].predictions"),
        ("procedure_timestamps_decreasing", EXIT_DATA, "timestamps"),
        ("procedure_timestamp_negative", EXIT_DATA, "timestamps"),
        ("procedure_duration_negative", EXIT_DATA, "segment_duration"),
        ("procedure_learn_features_negative_duration", EXIT_DATA, "segment_duration"),
        ("procedure_annotation_label_overflow", EXIT_DATA, "intervals[0].label"),
        ("localization_prediction_label_overflow", EXIT_DATA, "predictions[0].label"),
    ])
    def test_malformed_documents(self, corpus, tmp_path, capsys, case, expected_code, field):
        doc = tmp_path / "query.json"
        feats = str(corpus / "features.hft")
        ann = str(corpus / "annotations.json")
        taxonomy = str(corpus / "taxonomy.json")
        narrow = tmp_path / "narrow.hft"  # 8-dim features; the corpus has 16
        write_feature_file(narrow, FeatureSequence("n", np.arange(4) * 0.5, np.ones((4, 8))))
        query = tmp_path / "q16.json"
        query.write_text(json.dumps({"embedding": [1.0] * 16}))
        no_preds = tmp_path / "no_preds.json"
        no_preds.write_text(json.dumps({"predictions": []}))
        labels = tmp_path / "labels.json"  # what procedure-learn writes, for a two-segment video
        labels.write_text(json.dumps({"timestamps": [0.0, 0.5], "segment_duration": 0.5,
                                      "labels": [0, 1]}))
        data = tmp_path / "data"  # two videos; only the second one's narrations are broken
        if case.startswith("train_narration_"):
            for video in ("a", "b"):
                (data / video).mkdir(parents=True)
                (data / video / "features.hft").write_bytes((corpus / "features.hft").read_bytes())
            (data / "a" / "narrations.json").write_bytes((corpus / "narrations.json").read_bytes())
            doc = data / "b" / "narrations.json"

        def params_file(d_in, d_t):
            path = tmp_path / "made.bin"
            save_params(path, identity_params(ModelDims(d_in=d_in, d_h=16, d_a=16, d_t=d_t,
                                                        stages=1, layers=1)))
            return path.read_bytes()

        content = {
            "ground_invalid_json": '{"embedding": [1.0, ',
            "ground_no_embedding": json.dumps({"vector": [1.0]}),
            "mcq_no_candidates": json.dumps({"query": [1.0, 0.0]}),
            "procedure_no_timestamps": json.dumps({"labels": [0], "segment_duration": 0.5}),
            "mcq_result_no_correct": json.dumps({"results": [
                {"chosen": 1, "correct": 1}, {"chosen": 0}]}),
            "grounding_no_queries": json.dumps({"items": []}),
            "procedure_no_pred": "{}",
            "ground_embedding_not_numbers": json.dumps({"embedding": "abc"}),
            "grounding_item_no_predictions": json.dumps({"queries": [
                {"gt": {"start": 0.0, "end": 1.0}}]}),
            "train_config_string_epochs": json.dumps({"epochs": "3"}),
            "mcq_query_not_numbers": json.dumps({"query": "abc", "candidates": ["a.hft"]}),
            "mcq_no_candidate_paths": json.dumps({"query": [1.0, 0.0], "candidates": []}),
            "procedure_timestamps_not_numbers": json.dumps({
                "timestamps": "abc", "segment_duration": 0.5, "labels": [0]}),
            "procedure_duration_not_number": json.dumps({
                "timestamps": [0.0, 0.5], "segment_duration": "x", "labels": [0, 1]}),
            "procedure_labels_not_integers": json.dumps({
                "timestamps": [0.0, 0.5], "segment_duration": 0.5, "labels": "ab"}),
            "mcq_span_not_numbers": json.dumps({
                "query": [1.0] * 16, "candidates": [feats] * 5,
                "spans": [[0, "x"]] + [[0.0, 1.0]] * 4}),
            "mcq_spans_not_a_list": json.dumps({
                "query": [1.0] * 16, "candidates": [feats] * 5, "spans": 5}),
            "procedure_label_out_of_range": json.dumps({
                "timestamps": [0.0, 0.5], "segment_duration": 0.5, "labels": [0, 10**25]}),
            "procedure_labels_wrong_length": json.dumps({
                "timestamps": [0.0, 0.5], "segment_duration": 0.5, "labels": [0]}),
            "procedure_timestamp_out_of_range": json.dumps({
                "timestamps": [0.0, 10**400], "segment_duration": 0.5, "labels": [0, 1]}),
            "mcq_results_not_a_list": json.dumps({"results": 5}),
            "mcq_result_chosen_not_integer": json.dumps({"results": [
                {"chosen": "x", "correct": 1}]}),
            "mcq_result_correct_bool": json.dumps({"results": [
                {"chosen": 1, "correct": True}]}),
            "mcq_result_unknown_group": json.dumps({"results": [
                {"chosen": 1, "correct": 1, "group": 7}]}),
            "mcq_candidates_mixed_dims": json.dumps({
                "query": [1.0] * 16, "candidates": [feats, str(narrow)]}),
            "forward_params_wrong_d_in": params_file(8, 16),
            "ground_params_wrong_d_t": params_file(16, 8),
            "localize_params_wrong_d_t": params_file(16, 8),
            "train_config_zero_epochs": json.dumps({"epochs": 0}),
            "train_config_zero_batch_size": json.dumps({"batch_size": 0}),
            "train_config_alpha_not_below_beta": json.dumps({"alpha": 4.0, "beta": 4.0}),
            "train_config_zero_temperature": json.dumps({"temperature": 0}),
            "train_narration_no_timestamp": json.dumps({"items": [
                {"text": "x", "embedding": [1.0] * 16}]}),
            "localize_taxonomy_zero_row": json.dumps({"labels": ["a"], "embeddings": [[0.0] * 16]}),
            "localize_taxonomy_ragged_rows": json.dumps({"labels": ["a", "b"],
                                                         "embeddings": [[1.0] * 16, [1.0] * 17]}),
            "localize_taxonomy_empty": json.dumps({"labels": [], "embeddings": []}),
            "localization_annotation_no_end": json.dumps({"intervals": [{"start": 1.0}]}),
            "localization_prediction_no_score": json.dumps({"predictions": [
                {"start": 0.0, "end": 1.0}]}),
            "ground_embedding_nan": json.dumps({"embedding": [1.0] * 15 + [float("nan")]}),
            "localize_taxonomy_infinity": json.dumps({
                "labels": ["a"], "embeddings": [[1.0] * 3 + [float("inf")] + [1.0] * 12]}),
            "localize_taxonomy_norm_overflow": json.dumps({
                "labels": ["a", "b"], "embeddings": [[1e200] + [0.0] * 15, [1.0] * 16]}),
            "ground_query_norm_overflow": json.dumps({"embedding": [1e200] + [1.0] * 15}),
            "mcq_query_norm_overflow": json.dumps({"query": [1.0] * 15 + [-1e200],
                                                   "candidates": [feats] * 5}),
            "train_narration_timestamp_nan": json.dumps({"items": [
                {"text": "x", "timestamp": float("nan"), "embedding": [1.0] * 16}]}),
            "procedure_duration_overflow":
                '{"timestamps": [0.0, 0.5], "segment_duration": 1e400, "labels": [0, 1]}',
            "mcq_span_inverted": json.dumps({
                "query": [1.0] * 16, "candidates": [feats] * 5,
                "spans": [[0.0, 1.0], [5.0, 1.0]] + [[0.0, 1.0]] * 3}),
            "mcq_span_inverted_empty_window": json.dumps({
                "query": [1.0] * 16, "candidates": [feats] * 5,
                "spans": [[9000.0, 1.0]] + [[0.0, 1.0]] * 4}),
            "ground_query_not_utf8": NOT_UTF8,
            "train_config_not_utf8": b'{"epochs": 3\xff}',
            "grounding_gt_inverted": json.dumps({"queries": [
                {"predictions": no_preds.name, "gt": {"start": 5.0, "end": 1.0}}]}),
            "grounding_gt_zero": json.dumps({"queries": [{"predictions": no_preds.name, "gt": 0}]}),
            # the document is validated before any prediction file is opened
            "grounding_fault_after_missing_predictions": json.dumps({"queries": [
                {"predictions": "absent.json", "gt": None}, {"gt": None}]}),
            "procedure_timestamps_decreasing": json.dumps({
                "timestamps": [1.0, 0.5], "segment_duration": 0.5, "labels": [0, 1]}),
            "procedure_timestamp_negative": json.dumps({
                "timestamps": [-1.0, 0.5], "segment_duration": 0.5, "labels": [0, 1]}),
            "procedure_duration_negative": json.dumps({
                "timestamps": [0.0, 0.5], "segment_duration": -0.5, "labels": [0, 1]}),
            "procedure_learn_features_negative_duration": feature_bytes(
                np.arange(40) * 0.5, np.ones((40, 16)), duration=-0.5),
            "procedure_annotation_label_overflow": json.dumps({"intervals": [
                {"start": 0.0, "end": 1.0, "label": 10**30}]}),
            "localization_prediction_label_overflow": json.dumps({"predictions": [
                {"start": 0.0, "end": 1.0, "label": -10**30, "score": 1.0}]}),
        }[case]
        if isinstance(content, bytes):
            doc.write_bytes(content)
        else:
            doc.write_text(content)
        argv = {
            "ground_invalid_json": ("ground", "--features", feats, "--query", str(doc)),
            "ground_no_embedding": ("ground", "--features", feats, "--query", str(doc)),
            "mcq_no_candidates": ("mcq", "--question", str(doc)),
            "procedure_no_timestamps": ("evaluate", "--task", "procedure", "--pred", str(doc),
                                        "--annotations", ann),
            "mcq_result_no_correct": ("evaluate", "--task", "mcq", "--results", str(doc)),
            "grounding_no_queries": ("evaluate", "--task", "grounding", "--queries", str(doc)),
            "procedure_no_pred": ("evaluate", "--task", "procedure", "--annotations", ann),
            "ground_embedding_not_numbers": ("ground", "--features", feats, "--query", str(doc)),
            "grounding_item_no_predictions": ("evaluate", "--task", "grounding",
                                              "--queries", str(doc)),
            "train_config_string_epochs": ("train-toy", "--data", str(corpus),
                                           "--train-config", str(doc),
                                           "--params-out", str(tmp_path / "p.bin"),
                                           "--history", str(tmp_path / "h.jsonl")),
            "mcq_query_not_numbers": ("mcq", "--question", str(doc)),
            "mcq_no_candidate_paths": ("mcq", "--question", str(doc)),
            "procedure_timestamps_not_numbers": ("evaluate", "--task", "procedure",
                                                 "--pred", str(doc), "--annotations", ann),
            "procedure_duration_not_number": ("evaluate", "--task", "procedure",
                                              "--pred", str(doc), "--annotations", ann),
            "procedure_labels_not_integers": ("evaluate", "--task", "procedure",
                                              "--pred", str(doc), "--annotations", ann),
            "mcq_span_not_numbers": ("mcq", "--question", str(doc)),
            "mcq_spans_not_a_list": ("mcq", "--question", str(doc)),
            "procedure_label_out_of_range": ("evaluate", "--task", "procedure",
                                             "--pred", str(doc), "--annotations", ann),
            "procedure_labels_wrong_length": ("evaluate", "--task", "procedure",
                                              "--pred", str(doc), "--annotations", ann),
            "procedure_timestamp_out_of_range": ("evaluate", "--task", "procedure",
                                                 "--pred", str(doc), "--annotations", ann),
            "mcq_results_not_a_list": ("evaluate", "--task", "mcq", "--results", str(doc)),
            "mcq_result_chosen_not_integer": ("evaluate", "--task", "mcq", "--results", str(doc)),
            "mcq_result_correct_bool": ("evaluate", "--task", "mcq", "--results", str(doc)),
            "mcq_result_unknown_group": ("evaluate", "--task", "mcq", "--results", str(doc)),
            "mcq_candidates_mixed_dims": ("mcq", "--question", str(doc)),
            "forward_params_wrong_d_in": ("forward", "--features", feats, "--params", str(doc)),
            "ground_params_wrong_d_t": ("ground", "--features", feats, "--query", str(query),
                                        "--params", str(doc)),
            "localize_params_wrong_d_t": ("localize", "--features", feats,
                                          "--taxonomy", taxonomy, "--params", str(doc)),
            **{name: ("train-toy", "--data", str(corpus.parent), "--train-config", str(doc),
                      "--params-out", str(tmp_path / "p.bin"),
                      "--history", str(tmp_path / "h.jsonl"))
               for name in ("train_config_zero_epochs", "train_config_zero_batch_size",
                            "train_config_alpha_not_below_beta",
                            "train_config_zero_temperature")},
            **{name: ("train-toy", "--data", str(data), "--params-out", str(tmp_path / "p.bin"),
                      "--history", str(tmp_path / "h.jsonl"))
               for name in ("train_narration_no_timestamp", "train_narration_timestamp_nan")},
            "ground_embedding_nan": ("ground", "--features", feats, "--query", str(doc)),
            **{name: ("localize", "--features", feats, "--taxonomy", str(doc))
               for name in ("localize_taxonomy_infinity", "localize_taxonomy_norm_overflow")},
            "ground_query_norm_overflow": ("ground", "--features", feats, "--query", str(doc)),
            "mcq_query_norm_overflow": ("mcq", "--question", str(doc)),
            "procedure_duration_overflow": ("evaluate", "--task", "procedure",
                                            "--pred", str(doc), "--annotations", ann),
            **{name: ("mcq", "--question", str(doc))
               for name in ("mcq_span_inverted", "mcq_span_inverted_empty_window")},
            **{name: ("localize", "--features", feats, "--taxonomy", str(doc))
               for name in ("localize_taxonomy_zero_row", "localize_taxonomy_ragged_rows",
                            "localize_taxonomy_empty")},
            "localization_annotation_no_end": ("evaluate", "--task", "localization",
                                               "--pred", str(no_preds), "--annotations", str(doc)),
            "localization_prediction_no_score": ("evaluate", "--task", "localization",
                                                 "--pred", str(doc), "--annotations", ann),
            "ground_query_not_utf8": ("ground", "--features", feats, "--query", str(doc)),
            "train_config_not_utf8": ("train-toy", "--data", str(corpus.parent),
                                      "--train-config", str(doc),
                                      "--params-out", str(tmp_path / "p.bin"),
                                      "--history", str(tmp_path / "h.jsonl")),
            **{name: ("evaluate", "--task", "grounding", "--queries", str(doc))
               for name in ("grounding_gt_inverted", "grounding_gt_zero",
                            "grounding_fault_after_missing_predictions")},
            **{name: ("evaluate", "--task", "procedure", "--pred", str(doc), "--annotations", ann)
               for name in ("procedure_timestamps_decreasing", "procedure_timestamp_negative",
                            "procedure_duration_negative")},
            "procedure_learn_features_negative_duration": ("procedure-learn", "--features", str(doc)),
            "procedure_annotation_label_overflow": ("evaluate", "--task", "procedure",
                                                    "--pred", str(labels), "--annotations", str(doc)),
            "localization_prediction_label_overflow": ("evaluate", "--task", "localization",
                                                       "--pred", str(doc), "--annotations", ann),
        }[case]
        code = exit_code(*argv, "--out", str(tmp_path / "o.json"))
        assert code == expected_code
        err = capsys.readouterr().err
        assert field in err
        if expected_code == EXIT_DATA:
            error = json.loads(err)["error"]
            assert error["type"] == "SchemaError"
            assert str(doc) in error["message"]

    @pytest.mark.parametrize("timestamps, error", [
        ([0.0, 0.5, 0.5], "TimestampOrderError"),
        ([-1.0, 0.5, 1.0], "SchemaError"),
        ([0.0, 0.5, float("inf")], "SchemaError"),
    ])
    def test_feature_file_errors_name_the_file(self, corpus, tmp_path, capsys, timestamps, error):
        bad = tmp_path / "bad.hft"
        bad.write_bytes(feature_bytes(np.array(timestamps), np.ones((3, 16))))
        code = run("forward", "--features", str(corpus / "features.hft"), str(bad),
                   "--out", str(tmp_path / "o.json"))
        assert code == EXIT_DATA
        payload = json.loads(capsys.readouterr().err)["error"]
        assert payload["type"] == error
        assert payload["message"].startswith(f"{bad}: timestamps: must be ")

    @pytest.mark.parametrize("case, error, message", [
        ("zero_width_features", "PayloadShapeError", "header declares 3 segments of 0 features"),
        ("nan_feature", "SchemaError", "features[1]: must be finite"),
        ("zero_d_in_params", "PayloadShapeError", "d_in must be >= 1"),
        ("nan_params", "SchemaError", "parameters[0]: must be finite"),
    ])
    def test_bad_binary_inputs_exit_5_and_name_the_file(self, corpus, tmp_path, capsys, case,
                                                         error, message):
        feats = str(corpus / "features.hft")
        bad = tmp_path / "bad.hft"
        argv = ["--features", feats, str(bad)]
        if case == "zero_width_features":
            bad.write_bytes(feature_bytes(np.arange(3) * 0.5, np.ones((3, 0))))
        elif case == "nan_feature":
            features = np.ones((3, 16))
            features[1, 4] = np.nan
            bad.write_bytes(feature_bytes(np.arange(3) * 0.5, features))
        else:
            bad = tmp_path / "params.bin"
            argv = ["--features", feats, "--params", str(bad)]
            save_params(bad, identity_params(ModelDims(d_in=16, d_h=16, d_a=16, d_t=16,
                                                       stages=1, layers=1)))
            blob = bytearray(bad.read_bytes())
            if case == "zero_d_in_params":
                blob[8:12] = struct.pack("<I", 0)  # d_in, after the magic
            else:
                blob[40:48] = struct.pack("<d", np.nan)  # the first parameter, after the header
            bad.write_bytes(bytes(blob))
        code = run("forward", *argv, "--out", str(tmp_path / "o.json"))
        assert code == EXIT_DATA
        payload = json.loads(capsys.readouterr().err)["error"]
        assert payload["type"] == error
        assert payload["message"].startswith(f"{bad}: {message}")

    def test_undecodable_query_in_a_fresh_process(self, corpus, tmp_path):
        # the whole command as a user runs it: no traceback, the exit-code contract
        doc = tmp_path / "query.json"
        doc.write_bytes(NOT_UTF8)
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "videothreads.cli", "ground", "--features",
             str(corpus / "features.hft"), "--query", str(doc), "--out", str(tmp_path / "o.json")],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == EXIT_DATA
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "SchemaError"
        assert error["message"].startswith(f"{doc}: invalid JSON")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("key, value", [("kappa", "nan"), ("edge_threshold", "inf"),
                                            ("kappa", "-inf")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_config_value_is_config_error(self, corpus, tmp_path, capsys, key, value,
                                                     source):
        if source == "flag":
            options = ("--" + key.replace("_", "-") + "=" + value,)
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({key: float(value)}))  # NaN, Infinity, -Infinity
            options = ("--config", str(path))
        code = run("forward", "--features", str(corpus / "features.hft"), *options,
                   "--hidden", "16", "--out", str(tmp_path / "o.json"))
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["message"].startswith(key + ":")

    @pytest.mark.parametrize("command, source", [
        ("synth", "flag"), ("grad-check", "flag"), ("procedure-learn", "flag"),
        ("procedure-learn", "config"), ("dump-config", "config"), ("train-toy", "flag"),
        ("train-toy", "config"),
    ])
    def test_negative_seed_is_config_error(self, corpus, tmp_path, capsys, command, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        seed = ("--seed", "-1") if source == "flag" else (
            "--train-config" if command == "train-toy" else "--config", str(cfg))
        argv = {
            "synth": ("--out", str(tmp_path / "c")),
            "grad-check": ("--out", str(tmp_path / "o.json")),
            "procedure-learn": ("--features", str(corpus / "features.hft"), "--hidden", "16",
                                "--out", str(tmp_path / "o.json")),
            "dump-config": ("--out", str(tmp_path / "o.json")),
            "train-toy": ("--data", str(corpus.parent), "--params-out", str(tmp_path / "p.bin"),
                          "--history", str(tmp_path / "h.jsonl"),
                          "--out", str(tmp_path / "o.json")),
        }[command]
        assert run(command, *argv, *seed) == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ConfigError", "message": "seed: must be non-negative, got -1"}
        assert not (tmp_path / "o.json").exists() and not (tmp_path / "c").exists()

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one_is_library_error(self, corpus, tmp_path, capsys, k):
        code = run("forward", "--features", str(corpus / "features.hft"), "--k", k,
                   "--hidden", "16", "--out", str(tmp_path / "o.json"))
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ClusteringError"

    @pytest.mark.parametrize("flag", ["--hidden", "--align-dim"])
    def test_zero_width_is_shape_error_on_the_identity_default(self, corpus, tmp_path, capsys,
                                                               flag):
        # the identity default widens a width to the input's, but keeps a bad one bad
        out = tmp_path / "o.json"
        code = run("forward", "--features", str(corpus / "features.hft"), flag, "0",
                   "--out", str(out))
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ShapeError"
        assert not out.exists()

    @pytest.mark.parametrize("num_steps", ["-3", "4", "1000000000"])
    def test_num_steps(self, corpus, tmp_path, capsys, num_steps):
        pred = tmp_path / "labels.json"
        pred.write_text(json.dumps({"timestamps": [0.0, 5.5], "segment_duration": 0.5,
                                    "labels": [0, 1]}))
        out = tmp_path / "o.json"
        code = exit_code("evaluate", "--task", "procedure", "--pred", str(pred), "--annotations",
                         str(corpus / "annotations.json"), "--num-steps", num_steps,
                         "--out", str(out), "--no-meta")
        if int(num_steps) < 0:
            assert code == EXIT_USAGE
            assert "--num-steps" in capsys.readouterr().err
            assert not out.exists()
        else:  # a step id no frame carries costs nothing: 10**9 steps score as 4 do
            assert code == EXIT_OK
            doc = json.loads(out.read_text())
            assert doc["counts"]["steps"] == int(num_steps)
            assert doc["scalars"] == {"F1": 1.0, "IoU": 1.0}

    def test_bad_magic_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.hft"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = run("forward", "--features", str(bad), "--out", str(tmp_path / "o.json"))
        assert code == EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadMagicError"

    def test_params_cut_mid_float_is_truncated(self, corpus, tmp_path, capsys):
        path = tmp_path / "p.bin"
        save_params(path, identity_params(ModelDims(d_in=16, d_h=16, d_a=16, d_t=16,
                                                    stages=1, layers=1)))
        path.write_bytes(path.read_bytes()[:-3])  # not a whole number of floats
        code = run("forward", "--features", str(corpus / "features.hft"),
                   "--params", str(path), "--out", str(tmp_path / "o.json"))
        assert code == EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "TruncatedFileError"
        assert str(path) in err["error"]["message"]

    def test_eigensolver_failure_is_library_error(self, corpus, tmp_path, capsys, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        code = run("procedure-learn", "--features", str(corpus / "features.hft"), "--k", "4",
                   "--hidden", "16", "--out", str(tmp_path / "labels.json"))
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConvergenceError"


class TestIdentityDefault:
    """Without ``--params`` or ``--init-seed`` every model call of a process
    shares one read-only identity parameter set per widened dims."""

    @staticmethod
    def params_of(monkeypatch, corpus, tmp_path, *flags):
        """The parameters one ``forward`` call over the 16-dim corpus runs with."""
        seen = []

        def spy(seq, params, cfg, k):
            seen.append(params)
            return run_forward(seq, params, cfg, k)

        run_forward = cli._run_forward
        monkeypatch.setattr(cli, "_run_forward", spy)
        assert run("forward", "--features", str(corpus / "features.hft"), *flags,
                   "--out", str(tmp_path / "o.json"), "--no-meta") == EXIT_OK
        monkeypatch.setattr(cli, "_run_forward", run_forward)
        return seen[0]

    def test_equal_widened_dims_share_one_set(self, monkeypatch, corpus, tmp_path):
        first = self.params_of(monkeypatch, corpus, tmp_path, "--hidden", "16")
        assert self.params_of(monkeypatch, corpus, tmp_path, "--hidden", "16") is first
        # --hidden 8 widens to the input's 16 dims
        assert self.params_of(monkeypatch, corpus, tmp_path, "--hidden", "8") is first
        assert first.dims == ModelDims(d_in=16, d_h=16, d_a=768, d_t=16)

    @pytest.mark.parametrize("flags", [("--hidden", "24"), ("--align-dim", "24")])
    def test_other_dims_get_their_own_set(self, monkeypatch, corpus, tmp_path, flags):
        base = self.params_of(monkeypatch, corpus, tmp_path, "--hidden", "16",
                              "--align-dim", "16")
        other = self.params_of(monkeypatch, corpus, tmp_path, "--hidden", "16",
                               "--align-dim", "16", *flags)
        assert other is not base and other.dims != base.dims

    def test_shared_leaves_are_read_only_identity_params(self, monkeypatch, corpus, tmp_path):
        params = self.params_of(monkeypatch, corpus, tmp_path, "--hidden", "16")
        fresh = identity_params(params.dims).leaves()
        for leaf, want in zip(params.leaves(), fresh, strict=True):
            assert np.array_equal(leaf, want) and leaf.dtype == want.dtype
            with pytest.raises(ValueError):
                leaf[...] = 1.0
        assert identity_params(params.dims).leaves()[0].flags.writeable  # the library's own


class TestPipeline:
    def test_synth_layout(self, corpus):
        for name in ("features.hft", "narrations.json", "taxonomy.json",
                     "annotations.json", "planted.json", "summary.json"):
            assert (corpus / name).exists()

    def test_no_interleave_lays_the_steps_out_in_order(self, tmp_path):
        labels = {}
        for name, flags in (("plain", ("--no-interleave",)), ("mixed", ())):
            assert run("synth", "--out", str(tmp_path / name), "--seed", "7", "--threads", "4",
                       "--segments-per-step", "3", "--dim", "8", *flags, "--no-meta") == EXIT_OK
            doc = json.loads((tmp_path / name / "annotations.json").read_text())
            labels[name] = [item["label"] for item in doc["intervals"]]
        assert labels["plain"] == [0, 1, 2, 3]
        assert sorted(labels["mixed"]) == labels["plain"] != labels["mixed"]

    def test_forward_keeps_input_order(self, corpus, tmp_path):
        long = corpus / "features.hft"
        short = tmp_path / "short.hft"
        write_feature_file(short, FeatureSequence("short", np.arange(12) * 0.5,
                                                  np.eye(12, 16) + 0.25))

        def forward(*paths):
            out = tmp_path / "fwd.json"
            assert run("forward", "--features", *map(str, paths), "--hidden", "16",
                       "--out", str(out), "--no-meta") == EXIT_OK
            return json.loads(out.read_text())["videos"]

        one = {p: forward(p)[0] for p in (long, short)}
        assert forward(long, short) == [one[long], one[short]]
        assert forward(short, long) == [one[short], one[long]]
        assert one[long] != one[short]

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

    @pytest.mark.parametrize("command", ["ground", "localize"])
    def test_predictions_carry_meta_unless_no_meta(self, corpus, tmp_path, command):
        taxonomy = corpus / "taxonomy.json"
        query = tmp_path / "query.json"
        embedding = json.loads(taxonomy.read_text())["embeddings"][1]
        query.write_text(json.dumps({"embedding": embedding}))
        extra = {"ground": ("--query", str(query)), "localize": ("--taxonomy", str(taxonomy))}
        docs = {}
        for flags in ((), ("--no-meta",)):
            preds = tmp_path / f"preds{len(flags)}.json"
            assert run(command, "--features", str(corpus / "features.hft"), *extra[command],
                       "--hidden", "16", "--k", "4", "--out", str(preds), *flags) == EXIT_OK
            docs[flags] = json.loads(preds.read_text())
            queries = tmp_path / "queries.json"
            queries.write_text(json.dumps({"queries": [{"predictions": preds.name, "gt": None}]}))
            evaluate = {"ground": ("--task", "grounding", "--queries", str(queries)),
                        "localize": ("--task", "localization", "--pred", str(preds),
                                     "--annotations", str(corpus / "annotations.json"))}
            assert run("evaluate", *evaluate[command], "--out", str(tmp_path / "report.json"),
                       "--no-meta") == EXIT_OK
        meta = docs[()].pop("meta")
        assert (meta["tool"], meta["command"]) == ("videothreads", command)
        assert docs[()] == docs[("--no-meta",)]
        assert docs[()]["predictions"]

    def test_ground_writes_stdout_by_default(self, corpus, tmp_path, monkeypatch, capsys):
        taxonomy = json.loads((corpus / "taxonomy.json").read_text())
        query = tmp_path / "query.json"
        query.write_text(json.dumps({"embedding": taxonomy["embeddings"][1]}))
        monkeypatch.chdir(tmp_path)
        assert run("ground", "--features", str(corpus / "features.hft"),
                   "--query", str(query), "--hidden", "16", "--k", "4") == EXIT_OK
        assert json.loads(capsys.readouterr().out)["predictions"]
        assert not (tmp_path / "-").exists()

    def test_forward_embeddings_on_stdout_equal_the_file(self, corpus, tmp_path, monkeypatch,
                                                           capsysbinary):
        monkeypatch.setattr(_floatrepr, "CHUNK", 64)  # many chunks of rows
        argv = ("forward", "--features", str(corpus / "features.hft"), "--hidden", "16",
                "--emit-embeddings", "--no-meta")
        assert run(*argv, "--out", str(tmp_path / "fwd.json")) == EXIT_OK
        assert run(*argv) == EXIT_OK
        assert capsysbinary.readouterr().out == (tmp_path / "fwd.json").read_bytes()

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
        from videothreads.dataio import read_feature_file

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

    def test_mcq_accepts_integer_and_float_spans(self, corpus, tmp_path):
        feats = str(corpus / "features.hft")
        question = tmp_path / "q.json"
        question.write_text(json.dumps({
            "query": [1.0] * 16,
            "candidates": [feats] * 5,
            "spans": [[0, 3], [3.5, 6.0], [6, 9.5], [9, 12], [12.0, 15]],
        }))
        result = tmp_path / "mcq.json"
        assert run("mcq", "--question", str(question), "--hidden", "16",
                   "--out", str(result), "--no-meta") == EXIT_OK
        assert json.loads(result.read_text())["chosen"] in range(5)

    def test_grad_check_subcommand(self, tmp_path):
        out = tmp_path / "gc.json"
        assert run("grad-check", "--out", str(out), "--no-meta") == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["max_rel_error"] <= 1e-4
        assert doc["passed"] is True

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_grad_check_rejects_non_finite_epsilon(self, tmp_path, capsys, epsilon):
        out = tmp_path / "gc.json"
        assert run("grad-check", "--epsilon", epsilon, "--out", str(out)) == EXIT_ERROR
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ShapeError"
        assert "epsilon" in err["message"]

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

    def test_train_toy_small_temperature_stays_finite(self, tmp_path):
        # at temperature 0.001 the logits reach 1000, where exp overflows;
        # each loss sum is taken with its own max shift
        for i in range(3):
            assert run("synth", "--out", str(tmp_path / "data" / f"v{i}"),
                       "--seed", str(500 + i), "--threads", "2",
                       "--steps-per-thread", "2", "--segments-per-step", "8",
                       "--dim", "8", "--separation", "3", "--no-meta") == EXIT_OK
        cfg = tmp_path / "tc.json"
        cfg.write_text(json.dumps({
            "epochs": 2, "batch_size": 8, "lr": 0.05, "warmup_epochs": 1,
            "hidden": 8, "align_dim": 8, "stages": 2, "layers": 1,
            "alpha": 2.0, "beta": 5.0, "k": 2, "temperature": 0.001,
        }))
        summary = tmp_path / "s.json"
        assert run("train-toy", "--data", str(tmp_path / "data"),
                   "--train-config", str(cfg), "--params-out", str(tmp_path / "p.bin"),
                   "--history", str(tmp_path / "h.jsonl"), "--seed", "1",
                   "--out", str(summary), "--no-meta") == EXIT_OK
        assert math.isfinite(json.loads(summary.read_text())["final_loss"])

    @staticmethod
    def narrated_corpus(root):
        """Three planted videos of 8-wide features and narrations, and a
        one-epoch train config for them."""
        for i in range(3):
            assert run("synth", "--out", str(root / "data" / f"v{i}"), "--seed", str(700 + i),
                       "--threads", "2", "--segments-per-step", "6", "--dim", "8",
                       "--separation", "3", "--no-meta") == EXIT_OK
        cfg = root / "tc.json"
        cfg.write_text(json.dumps({"epochs": 1, "warmup_epochs": 0, "hidden": 8,
                                   "align_dim": 8, "stages": 1, "layers": 1}))
        return root / "data", ("--train-config", str(cfg), "--params-out", str(root / "p.bin"),
                               "--history", str(root / "h.jsonl"), "--out",
                               str(root / "s.json"), "--no-meta")

    def test_first_video_without_narrations_trains(self, tmp_path):
        # d_t comes from the narrated videos, not from the first one
        data, flags = self.narrated_corpus(tmp_path)
        (data / "v0" / "narrations.json").write_text(json.dumps({"items": []}))
        assert run("train-toy", "--data", str(data), *flags) == EXIT_OK
        assert len((tmp_path / "h.jsonl").read_text().splitlines()) == 1

    def test_corpus_without_narrations_is_data_error(self, tmp_path, capsys):
        data, flags = self.narrated_corpus(tmp_path)
        for i in range(3):
            (data / f"v{i}" / "narrations.json").write_text(json.dumps({"items": []}))
        assert run("train-toy", "--data", str(data), *flags) == EXIT_DATA
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "SchemaError"
        assert str(data) in error["message"]

    def test_mixed_narration_widths_is_data_error(self, tmp_path, capsys):
        data, flags = self.narrated_corpus(tmp_path)
        path = data / "v1" / "narrations.json"
        doc = json.loads(path.read_text())
        for item in doc["items"]:
            item["embedding"] = item["embedding"][:4]
        path.write_text(json.dumps(doc))
        assert run("train-toy", "--data", str(data), *flags) == EXIT_DATA
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "SchemaError"
        assert str(path) in error["message"]

    def test_history_rows_split_the_loss(self, tmp_path):
        data, flags = self.narrated_corpus(tmp_path)
        assert run("train-toy", "--data", str(data), *flags) == EXIT_OK
        (row,) = [json.loads(line) for line in (tmp_path / "h.jsonl").read_text().splitlines()]
        assert set(row) == {"epoch", "mean_loss", "vna", "ft", "lr"}
        assert row["mean_loss"] == pytest.approx(row["vna"] + row["ft"], rel=1e-12)

    def test_unknown_train_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "tc.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code = run("train-toy", "--data", str(tmp_path), "--train-config", str(cfg),
                   "--params-out", str(tmp_path / "p.bin"),
                   "--history", str(tmp_path / "h.jsonl"))
        assert code == EXIT_CONFIG

    def test_seed_flag_overrides_the_train_config(self, tmp_path):
        for i in range(2):
            assert run("synth", "--out", str(tmp_path / "data" / f"v{i}"),
                       "--seed", str(600 + i), "--threads", "2", "--segments-per-step", "6",
                       "--dim", "8", "--separation", "3", "--no-meta") == EXIT_OK
        base = {"epochs": 1, "warmup_epochs": 0, "lr": 0.05, "hidden": 8, "align_dim": 8,
                "stages": 1, "layers": 1}
        params = {}
        for name, doc, flags in (("file", {**base, "seed": 4}, ()),
                                 ("flag", {**base, "seed": 9}, ("--seed", "4"))):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            params[name] = tmp_path / f"{name}.bin"
            assert run("train-toy", "--data", str(tmp_path / "data"), "--train-config", str(cfg),
                       "--params-out", str(params[name]),
                       "--history", str(tmp_path / f"{name}.jsonl"), *flags,
                       "--out", str(tmp_path / f"{name}.out"), "--no-meta") == EXIT_OK
        assert params["file"].read_bytes() == params["flag"].read_bytes()


@pytest.fixture(scope="module")
def short_corpora(tmp_path_factory):
    """Planted corpora of one and of three segments, each with a query."""
    root = tmp_path_factory.mktemp("short")
    for n in (1, 3):
        d = root / f"n{n}"
        assert run("synth", "--out", str(d), "--threads", "1", "--segments-per-step", str(n),
                   "--dim", "8", "--no-meta") == EXIT_OK
        taxonomy = json.loads((d / "taxonomy.json").read_text())
        (d / "query.json").write_text(json.dumps({"embedding": taxonomy["embeddings"][0]}))
    return root


class TestShortVideos:
    """Behaviour when k exceeds the segment count: with k capped at N, every
    run is one segment long, below min_len, so no candidate step is left."""

    @pytest.mark.parametrize("n, k", [(1, "3"), (3, "9")])
    @pytest.mark.parametrize("command", ["forward", "procedure-learn", "localize", "ground"])
    def test_k_above_segment_count_runs(self, short_corpora, tmp_path, n, k, command):
        d = short_corpora / f"n{n}"
        extra = {"localize": ("--taxonomy", str(d / "taxonomy.json")),
                 "ground": ("--query", str(d / "query.json"))}.get(command, ())
        out = tmp_path / "out.json"
        assert run(command, "--features", str(d / "features.hft"), *extra, "--k", k,
                   "--hidden", "8", "--out", str(out), "--no-meta") == EXIT_OK
        if command in ("localize", "ground"):
            assert json.loads(out.read_text()) == {"predictions": []}

    def test_empty_grounding_scores_a_miss(self, short_corpora, tmp_path):
        d = short_corpora / "n1"
        preds = tmp_path / "g.json"
        assert run("ground", "--features", str(d / "features.hft"), "--query",
                   str(d / "query.json"), "--k", "3", "--hidden", "8",
                   "--out", str(preds), "--no-meta") == EXIT_OK
        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps({"queries": [
            {"predictions": preds.name, "gt": {"start": 0.0, "end": 1.0}}]}))
        report = tmp_path / "report.json"
        assert run("evaluate", "--task", "grounding", "--queries", str(queries),
                   "--out", str(report), "--no-meta") == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["counts"]["queries"] == 1
        assert set(doc["scalars"].values()) == {0.0}
