import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impl import brute_force_assignment, procedure_f1_iou_ref
from videothreads.dataio import StepPrediction
from videothreads.errors import NonFiniteError, ShapeError
from videothreads.metrics import (
    adjusted_rand_index,
    hungarian,
    label_accuracy,
    map_at_iou,
    mcq_accuracy,
    procedure_f1_iou,
    recall_at_iou,
    temporal_iou,
)


class TestHungarian:
    def test_diagonal_optimum(self):
        mapping, total = hungarian([[1.0, 2.0], [2.0, 1.0]])
        assert mapping == {0: 0, 1: 1}
        assert total == 2.0

    def test_forced_off_diagonal(self):
        mapping, total = hungarian([[10.0, 1.0], [1.0, 10.0]])
        assert mapping == {0: 1, 1: 0}
        assert total == 2.0

    def test_matches_brute_force_seeded(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            cost = rng.standard_normal((n, n)) * 10.0
            _, total = hungarian(cost)
            assert total == pytest.approx(brute_force_assignment(cost), abs=1e-9)

    def test_rectangular_matrices(self):
        rng = np.random.default_rng(1)
        for shape in ((2, 5), (5, 2), (3, 7), (7, 3), (1, 4)):
            cost = rng.standard_normal(shape) * 5.0
            mapping, total = hungarian(cost)
            assert len(mapping) == min(shape)
            assert total == pytest.approx(brute_force_assignment(cost), abs=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            hungarian([[np.inf, 1.0], [1.0, 0.0]])

    def test_deterministic_under_ties(self):
        cost = np.zeros((3, 3))
        a = hungarian(cost)
        b = hungarian(cost)
        assert a == b


class TestProcedureF1Iou:
    def test_perfect_prediction(self):
        gt = np.repeat([0, 1, 2], 10)
        assert procedure_f1_iou(gt, gt, 3) == (1.0, 1.0)

    def test_single_cluster_against_two_steps(self):
        # matched step: precision 0.5, recall 1.0 -> IoU 0.5; the other step
        # is unmatched and scores zero, so the averages are 1/3 and 1/4
        gt = np.repeat([0, 1], 10)
        pred = np.zeros(20, dtype=int)
        f1, iou = procedure_f1_iou(pred, gt, 2)
        assert f1 == pytest.approx((2 * 0.5 * 1.0 / 1.5) / 2)
        assert iou == pytest.approx(0.25)

    def test_matches_permutation_oracle(self):
        # oracle: enumerate injective cluster->step mappings, maximize total
        # overlap, then score; seeds chosen so the optimum is unique
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = 40
            gt = rng.integers(0, 4, n)
            pred = rng.integers(0, 4, n)
            got_f1, got_iou = procedure_f1_iou(pred, gt, 4)
            want_f1, want_iou, unique = permutation_oracle(pred, gt, 4)
            if unique:
                assert got_f1 == pytest.approx(want_f1, abs=1e-12)
                assert got_iou == pytest.approx(want_iou, abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        gt = rng.integers(0, 3, 30)
        pred = rng.integers(0, 3, 30)
        base = procedure_f1_iou(pred, gt, 3)
        relabeled = (pred + 1) % 3
        assert procedure_f1_iou(relabeled, gt, 3) == base

    def test_background_excluded_from_steps(self):
        gt = np.array([0, 0, -1, -1, 1, 1])
        pred = np.array([5, 5, 5, 5, 6, 6])
        f1, iou = procedure_f1_iou(pred, gt, 2)
        # cluster 5 covers step 0 plus two background frames: recall 1,
        # precision 0.5; cluster 6 matches step 1 exactly
        assert f1 == pytest.approx((2 * 0.5 / 1.5 + 1.0) / 2)
        assert iou == pytest.approx((0.5 + 1.0) / 2)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            procedure_f1_iou([0, 1], [0, 1, 2], 3)

    def test_background_takes_no_argument(self):
        # any ground-truth label outside [0, num_steps) is background
        with pytest.raises(TypeError):
            procedure_f1_iou([0, 1], [0, 1], 2, background=-1)

    @given(data=st.data(), num_steps=st.integers(-3, 50))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_range_scan(self, data, num_steps):
        size = data.draw(st.integers(1, 30))
        pred = np.array(data.draw(st.lists(st.integers(-2, 6), min_size=size, max_size=size)))
        gt = np.array(data.draw(st.lists(st.integers(-2, 55), min_size=size, max_size=size)))
        assert procedure_f1_iou(pred, gt, num_steps) == procedure_f1_iou_ref(pred, gt, num_steps)

    def test_huge_num_steps_returns(self):
        # the step ids come from the labels, so 2**62 costs what 3 does
        pred, gt = np.array([0, 0, 1, 2, 2]), np.array([0, 1, 1, 2, -1])
        assert procedure_f1_iou(pred, gt, 2**62) == procedure_f1_iou(pred, gt, 3)


class TestRecallAtIou:
    def test_boundary_inclusive_hit(self):
        preds = [StepPrediction(2.0, 8.0, None, 1.0)]
        report = recall_at_iou([(preds, (4.0, 10.0))])
        assert temporal_iou((2, 8), (4, 10)) == 0.5
        assert report.scalars["R@1@0.3"] == 100.0
        assert report.scalars["R@1@0.5"] == 100.0  # 0.5 >= 0.5

    def test_disjoint_miss(self):
        preds = [StepPrediction(0.0, 1.0, None, 1.0)]
        report = recall_at_iou([(preds, (5.0, 6.0))])
        assert all(v == 0.0 for v in report.scalars.values())

    def test_rank_rule(self):
        preds = [StepPrediction(100.0, 101.0, None, 0.9),
                 StepPrediction(4.0, 10.0, None, 0.5)]
        report = recall_at_iou([(preds, (4.0, 10.0))])
        assert report.scalars["R@1@0.5"] == 0.0
        assert report.scalars["R@5@0.5"] == 100.0

    def test_empty_gt_skipped_and_counted(self):
        preds = [StepPrediction(0.0, 1.0, None, 1.0)]
        report = recall_at_iou([(preds, None), (preds, (0.0, 1.0))])
        assert report.counts["queries"] == 1
        assert report.counts["skipped_queries"] == 1
        assert report.scalars["R@1@0.5"] == 100.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        queries = []
        for _ in range(30):
            start = rng.uniform(0, 10)
            preds = [StepPrediction(start + rng.uniform(-2, 2),
                                    start + 5 + rng.uniform(-2, 2), None, rng.random())
                     for _ in range(3)]
            queries.append((preds, (start, start + 5)))
        report = recall_at_iou(queries, thresholds=(0.1, 0.3, 0.5, 0.7))
        for k in (1, 5):
            values = [report.scalars[f"R@{k}@{t:g}"] for t in (0.1, 0.3, 0.5, 0.7)]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestMapAtIou:
    def test_perfect_predictions(self):
        preds = [StepPrediction(0.0, 10.0, 0, 0.9), StepPrediction(20.0, 30.0, 1, 0.8)]
        gt = [(0.0, 10.0, 0), (20.0, 30.0, 1)]
        report = map_at_iou(preds, gt)
        assert all(report.scalars[k] == 1.0 for k in report.scalars)

    def test_single_wrong_prediction_zero_ap(self):
        report = map_at_iou([StepPrediction(50.0, 60.0, 0, 0.9)], [(0.0, 10.0, 0)])
        assert report.scalars["mAP@avg"] == 0.0

    def test_hand_enumerated_duplicate_fixture(self):
        # class 0: false positive outranks the true positive ->
        #   PR points: (r=0, p=0), (r=1, p=1/2); all-point AP = 0.5
        # class 1: single true positive -> AP = 1.0
        # mAP = 0.75 at every threshold
        preds = [
            StepPrediction(50.0, 60.0, 0, 0.95),
            StepPrediction(0.0, 10.0, 0, 0.90),
            StepPrediction(20.0, 30.0, 1, 0.70),
        ]
        gt = [(0.0, 10.0, 0), (20.0, 30.0, 1)]
        report = map_at_iou(preds, gt)
        for th in (0.1, 0.2, 0.3, 0.4, 0.5):
            assert report.scalars[f"mAP@{th:g}"] == pytest.approx(0.75)
        assert report.scalars["mAP@avg"] == pytest.approx(0.75)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        preds, gt = [], []
        for c in range(3):
            for i in range(5):
                s = rng.uniform(0, 100)
                gt.append((s, s + 4.0, c))
                preds.append(StepPrediction(s + rng.uniform(-2, 2),
                                            s + 4 + rng.uniform(-2, 2), c, rng.random()))
        report = map_at_iou(preds, gt, thresholds=(0.1, 0.3, 0.5, 0.7, 0.9))
        values = [report.scalars[f"mAP@{t:g}"] for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_background_gt_ignored(self):
        report = map_at_iou([StepPrediction(0.0, 1.0, 0, 0.5)],
                            [(0.0, 1.0, 0), (5.0, 6.0, None)])
        assert report.counts["gt_instances"] == 1


class TestLabelAccuracy:
    GT = [(0.0, 10.0, 0), (10.0, 20.0, 1), (20.0, 30.0, None)]

    def test_label_of_the_best_overlap_scores(self):
        preds = [StepPrediction(1.0, 12.0, 0, 0.9), StepPrediction(8.0, 19.0, 0, 0.5)]
        assert label_accuracy(preds, self.GT) == 0.5

    def test_prediction_overlapping_no_labeled_interval_is_wrong(self):
        # it would score right against the first labeled interval, label 0
        for start, end in ((40.0, 50.0), (20.0, 30.0), (-5.0, 0.0)):
            assert label_accuracy([StepPrediction(start, end, 0, 0.9)], self.GT) == 0.0

    def test_ties_go_to_the_first_interval(self):
        assert label_accuracy([StepPrediction(5.0, 15.0, 0, 0.9)], self.GT) == 1.0
        assert label_accuracy([StepPrediction(5.0, 15.0, 1, 0.9)], self.GT) == 0.0

    def test_no_predictions_or_no_labels(self):
        assert label_accuracy([], self.GT) == 0.0
        assert label_accuracy([StepPrediction(0.0, 1.0, None, 0.9)], [(0.0, 1.0, None)]) == 0.0


class TestMcqAccuracy:
    def test_all_correct(self):
        report = mcq_accuracy([(0, 0, "inter"), (1, 1, "intra")])
        assert report.scalars["inter_accuracy"] == 100.0
        assert report.scalars["intra_accuracy"] == 100.0

    def test_half_intra(self):
        report = mcq_accuracy([(0, 0, "intra"), (1, 2, "intra")])
        assert report.scalars["intra_accuracy"] == 50.0

    def test_empty_group_absent(self):
        report = mcq_accuracy([(0, 0, "intra")])
        assert "inter_accuracy" not in report.scalars
        assert "intra_accuracy" in report.scalars


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 9, 9]) == 1.0

    def test_single_cluster_each(self):
        assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0

    def test_known_value(self):
        # classic contingency example
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 2, 2]
        assert adjusted_rand_index(a, b) == pytest.approx(0.24242424, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            adjusted_rand_index([0, 1], [0, 1, 2])


def permutation_oracle(pred, gt, num_steps):
    pred_ids = sorted(set(pred.tolist()))
    gt_ids = [s for s in range(num_steps) if np.any(gt == s)]
    best_overlap = -1
    best_scores = None
    ties = 0
    for perm in itertools.permutations(range(len(pred_ids)), len(gt_ids)):
        total = sum(np.sum((pred == pred_ids[perm[b]]) & (gt == gt_ids[b]))
                    for b in range(len(gt_ids)))
        if total > best_overlap:
            best_overlap = total
            ties = 1
            f1s, ious = [], []
            for b, s in enumerate(gt_ids):
                p_mask = pred == pred_ids[perm[b]]
                g_mask = gt == s
                inter = float(np.sum(p_mask & g_mask))
                precision = inter / max(float(np.sum(p_mask)), 1.0)
                recall = inter / float(np.sum(g_mask))
                f1s.append(0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall))
                ious.append(inter / float(np.sum(p_mask | g_mask)))
            best_scores = (float(np.mean(f1s)), float(np.mean(ious)))
        elif total == best_overlap:
            ties += 1
    return best_scores[0], best_scores[1], ties == 1
