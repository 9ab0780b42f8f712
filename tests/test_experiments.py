"""Experiment harness: every runner produces a well-formed result at
smoke scale, and fast experiments reproduce the paper's qualitative
claims."""

import numpy as np
import pytest

from repro.experiments import (EXPERIMENTS, ExperimentResult,
                               run_class_overlap, run_code_vs_neuron,
                               run_coverage_comparison, run_difference_counts,
                               run_drebin_samples, run_gallery,
                               run_model_zoo, run_pdf_samples,
                               seeds_for_scale)
from repro.experiments.difference_counts import attribute_test
from repro.core.engine import GeneratedTest


def test_experiment_registry_complete():
    expected = {f"table{i}" for i in range(1, 13)}
    expected |= {"figure8", "figure9", "figure10", "pollution"}
    assert set(EXPERIMENTS) == expected


def test_seeds_for_scale():
    assert seeds_for_scale("smoke") < seeds_for_scale("full")
    assert seeds_for_scale("full", maximum=10) == 10


def test_result_render():
    result = ExperimentResult("t", "title", ["a"], rows=[[1]],
                              series={"s": ([0], [1.0])},
                              notes=["hello"])
    text = result.render()
    assert "title" in text and "hello" in text and "series s" in text


class TestAttribution:
    def _t(self, preds):
        return GeneratedTest(x=np.zeros(1), seed_index=0, iterations=1,
                             predictions=np.asarray(preds), seed_class=0,
                             elapsed=0.0)

    def test_majority_dissenter(self):
        assert attribute_test(self._t([3, 3, 7]), 3) == 2
        assert attribute_test(self._t([5, 3, 3]), 3) == 0

    def test_total_disagreement_attributes_first(self):
        assert attribute_test(self._t([1, 2, 3]), 3) == 0

    def test_regression_outlier(self):
        assert attribute_test(self._t([0.1, 0.12, -0.8]), 3) == 2


def test_table6_code_vs_neuron_claim():
    result = run_code_vs_neuron(scale="smoke", seed=0,
                                datasets=["mnist", "pdf"])
    assert len(result.rows) == 2
    for row in result.rows:
        # Code coverage saturates; neuron coverage stays well below 100%.
        assert row[1] == row[2] == row[3] == "100%"
        for cell in row[4:]:
            assert float(cell.rstrip("%")) < 100.0


def test_table7_same_class_overlaps_more():
    result = run_class_overlap(scale="smoke", seed=0, n_pairs=30)
    diff_row, same_row = result.rows
    assert same_row[3] > diff_row[3]


def test_table2_counts_nonnegative():
    result = run_difference_counts(scale="smoke", seed=0,
                                   datasets=["mnist"])
    assert len(result.rows) == 3
    total = sum(row[-1] for row in result.rows)
    assert total > 0


def test_tables_3_and_4_render_mutations():
    drebin = run_drebin_samples(scale="smoke", seed=0)
    if drebin.rows:
        for row in drebin.rows:
            assert row[2] == "0" and row[3] == "1"  # add-only bits
    pdf = run_pdf_samples(scale="smoke", seed=0)
    for row in pdf.rows:
        assert float(row[2]) != float(row[3])


def test_table1_lists_all_models():
    result = run_model_zoo(scale="smoke", seed=0)
    assert len(result.rows) == 15
    names = {row[1] for row in result.rows}
    assert "MNI_C1" in names and "APP_C3" in names


def test_figure9_deepxplore_beats_random():
    result = run_coverage_comparison(scale="smoke", seed=0,
                                     datasets=["mnist"], budget=6)
    dx = result.series["mnist/deepxplore"][1]
    rand = result.series["mnist/random"][1]
    # At some threshold, DeepXplore's coverage must exceed random's.
    assert any(d > r for d, r in zip(dx, rand) if not np.isnan(d))


def test_run_all_subset(capsys):
    from repro.experiments import run_all
    results = run_all(scale="smoke", seed=0, experiment_ids=["table7"],
                      verbose=True)
    assert set(results) == {"table7"}
    assert "Same class" in capsys.readouterr().out


def test_figure8_gallery_writes_images(tmp_path):
    result = run_gallery(scale="smoke", seed=0, per_cell=1,
                         datasets=["mnist"], output_dir=str(tmp_path))
    assert result.rows
    found_rows = [r for r in result.rows if r[2] != "-"]
    if found_rows:
        images = list(tmp_path.iterdir())
        assert images, "gallery found examples but wrote no images"
