"""Utility modules: rng plumbing, tables, image ops, atomic writes."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.utils import (as_rng, clip01, derive_rng, l1_distance,
                         render_table, rng_from_seed_sequence, save_pgm,
                         save_ppm, spawn_rngs, spawn_seed_sequences,
                         to_uint8)
from repro.utils.atomicio import atomic_write_json


class TestRng:
    def test_as_rng_accepts_seed_and_generator(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen
        assert isinstance(as_rng(42), np.random.Generator)
        assert isinstance(as_rng(None), np.random.Generator)

    def test_same_seed_same_stream(self):
        a = as_rng(7).random(5)
        b = as_rng(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_derive_rng_label_dependent(self):
        base = 99
        a = derive_rng(as_rng(base), "weights").random(4)
        b = derive_rng(as_rng(base), "data").random(4)
        assert not np.array_equal(a, b)
        # Deterministic given (seed, label).
        a2 = derive_rng(as_rng(base), "weights").random(4)
        np.testing.assert_array_equal(a, a2)

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(as_rng(3), 4)
        assert len(children) == 4
        draws = [c.random() for c in children]
        assert len(set(draws)) == 4

    def test_spawn_seed_sequences_deterministic(self):
        a = spawn_seed_sequences(11, 5)
        b = spawn_seed_sequences(11, 5)
        assert len(a) == 5
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(
                rng_from_seed_sequence(sa).integers(0, 1000, 8),
                rng_from_seed_sequence(sb).integers(0, 1000, 8))

    def test_spawn_seed_sequences_position_dependent(self):
        # Child i's stream depends on position, not on siblings: the
        # campaign relies on shard i drawing the same numbers no matter
        # how many shards exist after it.
        short = spawn_seed_sequences(11, 2)
        long = spawn_seed_sequences(11, 6)
        for sa, sb in zip(short, long):
            np.testing.assert_array_equal(
                rng_from_seed_sequence(sa).integers(0, 1000, 8),
                rng_from_seed_sequence(sb).integers(0, 1000, 8))

    def test_spawn_seed_sequences_does_not_mutate_caller(self):
        # Regression: SeedSequence.spawn advances the parent's
        # n_children_spawned, so spawning must work on a copy — a
        # campaign engine re-run with the same SeedSequence seed (and
        # fuzz rounds re-deriving children on resume) must draw
        # identical streams every time.
        root = np.random.SeedSequence(11)
        a = spawn_seed_sequences(root, 3)
        assert root.n_children_spawned == 0
        b = spawn_seed_sequences(root, 3)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(
                rng_from_seed_sequence(sa).integers(0, 1000, 8),
                rng_from_seed_sequence(sb).integers(0, 1000, 8))
        # And the int path agrees with the SeedSequence path.
        for sa, sb in zip(a, spawn_seed_sequences(11, 3)):
            np.testing.assert_array_equal(
                rng_from_seed_sequence(sa).integers(0, 1000, 8),
                rng_from_seed_sequence(sb).integers(0, 1000, 8))

    def test_spawn_seed_sequences_survive_pickling(self):
        import pickle
        children = spawn_seed_sequences(11, 3)
        for child in children:
            thawed = pickle.loads(pickle.dumps(child))
            np.testing.assert_array_equal(
                rng_from_seed_sequence(thawed).integers(0, 1000, 8),
                rng_from_seed_sequence(child).integers(0, 1000, 8))


class TestTables:
    def test_basic_rendering(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", 0.000123]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "0.000123" in text

    def test_alignment(self):
        text = render_table(["col"], [["short"], ["a much longer cell"]])
        lines = text.splitlines()
        assert len(lines[1]) == len(lines[2]) == len(lines[3])

    def test_nan_rendered_as_dash(self):
        text = render_table(["v"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_never_crashes_on_floats(self, values):
        render_table([f"c{i}" for i in range(len(values))], [values])


class TestImageOps:
    def test_clip01(self):
        np.testing.assert_array_equal(clip01(np.array([-1.0, 0.5, 2.0])),
                                      [0.0, 0.5, 1.0])

    def test_l1_distance(self):
        a = np.zeros((1, 2, 2))
        b = np.full((1, 2, 2), 0.25)
        assert l1_distance(a, b) == pytest.approx(1.0)
        with pytest.raises(ShapeError):
            l1_distance(np.zeros((2,)), np.zeros((3,)))

    @given(st.integers(0, 255))
    @settings(max_examples=20, deadline=None)
    def test_to_uint8_roundtrip(self, value):
        img = np.full((2, 2), value / 255.0)
        assert to_uint8(img)[0, 0] == value

    def test_save_pgm(self, tmp_path):
        path = tmp_path / "img.pgm"
        save_pgm(path, np.random.default_rng(0).random((1, 5, 4)))
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 5\n255\n")
        assert len(data) == len(b"P5\n4 5\n255\n") + 20

    def test_save_ppm(self, tmp_path):
        path = tmp_path / "img.ppm"
        save_ppm(path, np.zeros((3, 4, 6)))
        assert path.read_bytes().startswith(b"P6\n6 4\n255\n")

    def test_save_pgm_shape_validation(self, tmp_path):
        with pytest.raises(ShapeError):
            save_pgm(tmp_path / "x.pgm", np.zeros((3, 4, 4)))
        with pytest.raises(ShapeError):
            save_ppm(tmp_path / "x.ppm", np.zeros((1, 4, 4)))


def test_atomic_write_json_is_compact_and_key_sorted(tmp_path):
    path = tmp_path / "state.json"
    atomic_write_json(str(path), {"b": [1, {"d": 2, "c": 3}], "a": None})
    assert path.read_text(encoding="utf-8") == \
        '{"a":null,"b":[1,{"c":3,"d":2}]}\n'
    assert os.listdir(tmp_path) == ["state.json"]   # no temp file left
