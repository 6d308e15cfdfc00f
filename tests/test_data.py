"""Synthetic dataset: generation determinism, modality properties, splits,
segment sampling, and the clip/manifest file formats."""

import struct

import numpy as np
import pytest

from tsmkit import data


class TestMotionPrograms:
    def test_twenty_programs_unique_names(self):
        names = [p[0] for p in data.MOTION_PROGRAMS]
        assert len(names) == 20
        assert len(set(names)) == 20

    def test_up_down_share_frame_multiset(self):
        # the two translation classes visit the same positions in opposite
        # order, so given identical draws the clips are time-reversals
        up = data.render_clean(0, 8, np.random.default_rng(5))
        down = data.render_clean(1, 8, np.random.default_rng(5))
        np.testing.assert_allclose(up, down[::-1], atol=1e-12)
        assert np.abs(up - down).max() > 1e-3  # but frames differ per step

    def test_hflip_safety_flags(self):
        assert data.hflip_safe(0) and data.hflip_safe(1)
        assert not data.hflip_safe(3)  # bar rotation has a handedness

    def test_render_clean_range_and_shape(self):
        for label in range(data.MAX_CLASSES):
            out = data.render_clean(label, 6, np.random.default_rng(label))
            assert out.shape == (6, data.RESOLUTION, data.RESOLUTION)
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert out.max() > 0.1  # something visible in every class


class TestModalities:
    def test_channel_counts(self):
        assert data.MODALITIES["ir"][0] == 1
        assert data.MODALITIES["rgb"][0] == 3

    def test_modality_for_channels(self):
        for modality, (channels, _, _) in data.MODALITIES.items():
            assert data.modality_for(channels) == modality
        with pytest.raises(ValueError, match="2 channels"):
            data.modality_for(2)

    def test_render_modality_shapes(self):
        clean = data.render_clean(2, 5, np.random.default_rng(0))
        ir = data.render_modality(clean, "ir", np.random.default_rng(1))
        rgb = data.render_modality(clean, "rgb", np.random.default_rng(1))
        assert ir.shape == (5, 1, data.RESOLUTION, data.RESOLUTION)
        assert rgb.shape == (5, 3, data.RESOLUTION, data.RESOLUTION)
        assert ir.dtype == np.float32 and rgb.dtype == np.float32
        assert 0.0 <= ir.min() and ir.max() <= 1.0
        assert 0.0 <= rgb.min() and rgb.max() <= 1.0

    def test_ir_cleaner_than_rgb(self):
        # signal-to-noise: variance explained by the scaled clean signal
        # against the residual, averaged over clips of every class
        rng = np.random.default_rng(7)
        snr = {"ir": [], "rgb": []}
        for label in range(5):
            for rep in range(20):
                clean = data.render_clean(label, 8, rng)
                for modality in ("ir", "rgb"):
                    channels, gain, _ = data.MODALITIES[modality]
                    frames = data.render_modality(clean, modality, rng)
                    signal = gain * np.broadcast_to(
                        clean[:, None], frames.shape)
                    if modality == "rgb":
                        signal = signal * data._RGB_TINT[None, :, None, None]
                    resid = frames - signal
                    snr[modality].append(signal.var() / resid.var())
        assert np.mean(snr["ir"]) > 4 * np.mean(snr["rgb"])


class TestGenerate:
    def test_deterministic_byte_identical(self, tmp_path):
        spec = data.DatasetSpec(num_classes=3, clips_per_class=2,
                                min_frames=4, max_frames=6, seed=11)
        recs_a = data.generate(spec, tmp_path / "a")
        recs_b = data.generate(spec, tmp_path / "b")
        assert recs_a == recs_b
        for rec in recs_a:
            a = (tmp_path / "a" / rec["path"]).read_bytes()
            b = (tmp_path / "b" / rec["path"]).read_bytes()
            assert a == b

    def test_manifest_structure(self, tmp_path):
        spec = data.DatasetSpec(num_classes=3, clips_per_class=4,
                                min_frames=4, max_frames=9, seed=0)
        recs = data.generate(spec, tmp_path)
        assert len(recs) == 3 * 4 * 2  # both modalities per clip
        by_id = {}
        for rec in recs:
            by_id.setdefault(rec["id"], []).append(rec)
        assert all(sorted(r["modality"] for r in pair) == ["ir", "rgb"]
                   for pair in by_id.values())
        # both modalities agree on label and frame count
        for pair in by_id.values():
            assert len({r["label"] for r in pair}) == 1
            assert len({r["frames"] for r in pair}) == 1
        labels = [r["label"] for r in recs if r["modality"] == "ir"]
        assert sorted(labels) == sorted([0, 1, 2] * 4)

    def test_files_match_manifest(self, tmp_path):
        spec = data.DatasetSpec(num_classes=2, clips_per_class=2,
                                min_frames=4, max_frames=8, seed=3)
        recs = data.generate(spec, tmp_path)
        for rec in recs:
            clip = data.read_clip(tmp_path / rec["path"])
            channels = data.MODALITIES[rec["modality"]][0]
            assert clip.shape == (rec["frames"], channels,
                                  data.RESOLUTION, data.RESOLUTION)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            data.DatasetSpec(num_classes=1)
        with pytest.raises(ValueError):
            data.DatasetSpec(num_classes=data.MAX_CLASSES + 1)
        with pytest.raises(ValueError):
            data.DatasetSpec(clips_per_class=0)


class TestSplit:
    def _records(self, num_classes=5, clips=20):
        recs = []
        for label in range(num_classes):
            for idx in range(clips):
                cid = f"c{label:02d}_{idx:04d}"
                for modality in ("ir", "rgb"):
                    recs.append({"id": cid, "label": label,
                                 "modality": modality, "frames": 8,
                                 "path": f"{cid}_{modality}.tsmv",
                                 "split": "train"})
        return recs

    def test_eighty_twenty_counts(self):
        recs = self._records(num_classes=5, clips=20)
        train, val = data.split(recs, 0.8, seed=0)
        train_ids = {r["id"] for r in train}
        val_ids = {r["id"] for r in val}
        assert len(train_ids) == 5 * 16 and len(val_ids) == 5 * 4
        # stratified: 16/4 clip ids per class
        for label in range(5):
            pref = f"c{label:02d}_"
            assert sum(i.startswith(pref) for i in train_ids) == 16
            assert sum(i.startswith(pref) for i in val_ids) == 4

    def test_partition_and_modality_cohesion(self):
        recs = self._records()
        train, val = data.split(recs, 0.8, seed=1)
        assert len(train) + len(val) == len(recs)
        assert not ({r["id"] for r in train} & {r["id"] for r in val})
        assert all(r["split"] == "train" for r in train)
        assert all(r["split"] == "val" for r in val)
        # both modalities of a clip fall on the same side
        assert len(train) % 2 == 0 and len(val) % 2 == 0

    def test_deterministic_and_seed_sensitive(self):
        recs = self._records()
        a = data.split(recs, 0.8, seed=4)
        b = data.split(recs, 0.8, seed=4)
        c = data.split(recs, 0.8, seed=5)
        assert a == b
        assert {r["id"] for r in a[1]} != {r["id"] for r in c[1]}

    def test_ratio_validation(self):
        recs = self._records(num_classes=2, clips=5)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                data.split(recs, bad, seed=0)


class TestSampleSegments:
    def test_exact_frame_match(self):
        assert data.sample_segments(8, 8, "eval") == list(range(8))

    def test_longer_clip_takes_centers(self):
        assert data.sample_segments(16, 8, "eval") == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_short_clip_repeats_frames(self):
        assert data.sample_segments(4, 8, "eval") == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_eval_indices_in_range_and_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = int(rng.integers(1, 40))
            t = int(rng.integers(1, 12))
            idx = data.sample_segments(f, t, "eval")
            assert len(idx) == t
            assert all(0 <= i < f for i in idx)
            assert idx == sorted(idx)

    def test_train_indices_stay_in_segments(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = int(rng.integers(1, 40))
            t = int(rng.integers(1, 12))
            idx = data.sample_segments(f, t, "train", rng)
            for i, v in enumerate(idx):
                lo, hi = i * f // t, (i + 1) * f // t
                if hi > lo:
                    assert lo <= v < hi
                else:
                    assert v == int((i + 0.5) * f // t)

    def test_train_mode_needs_rng(self):
        with pytest.raises(ValueError):
            data.sample_segments(8, 4, "train")
        with pytest.raises(ValueError):
            data.sample_segments(8, 4, "center")
        with pytest.raises(ValueError):
            data.sample_segments(0, 4, "eval")


class TestClipFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.random(size=(5, 3, 8, 8)).astype(np.float32)
        path = tmp_path / "clip.tsmv"
        data.write_clip(path, frames)
        np.testing.assert_array_equal(data.read_clip(path), frames)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.tsmv"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            data.read_clip(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "clip.tsmv"
        data.write_clip(path, np.zeros((2, 1, 4, 4), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            data.read_clip(path)

    def test_longer_than_header(self, tmp_path):
        path = tmp_path / "clip.tsmv"
        data.write_clip(path, np.zeros((2, 1, 4, 4), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00" * 22)  # appended junk
        with pytest.raises(ValueError, match=r"clip.tsmv: 22 extra bytes "
                           r"past the end of a 2x1x4x4 clip$"):
            data.read_clip(path)
        # a corrupted extent that claims one frame of the two
        path.write_bytes(data.CLIP_MAGIC + struct.pack("<4I", 1, 1, 4, 4)
                         + blob[len(data.CLIP_MAGIC) + 16:])
        with pytest.raises(ValueError, match="64 extra bytes"):
            data.read_clip(path)

    @pytest.mark.parametrize("cut", [0, 3, 5, 12, 20])
    def test_cut_inside_header(self, tmp_path, cut):
        path = tmp_path / "clip.tsmv"
        data.write_clip(path, np.zeros((2, 1, 4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="truncated clip header"):
            data.read_clip(path)

    def test_huge_extents(self, tmp_path):
        # extents near 2**31 claim far more bytes than the file holds
        path = tmp_path / "clip.tsmv"
        path.write_bytes(data.CLIP_MAGIC + struct.pack("<4I", *[2**31 - 1] * 4)
                         + b"\x00" * 64)
        with pytest.raises(ValueError, match="truncated clip file"):
            data.read_clip(path)


def test_manifest_round_trip(tmp_path):
    recs = [{"id": "c00_0000", "label": 0, "modality": "ir", "frames": 8,
             "path": "c00_0000_ir.tsmv", "split": "train"},
            {"id": "c01_0001", "label": 1, "modality": "rgb", "frames": 12,
             "path": "c01_0001_rgb.tsmv", "split": "val"}]
    path = tmp_path / "manifest.jsonl"
    data.save_manifest(recs, path)
    assert data.load_manifest(path) == recs


@pytest.mark.parametrize("change, message", [
    ({"label": "0"}, '"label" must be an integer >= 0'),
    ({"label": -1}, '"label" must be an integer >= 0'),
    ({"label": 1.0}, '"label" must be an integer >= 0'),
    ({"label": True}, '"label" must be an integer >= 0'),
    ({"frames": 0}, '"frames" must be an integer >= 1'),
    ({"frames": "8"}, '"frames" must be an integer >= 1'),
    ({"id": 7}, '"id" must be a string'),
    ({"path": None}, '"path" must be a string'),
    ({"split": ["train"]}, '"split" must be a string'),
    ({"modality": 1}, '"modality" must be a string'),
    ({"modality": "depth"}, '"modality" must be one of ir, rgb'),
])
def test_manifest_value_types(tmp_path, change, message):
    good = {"id": "c00_0000", "label": 0, "modality": "ir", "frames": 8,
            "path": "c00_0000_ir.tsmv", "split": "train"}
    path = tmp_path / "manifest.jsonl"
    data.save_manifest([good, {**good, **change}], path)
    with pytest.raises(ValueError) as err:
        data.load_manifest(path)
    assert str(err.value) == f"{path}:2: {message}"


def _row(vid, modality, label=0):
    return {"id": vid, "label": label, "modality": modality, "frames": 8,
            "path": f"{vid}_{modality}.tsmv", "split": "train"}


def test_manifest_id_in_both_modalities(tmp_path):
    recs = [_row("a", "ir", 2), _row("b", "ir"), _row("a", "rgb", 2)]
    path = tmp_path / "manifest.jsonl"
    data.save_manifest(recs, path)
    assert data.load_manifest(path) == recs


@pytest.mark.parametrize("rows, message", [
    ([_row("a", "ir"), _row("b", "ir"), _row("a", "ir")],
     "3: duplicate ir row of id 'a', first on line 1"),
    ([_row("a", "rgb"), _row("a", "ir"), _row("a", "rgb")],
     "3: duplicate rgb row of id 'a', first on line 1"),
    ([_row("b", "ir"), _row("a", "ir", 1), _row("a", "rgb", 2)],
     "3: id 'a' has label 2, but label 1 on line 2"),
])
def test_manifest_rows_of_one_id(tmp_path, rows, message):
    # a repeated clip would train twice and be predicted twice; a second
    # label would silently replace the first
    path = tmp_path / "manifest.jsonl"
    data.save_manifest(rows, path)
    with pytest.raises(ValueError) as err:
        data.load_manifest(path)
    assert str(err.value) == f"{path}:{message}"
