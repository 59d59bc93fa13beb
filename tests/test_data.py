"""IDX ingestion and synthetic dataset tests."""

import struct
import tracemalloc

import numpy as np
import pytest

from minipod import data
from minipod.data import (
    Dataset,
    IdxFormatError,
    as_float32,
    class_templates,
    gen_synthetic,
    load_idx,
    write_idx,
)
from minipod.rng import stream


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 5, 4, 1), dtype=np.uint8)
    labels = np.array([3, 1], dtype=np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    write_idx(images, labels, ip, lp)
    return images, labels, ip, lp


def test_load_idx_roundtrip(idx_pair):
    images, labels, ip, lp = idx_pair
    ds = load_idx(ip, lp)
    # The file's pixels, held as they are read: a read-only u8 view.
    assert ds.images.shape == (2, 5, 4, 1)
    assert ds.images.dtype == np.uint8 and not ds.images.flags.writeable
    assert ds.images.tobytes() == images.tobytes()
    np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))
    # The values they read as are the float32 quotients p / 255.
    values = as_float32(ds.images)
    assert values.dtype == np.float32
    assert values.tobytes() == (images.astype(np.float32) / np.float32(255.0)).tobytes()
    # byte-level inverse: rewriting what was loaded, or the pixels its values
    # round back to, reproduces the files
    out_i, out_l = ip.parent / "i2.idx", ip.parent / "l2.idx"
    for pixels in (ds.images, np.rint(values * np.float32(255.0))):
        write_idx(pixels, ds.labels, out_i, out_l)
        assert out_i.read_bytes() == ip.read_bytes()
        assert out_l.read_bytes() == lp.read_bytes()


@pytest.mark.parametrize("pixels,labels,message", [
    (0.0, [300, 1], "label 300 "),
    (0.0, [-1, 1], "label -1 "),
    (0.0, [1.5, 1], "label 1.5 "),
    (300.7, [0, 1], "pixel 300.7 "),
    (256.0, [0, 1], "pixel 256.0 "),
    (-1.0, [0, 1], "pixel -1.0 "),
    (3.5, [0, 1], "pixel 3.5 "),
    (np.nan, [0, 1], "pixel nan "),
])
def test_write_idx_rejects_values_a_byte_cannot_hold(tmp_path, pixels, labels, message):
    # A uint8 cast would wrap 300 to 44 and truncate 3.5 to 3.
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    with pytest.raises(ValueError, match=f"{message}is not a whole number in 0..255"):
        write_idx(np.full((2, 2, 2, 1), pixels), np.array(labels), ip, lp)
    assert not ip.exists() and not lp.exists()


def test_write_idx_rejects_a_label_count_unlike_the_image_count(tmp_path):
    # load_idx would reject the pair only when it is read back.
    with pytest.raises(ValueError, match=r"2 images but labels of shape \(3,\)"):
        write_idx(np.zeros((2, 2, 2, 1)), np.array([0, 1, 2]),
                  tmp_path / "i.idx", tmp_path / "l.idx")


def test_write_idx_takes_whole_floats_from_quantized_images(tmp_path):
    ds = gen_synthetic(3, 4, 5, 4, 1, seed=2)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    write_idx(np.rint(ds.images * 255.0), ds.labels, ip, lp)
    back = load_idx(ip, lp)
    pixels = np.rint(ds.images * 255.0)
    assert back.images.tobytes() == pixels.astype(np.uint8).tobytes()
    assert as_float32(back.images).tobytes() == (
        pixels.astype(np.float32) / np.float32(255.0)).tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_load_idx_bad_image_magic(idx_pair):
    _, _, ip, lp = idx_pair
    raw = bytearray(ip.read_bytes())
    raw[:4] = struct.pack(">I", 0x00000999)
    ip.write_bytes(bytes(raw))
    with pytest.raises(IdxFormatError, match="0x00000999"):
        load_idx(ip, lp)


def test_load_idx_bad_label_magic(idx_pair):
    _, _, ip, lp = idx_pair
    raw = bytearray(lp.read_bytes())
    raw[:4] = struct.pack(">I", 0x00000803)
    lp.write_bytes(bytes(raw))
    with pytest.raises(IdxFormatError, match="label magic"):
        load_idx(ip, lp)


def test_load_idx_truncated(idx_pair):
    _, _, ip, lp = idx_pair
    ip.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx(ip, lp)


def test_load_idx_checks_header_sizes_before_reading(tmp_path):
    # 2^31 images of 16x16 in a 272-byte file: rejected from the file size,
    # without a 512 GiB read.
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    ip.write_bytes(struct.pack(">IIII", 0x00000803, 2**31, 16, 16) + bytes(256))
    lp.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
    with pytest.raises(IdxFormatError, match=r"\(256 of 549755813888 bytes\)"):
        load_idx(ip, lp)
    for rows, cols in ((0, 16), (16, 0)):
        ip.write_bytes(struct.pack(">IIII", 0x00000803, 1, rows, cols))
        with pytest.raises(IdxFormatError, match=f"images of {rows}x{cols} pixels"):
            load_idx(ip, lp)


def test_load_idx_count_mismatch(idx_pair, tmp_path):
    images, _, ip, _ = idx_pair
    lp3 = tmp_path / "three.idx"
    with open(lp3, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, 3))
        f.write(bytes([0, 1, 2]))
    with pytest.raises(IdxFormatError, match="count mismatch"):
        load_idx(ip, lp3)


def test_gen_synthetic_deterministic():
    a = gen_synthetic(10, 64, 8, 8, 1, seed=5)
    b = gen_synthetic(10, 64, 8, 8, 1, seed=5)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    c = gen_synthetic(10, 64, 8, 8, 1, seed=6)
    assert a.images.tobytes() != c.images.tobytes()


def one_shot_synthetic(num_classes, n, height, width, channels, seed, noise_stream=0):
    """The generator as a single float64 draw of all n rows, worked in place."""
    templates = class_templates(num_classes, height, width, channels, seed)
    labels = np.arange(n, dtype=np.int64) % num_classes
    pixels = stream(seed, "noise", noise_stream).standard_normal(
        (n, height, width, channels))
    pixels *= 0.1
    pixels += templates[labels]
    np.clip(pixels, 0.0, 1.0, out=pixels)
    return pixels.astype(np.float32), labels


def block_rows(height, width, channels):
    return data.NOISE_BLOCK_BYTES // (8 * height * width * channels)


@pytest.mark.parametrize("shape, blocks, extra", [
    ((16, 16, 1), 0, 100),  # below one block
    ((16, 16, 1), 1, 0),  # exactly one block
    ((16, 16, 1), 3, 17),  # several blocks and a remainder
    ((8, 8, 3), 2, 5),
])
def test_gen_synthetic_blocks_match_one_draw_bitwise(shape, blocks, extra):
    n = blocks * block_rows(*shape) + extra
    ds = gen_synthetic(7, n, *shape, seed=4, noise_stream=1)
    images, labels = one_shot_synthetic(7, n, *shape, seed=4, noise_stream=1)
    assert ds.images.dtype == np.float32 and ds.images.shape == (n, *shape)
    assert ds.images.tobytes() == images.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


def test_gen_synthetic_holds_the_set_plus_one_block():
    n = 32 * block_rows(16, 16, 1)
    tracemalloc.start()
    try:
        ds = gen_synthetic(10, n, 16, 16, 1, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = ds.images.nbytes + ds.labels.nbytes
    assert peak < 1.25 * out, (peak, out)


def test_gen_synthetic_single_class():
    ds = gen_synthetic(1, 16, 4, 4, 1, seed=0)
    assert (ds.labels == 0).all()


def test_gen_synthetic_range_and_shapes():
    ds = gen_synthetic(4, 32, 6, 5, 3, seed=1)
    assert ds.images.shape == (32, 6, 5, 3)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert sorted(set(ds.labels.tolist())) == [0, 1, 2, 3]


def test_noise_streams_share_templates():
    train = gen_synthetic(4, 64, 8, 8, 1, seed=9, noise_stream=0)
    evalset = gen_synthetic(4, 64, 8, 8, 1, seed=9, noise_stream=1)
    assert train.images.tobytes() != evalset.images.tobytes()
    # same class templates underneath: per-class means nearly coincide
    for k in range(4):
        m_train = train.images[train.labels == k].mean(axis=0)
        m_eval = evalset.images[evalset.labels == k].mean(axis=0)
        assert float(np.abs(m_train - m_eval).mean()) < 0.05


def test_nearest_template_classifier_oracle():
    seed = 11
    templates = class_templates(10, 16, 16, 1, seed)
    fresh = gen_synthetic(10, 2000, 16, 16, 1, seed, noise_stream=3)
    flat_t = templates.reshape(10, -1)
    flat_x = fresh.images.reshape(len(fresh), -1)
    d2 = ((flat_x[:, None, :] - flat_t[None, :, :]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    acc = float((pred == fresh.labels).mean())
    assert acc >= 0.99


def test_dataset_validation():
    with pytest.raises(ValueError, match="labels"):
        Dataset(np.zeros((2, 2, 2, 1), np.float32), np.zeros(3, np.int64), 2)
    with pytest.raises(ValueError, match="lie in"):
        Dataset(np.zeros((2, 2, 2, 1), np.float32), np.array([0, 5]), 2)
