"""Checkpoint round-trip fidelity, corruption detection, pruned-shape rebuild."""

import numpy as np
import pytest

from prunekit import checkpoint as C
from prunekit import data as D
from prunekit import importance as I
from prunekit import model as M
from prunekit import pruning as P
from prunekit import tensor as T
from prunekit.checkpoint import CheckpointError
from prunekit.model import ModelConfig

from conftest import edit_manifest, quick_sgd


def forward_bytes(model, items):
    out = b""
    with T.no_grad():
        for it in items:
            out += M.forward(model, it, capture=None).logits.data.tobytes()
    return out


def test_roundtrip_bit_identical_forward(tmp_path, rng):
    model = M.init(ModelConfig(), seed=0)
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape).astype(np.float32) * 0.1
    train, _ = D.generate_dataset(n=30, seed=0)
    path = tmp_path / "m.ckpt"
    C.save(model, path, meta={"stage": "test"})
    loaded, manifest = C.load(path)
    assert manifest["meta"]["stage"] == "test"
    assert forward_bytes(loaded, train[:5]) == forward_bytes(model, train[:5])
    assert loaded.checksum() == model.checksum()


def test_roundtrip_of_pruned_model_without_original_config(tmp_path):
    model = M.init(ModelConfig(), seed=3)
    train, _ = D.generate_dataset(n=120, seed=1)
    quick_sgd(model, train, steps=60, lr=0.1)
    calib = D.draw_calibration(train, n=4, seed=0)
    groups = I.build_dependency_groups(model)
    I.taylor_group_importance(model, groups, calib)
    P.execute(model, P.plan("widthwise", I.group_report(model, groups), 0.3))

    path = tmp_path / "pruned.ckpt"
    C.save(model, path)
    loaded, manifest = C.load(path)
    assert loaded.layer_shapes() == model.layer_shapes()
    assert forward_bytes(loaded, train[:5]) == forward_bytes(model, train[:5])


def test_save_is_byte_deterministic(tmp_path):
    model = M.init(ModelConfig(), seed=5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    C.save(model, p1)
    C.save(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_payload_fails_checksum(tmp_path):
    model = M.init(ModelConfig(), seed=1)
    path = tmp_path / "m.ckpt"
    C.save(model, path)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as exc:
        C.load(path)
    assert "checksum" in str(exc.value)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOT A CHECKPOINT")
    with pytest.raises(CheckpointError):
        C.load(path)


def test_layerwise_pruned_roundtrip(tmp_path):
    model = M.init(ModelConfig(), seed=2)
    train, _ = D.generate_dataset(n=60, seed=2)
    report = I.block_influence(model, train[:3])
    P.execute(model, P.plan("layerwise", report, 0.2))
    assert model.n_layers == 3
    path = tmp_path / "m.ckpt"
    C.save(model, path)
    loaded, _ = C.load(path)
    assert loaded.n_layers == 3
    assert forward_bytes(loaded, train[:3]) == forward_bytes(model, train[:3])


def drop_entry(tensors):
    tensors[:] = [t for t in tensors if t["name"] != "layers.1.mlp.down"]


def add_entry(tensors):
    tensors.append({**tensors[0], "name": "layers.2.attn.wq"})


def add_non_block_entry(tensors):
    tensors.append({**tensors[0], "name": "head.b"})


@pytest.mark.parametrize("edit, message", [
    (drop_entry, "missing tensor layers.1.mlp.down"),
    (add_entry, "missing tensor layers.2.mlp.up"),
    (add_non_block_entry, "unexpected extra tensors ['head.b']"),
], ids=["missing", "extra", "extra-non-block"])
def test_load_rejects_a_missing_or_extra_tensor(tmp_path, edit, message):
    path = tmp_path / "m.ckpt"
    C.save(M.init(ModelConfig(n_layers=2), seed=0), path)
    edit_manifest(path, lambda manifest: edit(manifest["tensors"]))
    with pytest.raises(CheckpointError) as exc:
        C.load(path)
    assert message in str(exc.value)
