import hashlib
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from genmatch.autodiff import Initializer, ParamStore
from genmatch.checkpoint import (
    FORMAT_VERSION,
    CheckpointVersionError,
    CorruptCheckpointError,
    MAGIC,
    param_fingerprints,
    read_checkpoint,
    write_checkpoint,
)


def store_fixture():
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.create("w", rng.standard_normal((3, 4)))
    store.create("b", rng.standard_normal(4))
    store.create("scalar", np.array(1.5))
    return store


def assert_names_file(excinfo, path):
    assert str(excinfo.value).startswith(f"{path}: ")


def record_offset(data: bytes, name: str) -> int:
    """Offset of the named record's dtype code in a checkpoint's bytes."""
    encoded = name.encode("utf-8")
    return data.index(struct.pack("<H", len(encoded)) + encoded) + 2 + len(encoded)


def test_round_trip_is_bit_exact(tmp_path):
    store = store_fixture()
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, store.all())
    state = read_checkpoint(path)
    assert set(state) == {"w", "b", "scalar"}
    for name, p in zip([p.name for p in store.all()], store.all()):
        np.testing.assert_array_equal(state[name], p.data)
        assert state[name].dtype == p.data.dtype


def test_truncated_file_is_corrupt(tmp_path):
    store = store_fixture()
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, store.all())
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 7])
    with pytest.raises(CorruptCheckpointError) as excinfo:
        read_checkpoint(path)
    assert_names_file(excinfo, path)


def test_wrong_magic_is_corrupt(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CorruptCheckpointError) as excinfo:
        read_checkpoint(path)
    assert_names_file(excinfo, path)


def test_unknown_version_rejected(tmp_path):
    store = store_fixture()
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, store.all())
    data = bytearray(path.read_bytes())
    data[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", FORMAT_VERSION + 41)
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointVersionError) as excinfo:
        read_checkpoint(path)
    assert_names_file(excinfo, path)


def test_trailing_garbage_rejected(tmp_path):
    store = store_fixture()
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, store.all())
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CorruptCheckpointError) as excinfo:
        read_checkpoint(path)
    assert_names_file(excinfo, path)


def test_fingerprints_detect_changes():
    store = store_fixture()
    before = param_fingerprints(store.all())
    assert before == param_fingerprints(store.all())
    store["w"].data[0, 0] += 1.0
    after = param_fingerprints(store.all())
    assert before["b"] == after["b"]
    assert before["w"] != after["w"]


def noncontiguous_and_odd_arrays():
    """A 0-d, a zero-size, a non-contiguous and a float32 array."""
    return {"scalar": np.array(-2.75), "empty": np.zeros((0, 3)),
            "transposed": np.arange(12.0).reshape(3, 4).T,
            "single": np.arange(6, dtype=np.float32).reshape(2, 3)}


def test_fingerprints_and_records_hold_the_row_major_bytes(tmp_path):
    params = [SimpleNamespace(name=name, data=arr)
              for name, arr in noncontiguous_and_odd_arrays().items()]
    digests = param_fingerprints(params)
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, params)
    state = read_checkpoint(path)
    for p in params:
        assert digests[p.name] == hashlib.sha256(p.data.tobytes()).hexdigest()
        assert state[p.name].dtype == p.data.dtype and state[p.name].shape == p.data.shape
        assert state[p.name].tobytes() == p.data.tobytes()


def test_writing_and_fingerprinting_copy_no_array(tmp_path):
    store = ParamStore()
    big = store.create("big", np.ones((1024, 1024)))  # 8 MB
    tracemalloc.start()
    try:
        write_checkpoint(tmp_path / "model.ckpt", store.all())
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        param_fingerprints(store.all())
        _, hash_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert write_peak < big.data.nbytes // 8
    assert hash_peak < big.data.nbytes // 8


def test_unknown_dtype_code_names_the_file_and_parameter(tmp_path):
    store = store_fixture()
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, store.all())
    data = bytearray(path.read_bytes())
    data[record_offset(bytes(data), "b")] = 7
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpointError) as excinfo:
        read_checkpoint(path)
    assert_names_file(excinfo, path)
    assert "unknown dtype code 7" in str(excinfo.value) and "'b'" in str(excinfo.value)


def test_duplicate_parameter_names_the_file_and_parameter(tmp_path):
    store = store_fixture()
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, [store["w"], store["b"], store["w"]])
    with pytest.raises(CorruptCheckpointError) as excinfo:
        read_checkpoint(path)
    assert_names_file(excinfo, path)
    assert "duplicate parameter 'w'" in str(excinfo.value)


def test_a_parameter_name_that_is_not_utf8_is_corrupt_naming_the_file(tmp_path):
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, [SimpleNamespace(name="xy", data=np.zeros(2))])
    name = struct.pack("<H", 2)
    path.write_bytes(path.read_bytes().replace(name + b"xy", name + b"\xff\xfe"))
    with pytest.raises(CorruptCheckpointError) as excinfo:
        read_checkpoint(path)
    assert_names_file(excinfo, path)
    assert "a parameter name is not UTF-8" in str(excinfo.value)


def test_file_truncated_inside_a_large_array_is_corrupt(tmp_path):
    store = ParamStore()
    store.create("big", np.random.default_rng(1).standard_normal((1000, 100)))
    store.create("after", np.ones(3))
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, store.all())
    data = path.read_bytes()
    cut = record_offset(data, "big") + 2 + 16 + 8 * 1000 * 100 // 2
    path.write_bytes(data[:cut])
    with pytest.raises(CorruptCheckpointError) as excinfo:
        read_checkpoint(path)
    assert_names_file(excinfo, path)
    assert "truncated in 'big'" in str(excinfo.value)


def test_a_shape_larger_than_the_file_is_corrupt_before_any_allocation(tmp_path):
    store = store_fixture()
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, store.all())
    data = bytearray(path.read_bytes())
    extents = record_offset(bytes(data), "w") + 2
    data[extents:extents + 16] = struct.pack("<2q", 2**20, 2**20)  # 2^40 elements
    path.write_bytes(bytes(data))
    tracemalloc.start()
    try:
        with pytest.raises(CorruptCheckpointError) as excinfo:
            read_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_names_file(excinfo, path)
    assert "truncated in 'w'" in str(excinfo.value)
    assert f"{8 * 2**40} bytes" in str(excinfo.value)
    assert peak < 2**20


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_scalar_and_zero_size_parameters_round_trip_bit_exactly(tmp_path, dtype):
    store = ParamStore(dtype)
    store.create("scalar", np.array(-2.75))
    store.create("empty_rows", np.zeros((0, 3)))
    store.create("empty_cols", np.zeros((4, 0)))
    store.create("after", np.arange(5.0))
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, store.all())
    state = read_checkpoint(path)
    assert list(state) == [p.name for p in store.all()]
    for p in store.all():
        assert state[p.name].shape == p.data.shape
        assert state[p.name].dtype == np.dtype(dtype)
        assert state[p.name].tobytes() == p.data.tobytes()


def test_store_over_a_state_takes_its_arrays_and_draws_nothing(tmp_path):
    store = store_fixture()
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, store.all())
    state = read_checkpoint(path)

    def never():
        raise AssertionError("a store filled from a state drew a value")

    loaded = ParamStore(np.float64, state)
    for p in store.all():
        assert loaded.create(p.name, Initializer(p.data.shape, never)).data is state[p.name]
    loaded.check_state_taken()
