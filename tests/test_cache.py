"""Persistent artifact cache: round-trips, key invalidation, corruption.

The cache must be invisible except for speed: loading an entry has to
reproduce the synthesized trace and fused features exactly, any change to
the identity (scale, seed, spec params, code versions) must miss, and a
corrupted entry must be dropped and regenerated rather than crash or —
worse — serve garbage.
"""

import numpy as np
import pytest

from repro import cache
from repro.workloads import get_workload

SCALE = 0.02


@pytest.fixture
def cache_tmp(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    return tmp_path


def fresh_workload(name="stream"):
    """A Workload instance with empty in-memory caches (same spec/synth)."""
    w = get_workload(name)
    return type(w)(w.spec, w._synth)


def test_trace_round_trip_across_instances(cache_tmp):
    first = fresh_workload().trace(SCALE, seed=3)
    again = fresh_workload().trace(SCALE, seed=3)
    np.testing.assert_array_equal(first.data, again.data)
    # the second instance was served from disk, not re-synthesized
    hits, _ = cache.cache_stats()
    assert hits >= 1


def test_features_round_trip_across_instances(cache_tmp):
    first = fresh_workload().features(SCALE, seed=3)
    again = fresh_workload().features(SCALE, seed=3)
    for name in ("n_accesses", "footprint_pages", "anon_ratio", "load_ratio",
                 "fragment_ratio", "seq_access_ratio", "max_seq_run",
                 "hot_data_ratio", "interleave_ratio", "reuse_intensity"):
        assert getattr(first, name) == getattr(again, name), name
        assert type(getattr(first, name)) is type(getattr(again, name)), name
    np.testing.assert_array_equal(first.mrc.histogram, again.mrc.histogram)
    assert first.mrc.cold_misses == again.mrc.cold_misses
    assert first.mrc.n_accesses == again.mrc.n_accesses
    # MRC answers must match at every size, not just store the same arrays
    for c in (0, 1, 7, 10_000):
        assert first.mrc.misses(c) == again.mrc.misses(c)


def test_scale_seed_and_spec_change_the_key():
    spec = get_workload("stream").spec
    base = cache.features_key(spec, 0.1, 1)
    assert cache.features_key(spec, 0.2, 1) != base
    assert cache.features_key(spec, 0.1, 2) != base
    other = get_workload("kmeans").spec
    assert cache.features_key(other, 0.1, 1) != base


def test_version_bump_invalidates_features(cache_tmp, monkeypatch):
    w = fresh_workload()
    w.features(SCALE, seed=1)
    h0, m0 = cache.cache_stats()
    monkeypatch.setattr(cache, "KERNEL_VERSION", cache.KERNEL_VERSION + 1)
    fresh_workload().features(SCALE, seed=1)
    _, m1 = cache.cache_stats()
    assert m1 > m0  # new kernel version never sees the old entry


def test_corrupted_entry_is_dropped_and_regenerated(cache_tmp):
    expect = fresh_workload().trace(SCALE, seed=5)
    entries = sorted((cache_tmp / "v1").glob("trace-*.npz"))
    assert entries
    for path in entries:
        path.write_bytes(b"this is not an npz archive")
    again = fresh_workload().trace(SCALE, seed=5)
    np.testing.assert_array_equal(expect.data, again.data)
    # the corrupt files were unlinked and rewritten with valid payloads
    for path in sorted((cache_tmp / "v1").glob("trace-*.npz")):
        with np.load(path, allow_pickle=False) as npz:
            assert "trace" in npz


def _truncate(path, _monkeypatch):
    path.write_bytes(path.read_bytes()[:64])


def _drop_field(path, _monkeypatch):
    with open(path, "wb") as fh:
        np.savez(fh, other=np.zeros(4))


def _drift_dtype(path, _monkeypatch):
    with open(path, "wb") as fh:
        np.savez(fh, trace=np.zeros(4, dtype=np.float32))


def _break_loader(_path, monkeypatch):
    def boom(*_args, **_kwargs):
        raise RuntimeError("loader bug")
    monkeypatch.setattr(cache.np, "load", boom)


@pytest.mark.parametrize("damage, cause", [
    (_truncate, "BadZipFile"),
    (_drop_field, "KeyError"),
    (_drift_dtype, "ValueError"),
    (_break_loader, None),  # not corruption: must propagate, entry kept
])
def test_bad_entry_is_a_reported_miss(cache_tmp, monkeypatch, capsys, damage, cause):
    expect = fresh_workload().trace(SCALE, seed=13)
    (path,) = (cache_tmp / "v1").glob("trace-*.npz")
    damage(path, monkeypatch)
    capsys.readouterr()
    h0, m0 = cache.cache_stats()
    if cause is None:
        with pytest.raises(RuntimeError, match="loader bug"):
            fresh_workload().trace(SCALE, seed=13)
        assert path.exists()
        assert cache.cache_stats() == (h0, m0)
        return
    again = fresh_workload().trace(SCALE, seed=13)
    np.testing.assert_array_equal(expect.data, again.data)
    assert cache.cache_stats() == (h0, m0 + 1)  # a miss, never a hit
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "trace" in err[0] and cause in err[0], err
    # regenerated in place with a valid payload
    with np.load(path, allow_pickle=False) as npz:
        assert npz["trace"].dtype == expect.data.dtype


def test_disabled_cache_never_touches_disk(cache_tmp, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert not cache.cache_enabled()
    fresh_workload().trace(SCALE, seed=9)
    assert not any(cache_tmp.iterdir())


def test_info_and_clear(cache_tmp):
    fresh_workload().features(SCALE, seed=11)
    info = cache.cache_info()
    assert info["dir"] == str(cache_tmp)
    assert info["entries"] == 2  # one trace + one features entry
    assert info["kinds"] == {"trace": 1, "features": 1}
    assert info["bytes"] > 0
    assert cache.clear_cache() == 2
    assert cache.cache_info()["entries"] == 0
