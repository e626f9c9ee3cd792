"""Segment store: layout, frame verification, index refresh, fault model."""

import hashlib
import multiprocessing
import os
import pickle
import struct

import pytest

from repro.store import FORMAT_VERSION, ShardedStore, StoreStats
from repro.store.sharded import FRAME, MAGIC


def _key(i: int) -> str:
    return hashlib.sha256(f"entry-{i}".encode()).hexdigest()


def _frame(key: str, payload: bytes, version: int = FORMAT_VERSION) -> bytes:
    """One raw frame, as a writer appends it."""
    return FRAME.pack(MAGIC, version, key.encode(), len(payload),
                      hashlib.sha256(payload).digest()) + payload


def _segments(root):
    return sorted((root / "segments").glob("*.seg"))


def _write_and_read(root, writer, writers, per):
    """One of several writer processes on ``root``: appends its own
    keys, looks up the others' as it goes, exits 1 on any damage."""
    store = ShardedStore(root)
    for i in range(writer, writers * per, writers):
        store.put(_key(i), i)
        other = (i + 1) % (writers * per)
        value = store.get(_key(other))
        if value is not None and value != other:
            os._exit(1)
    os._exit(1 if store.stats.quarantined or store.stats.skipped else 0)


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = _key(0)
        store.put(key, {"value": [1, 2, 3]})
        assert store.get(key) == {"value": [1, 2, 3]}
        assert store.stats.writes == 1
        assert store.stats.hits == 1

    def test_miss(self, tmp_path):
        store = ShardedStore(tmp_path)
        assert store.get(_key(1)) is None
        assert store.stats.misses == 1

    def test_sharded_layout(self, tmp_path):
        store = ShardedStore(tmp_path)
        for i in range(3):
            store.put(_key(i), i)
        [segment] = _segments(tmp_path)        # one file for every put
        stamp, pid, rand = segment.stem.split("-")
        assert len(stamp) == 20 and int(stamp) > 0
        assert int(pid) == os.getpid()
        assert len(rand) == 8
        assert sorted(p.name for p in tmp_path.iterdir()) == ["segments"]
        path, offset, size = store.locate(_key(2))
        assert path == segment
        assert offset + size == segment.stat().st_size

    def test_overwrite_last_writer_wins(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = _key(3)
        store.put(key, "first")
        store.put(key, "second")
        assert store.get(key) == "second"
        assert len(store) == 1

    def test_contains_len_keys(self, tmp_path):
        store = ShardedStore(tmp_path)
        keys = [_key(i) for i in range(5)]
        for i, key in enumerate(keys):
            store.put(key, i)
        assert len(store) == 5
        assert all(k in store for k in keys)
        assert _key(99) not in store
        assert sorted(store.keys()) == sorted(keys)

    def test_survives_reopen(self, tmp_path):
        ShardedStore(tmp_path).put(_key(4), ("a", 1))
        reopened = ShardedStore(tmp_path)
        assert reopened.get(_key(4)) == ("a", 1)
        assert len(reopened) == 1

    def test_header_layout(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = _key(5)
        store.put(key, "payload")
        path, offset, size = store.locate(key)
        raw = path.read_bytes()[offset:offset + size]
        magic, version, stored_key, length, digest = FRAME.unpack_from(raw)
        payload = raw[FRAME.size:]
        assert magic == MAGIC
        assert version == FORMAT_VERSION
        assert stored_key == key.encode()
        assert length == len(payload)
        assert hashlib.sha256(payload).digest() == digest
        assert pickle.loads(payload) == "payload"

    def test_rejects_keys_that_are_not_hashes(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedStore(tmp_path).put("short", 1)


class TestIntegrity:
    def _stored(self, tmp_path, value="v"):
        store = ShardedStore(tmp_path)
        key = _key(10)
        store.put(key, value)
        path, offset, size = store.locate(key)
        return store, key, path, offset, size

    @staticmethod
    def _patch(path, offset, data):
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(data)

    def _reasons(self, store):
        return [p.name for p in store.corrupt_dir.iterdir()]

    def test_truncated_entry_quarantined(self, tmp_path):
        store, key, path, offset, size = self._stored(tmp_path)
        os.truncate(path, offset + size - 5)
        fresh = ShardedStore(tmp_path)
        assert fresh.get(key) is None
        assert key not in fresh
        assert fresh.stats.quarantined == 1
        assert self._reasons(fresh) == [f"{key}.truncated"]

    def test_bitflip_quarantined_as_digest_mismatch(self, tmp_path):
        store, key, path, offset, size = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[offset + size - 1] ^= 0x40
        path.write_bytes(bytes(raw))
        assert store.get(key) is None
        assert self._reasons(store) == [f"{key}.digest-mismatch"]

    def test_foreign_version_quarantined(self, tmp_path):
        store, key, path, offset, size = self._stored(tmp_path)
        self._patch(path, offset + 4,
                    struct.pack("<H", FORMAT_VERSION + 1))
        assert store.get(key) is None
        assert self._reasons(store) == \
            [f"{key}.version-{FORMAT_VERSION + 1}"]

    def test_garbage_quarantined(self, tmp_path):
        store, key, path, offset, size = self._stored(tmp_path)
        body = FRAME.size - 32
        self._patch(path, offset + body, b"Z" * (size - body))
        assert store.get(key) is None
        assert store.stats.quarantined == 1

    def test_valid_header_bad_pickle_quarantined(self, tmp_path):
        key = _key(11)
        (tmp_path / "segments").mkdir()
        (tmp_path / "segments" / "1-1-0.seg").write_bytes(
            _frame(key, b"\x80\x05not really a pickle"))
        store = ShardedStore(tmp_path)
        assert store.get(key) is None
        assert self._reasons(store) == [f"{key}.unpicklable"]

    def test_quarantine_records_diagnostics(self, tmp_path):
        from repro.diagnostics import reset_diagnostics
        store, key, path, offset, size = self._stored(tmp_path)
        self._patch(path, offset + size - 1, b"!")
        diag = reset_diagnostics()
        store.get(key)
        store.get(key)                        # counted once: now a miss
        assert diag.cache_quarantined == 1
        assert store.stats.quarantined == 1
        assert diag.eventful

    def test_slot_reusable_after_quarantine(self, tmp_path):
        store, key, path, offset, size = self._stored(tmp_path)
        self._patch(path, offset + size - 1, b"!")
        assert store.get(key) is None
        store.put(key, "fresh")
        assert store.get(key) == "fresh"
        assert ShardedStore(tmp_path).get(key) == "fresh"


class TestSegmentFaults:
    """The fault model of the log: torn tails, garbled prefixes, several
    writers on one root."""

    def test_torn_final_frame_quarantines_only_that_key(self, tmp_path):
        store = ShardedStore(tmp_path)
        keys = [_key(i) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, f"value-{i}")
        path, offset, size = store.locate(keys[2])
        # A crash mid-append: the prefix landed, half the payload did not.
        os.truncate(path, offset + (FRAME.size + size) // 2)

        fresh = ShardedStore(tmp_path)
        assert fresh.get(keys[0]) == "value-0"
        assert fresh.get(keys[1]) == "value-1"
        assert fresh.get(keys[2]) is None
        assert fresh.stats.quarantined == 1
        assert [p.name for p in fresh.corrupt_dir.iterdir()] == \
            [f"{keys[2]}.truncated"]
        fresh.put(keys[2], "value-2")
        assert fresh.get(keys[2]) == "value-2"
        assert ShardedStore(tmp_path).get(keys[2]) == "value-2"

    def test_rotted_length_reads_only_the_bytes_present(self, tmp_path):
        store = ShardedStore(tmp_path)
        store.put(_key(0), "kept")
        store.put(_key(1), "rotted")
        path, offset, _ = store.locate(_key(1))
        with open(path, "r+b") as fh:
            fh.seek(offset + FRAME.size - 40)          # the length field
            fh.write(struct.pack("<Q", 2 ** 62))

        fresh = ShardedStore(tmp_path)
        assert fresh.get(_key(0)) == "kept"
        assert fresh.get(_key(1)) is None
        assert [p.name for p in fresh.corrupt_dir.iterdir()] == \
            [f"{_key(1)}.truncated"]

    def test_garbled_prefix_skips_to_next_frame(self, tmp_path):
        from repro.diagnostics import reset_diagnostics
        store = ShardedStore(tmp_path)
        keys = [_key(i) for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, i)
        path, offset, size = store.locate(keys[1])
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(b"\0" * 8)                       # magic and version

        diag = reset_diagnostics()
        fresh = ShardedStore(tmp_path)
        assert fresh.get(keys[0]) == 0
        assert fresh.get(keys[2]) == 2                # later keys served
        assert fresh.get(keys[3]) == 3
        assert fresh.get(keys[1]) is None             # lost: recomputes
        assert fresh.stats.skipped == 1
        assert fresh.stats.quarantined == 0
        assert diag.cache_skipped == 1
        [copy] = fresh.corrupt_dir.iterdir()
        assert copy.name == f"{path.name}.{offset}.skipped"
        assert copy.stat().st_size == size
        fresh.put(keys[1], 1)
        assert ShardedStore(tmp_path).get(keys[1]) == 1

    def test_two_instances_share_one_root(self, tmp_path):
        reader = ShardedStore(tmp_path)
        writer = ShardedStore(tmp_path)
        reader.put(_key(0), "mine")
        assert reader.get(_key(1)) is None            # index built
        writer.put(_key(1), "theirs")
        assert reader.get(_key(1)) == "theirs"        # refreshed on miss
        assert writer.get(_key(0)) == "mine"
        assert len(_segments(tmp_path)) == 2
        assert reader.stats.quarantined == writer.stats.quarantined == 0

    def test_newest_record_wins_across_reopen(self, tmp_path):
        first = ShardedStore(tmp_path)
        first.put(_key(0), "old")
        first.put(_key(0), "new")
        first.put(_key(1), "first segment")
        second = ShardedStore(tmp_path)
        second.put(_key(1), "second segment")
        reopened = ShardedStore(tmp_path)
        assert reopened.get(_key(0)) == "new"
        assert reopened.get(_key(1)) == "second segment"
        assert sorted(reopened.keys()) == sorted([_key(0), _key(1)])

    def test_forked_child_put_lands_in_own_segment(self, tmp_path):
        store = ShardedStore(tmp_path)
        store.put(_key(0), "parent")
        assert store.get(_key(1)) is None             # index built
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=store.put, args=(_key(1), "child"))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0

        assert store.get(_key(1)) == "child"          # after the miss
        parent_seg = store.locate(_key(0))[0]
        child_seg = store.locate(_key(1))[0]
        assert child_seg != parent_seg
        assert child_seg.stem.split("-")[1] == str(child.pid)
        assert parent_seg.stat().st_size == store.locate(_key(0))[2]
        store.put(_key(2), "parent again")            # own segment still
        assert store.locate(_key(2))[0] == parent_seg

    def test_many_writers_lose_nothing(self, tmp_path):
        """More writers than cores, each reading the others' keys while
        it appends: no record is lost and no in-flight frame is taken
        for a torn one."""
        writers, per = 4, 40
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_write_and_read,
                             args=(tmp_path, w, writers, per))
                 for w in range(writers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = ShardedStore(tmp_path)
        assert len(_segments(tmp_path)) == writers
        assert all(store.get(_key(i)) == i for i in range(writers * per))
        assert store.stats.quarantined == store.stats.skipped == 0

    def test_live_writers_partial_frame_is_left_alone(self, tmp_path):
        live_pid = os.getppid()                       # alive, not us
        done = _frame(_key(0), pickle.dumps("done"))
        pending = _frame(_key(1), pickle.dumps("pending"))
        (tmp_path / "segments").mkdir()
        segment = tmp_path / "segments" / f"{1:020d}-{live_pid}-00.seg"
        segment.write_bytes(done + pending[:FRAME.size + 3])

        store = ShardedStore(tmp_path)
        assert store.get(_key(0)) == "done"
        assert store.get(_key(1)) is None             # still being written
        assert store.stats.quarantined == 0
        with open(segment, "ab") as fh:
            fh.write(pending[FRAME.size + 3:])
        assert store.get(_key(1)) == "pending"
        assert store.stats.quarantined == 0


class TestEviction:
    def test_unbounded_by_default(self, tmp_path):
        store = ShardedStore(tmp_path)
        for i in range(50):
            store.put(_key(i), i)
        assert len(store) == 50
        assert all(store.get(_key(i)) == i for i in range(50))


class TestStoreStats:
    def test_describe(self):
        stats = StoreStats(hits=3, misses=1, writes=4, quarantined=1,
                           skipped=5)
        text = stats.describe()
        assert "3 hits" in text
        assert "4 writes" in text
        assert "1 quarantined" in text
        assert "5 garbled spans skipped" in text

    def test_eventful(self):
        assert not StoreStats(hits=9, misses=9, writes=9).eventful
        assert StoreStats(quarantined=1).eventful
        assert StoreStats(skipped=1).eventful
