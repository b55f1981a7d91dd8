"""The checksummed JSONL journal: prefix-safe reads, torn-tail recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JobStateError
from repro.jobs.journal import (
    JobJournal,
    decode_line,
    encode_line,
    read_journal,
    record_checksum,
)

META = {"type": "job-meta", "version": 1, "fingerprint": "abc", "jobs": [["a", 3]]}
DONE = {"type": "layer-done", "name": "a", "bits": 3, "shard": "shards/a.npz",
        "shard_sha256": "0" * 64, "size": 10, "record": {"name": "a"}}


class TestLineCodec:
    def test_round_trip(self):
        assert decode_line(encode_line(META).rstrip(b"\n")) == META

    def test_unknown_type_rejected_at_encode(self):
        with pytest.raises(JobStateError):
            encode_line({"type": "mystery"})

    def test_corrupt_line_decodes_to_none(self):
        line = encode_line(META).rstrip(b"\n")
        assert decode_line(line[:-5]) is None  # truncated json
        assert decode_line(b"not json at all") is None
        assert decode_line(b'{"r": 3, "sha256": "x"}') is None
        # Nesting past the parser's stack once raised RecursionError.
        assert decode_line(b"[" * 100000) is None
        assert decode_line(b'{"r": ' * 100000) is None
        assert decode_line(b"1" * 5000) is None  # past int()'s digit limit

    def test_tampered_payload_fails_checksum(self):
        line = encode_line(DONE)
        tampered = line.replace(b'"bits":3', b'"bits":4')
        assert tampered != line
        assert decode_line(tampered.rstrip(b"\n")) is None

    @given(st.binary(max_size=512) | st.builds(
        lambda prefix, tail: prefix + tail,
        st.sampled_from([b"", b"[", b"{", b'{"r": {"type": "job-meta"}, "sha256": ']),
        st.binary(max_size=256),
    ))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_give_a_record_or_none(self, line):
        decoded = decode_line(line)
        assert decoded is None or isinstance(decoded, dict)

    @pytest.mark.parametrize(
        "line", [b"[" * 100000, b"\xff\xfe", b"1" * 5000],
        ids=["deep-nesting", "bad-utf8", "huge-integer"],
    )
    def test_corrupt_tail_line_marks_journal_not_intact(self, tmp_path, line):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(encode_line(META) + line + b"\n")
        result = read_journal(path)
        assert result.records == [META]
        assert not result.intact
        assert result.valid_bytes == len(encode_line(META))

    def test_checksum_is_canonical(self):
        # Key order must not matter: the checksum covers sorted-key JSON.
        shuffled = dict(reversed(list(META.items())))
        assert record_checksum(shuffled) == record_checksum(META)


class TestReadJournal:
    def test_missing_file_is_empty_and_intact(self, tmp_path):
        result = read_journal(tmp_path / "journal.jsonl")
        assert result.records == [] and result.intact and result.valid_bytes == 0

    def test_reads_all_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(encode_line(META) + encode_line(DONE))
        result = read_journal(path)
        assert [r["type"] for r in result.records] == ["job-meta", "layer-done"]
        assert result.intact
        assert result.valid_bytes == path.stat().st_size
        assert result.meta == META
        assert result.of_type("layer-done") == [DONE]

    def test_torn_tail_keeps_valid_prefix(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        full = encode_line(META) + encode_line(DONE)
        path.write_bytes(full + encode_line(DONE)[:17])  # crash mid-append
        result = read_journal(path)
        assert [r["type"] for r in result.records] == ["job-meta", "layer-done"]
        assert not result.intact
        assert result.valid_bytes == len(full)

    def test_mid_file_corruption_stops_the_read(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        meta = encode_line(META)
        path.write_bytes(meta + b"garbage\n" + encode_line(DONE))
        result = read_journal(path)
        # Everything after the bad line is untrusted, even if well-formed.
        assert [r["type"] for r in result.records] == ["job-meta"]
        assert not result.intact
        assert result.valid_bytes == len(meta)


class TestJobJournal:
    def test_append_then_read(self, tmp_path):
        journal = JobJournal(tmp_path / "job")
        journal.append(META)
        journal.append(DONE)
        assert [r["type"] for r in journal.read().records] == ["job-meta", "layer-done"]

    def test_recover_truncates_torn_tail(self, tmp_path):
        journal = JobJournal(tmp_path / "job")
        journal.append(META)
        valid = journal.path.stat().st_size
        with open(journal.path, "ab") as handle:
            handle.write(b'{"r": {"type": "layer-done"')  # torn append
        result = journal.recover()
        assert [r["type"] for r in result.records] == ["job-meta"]
        assert journal.path.stat().st_size == valid
        # Appending after recovery produces a well-formed journal again.
        journal.append(DONE)
        assert journal.read().intact

    def test_append_emits_byte_counter(self, tmp_path):
        from repro import obs

        journal = JobJournal(tmp_path / "job")
        with obs.scope() as scoped:
            written = journal.append(META)
        snapshot = scoped.snapshot()
        assert snapshot.counter("job.journal_bytes") == written == journal.path.stat().st_size
