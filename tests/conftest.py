import os
import struct
import tempfile
import zlib

import pytest

from carnn import store
from carnn.context import FACTOR_CARDINALITIES

ML1M_ENV = "CARNN_ML1M"


def ml1m_path() -> str | None:
    """Path to a Movielens-1M ratings.dat if one is available locally."""
    candidate = os.environ.get(ML1M_ENV) or os.path.join(
        os.path.dirname(__file__), "..", "data", "ml-1m", "ratings.dat"
    )
    return candidate if os.path.exists(candidate) else None


ml1m_required = pytest.mark.skipif(
    ml1m_path() is None,
    reason=f"Movielens-1M ratings.dat not present; set {ML1M_ENV} or add data/ml-1m/ratings.dat",
)


def reseal(path: str) -> None:
    """Rewrite the CRC-32 trailer of a cache or model file over every byte
    before it, so a file edited in place fails the structural check the edit
    aims at, not the checksum."""
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[:-4]))
    with open(path, "wb") as fh:
        fh.write(blob)


def patch_cache(path: str, field: str, value: int) -> None:
    """Overwrite one value of the first user in a cache that
    ``store.write_cache`` wrote, and reseal it: its ``n_train``, or the first
    entry of its ``items``, ``timestamps`` (i64) or ``trans_bins`` (u32)."""
    seqs = store.read_cache(path).sequences
    n_users, n_events = seqs.n_users, len(seqs.items)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    # the n_train column, then the item, timestamp and bin columns, 16 bytes
    # an event, then the 4-byte trailer end the file
    items = len(blob) - 4 - 16 * n_events
    offset = {"n_train": items - 4 * n_users, "items": items,
              "timestamps": items + 4 * n_events, "trans_bins": items + 12 * n_events}[field]
    struct.pack_into("<q" if field == "timestamps" else "<I", blob, offset, value)
    with open(path, "wb") as fh:
        fh.write(blob)
    reseal(path)


def user_lengths_offset(path: str) -> int:
    """Where the user id length column starts, in a cache that
    ``store.write_cache`` wrote: after the magic, the version, the scheme
    and the two vocabulary sizes."""
    scheme = store.read_cache(path).sequences.scheme
    return 4 + 4 + 16 + len(scheme.factors) + 4 + 4 * len(scheme.holiday_dates) + 8


def corrupt_first_user_id(path: str) -> None:
    """Overwrite the first byte of the first stored user id, in a cache that
    ``store.write_cache`` wrote, with 0xff, a byte no UTF-8 text holds, and
    reseal it."""
    offset = user_lengths_offset(path) + 2 * store.read_cache(path).sequences.n_users
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[offset] = 0xFF
    with open(path, "wb") as fh:
        fh.write(blob)
    reseal(path)


def version_1_cache(split) -> bytes:
    """``split`` in the per-user layout of cache format 1: the header, then
    each id after its ``<H`` byte length, then each user's length and
    ``n_train`` followed by its four event arrays, and no checksum."""
    seqs, scheme = split.sequences, split.sequences.scheme
    holidays = sorted(day.toordinal() for day in scheme.holiday_dates)
    parts = [store.MAGIC,
             struct.pack("<IqII", 1, scheme.timezone_offset_seconds,
                         scheme.max_interval_days, len(scheme.factors)),
             bytes(list(FACTOR_CARDINALITIES).index(f) for f in scheme.factors),
             struct.pack(f"<I{len(holidays)}i", len(holidays), *holidays),
             struct.pack("<II", seqs.n_users, seqs.n_items)]
    for name in seqs.user_ids() + seqs.item_ids():
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)) + raw)
    for seq, n_train in zip(seqs.sequences, split.n_train):
        parts.append(struct.pack("<II", len(seq), n_train))
        parts += [seq.items.astype("<u4").tobytes(), seq.timestamps.astype("<i8").tobytes(),
                  seq.input_ctxs.astype("<u4").tobytes(), seq.trans_bins.astype("<u4").tobytes()]
    return b"".join(parts)


def version_2_cache(split) -> bytes:
    """``split`` in the columnar layout of cache format 2: today's frame with
    a ``<u4`` input-context column between the timestamps and the gap bins."""
    seqs, scheme = split.sequences, split.sequences.scheme
    holidays = sorted(day.toordinal() for day in scheme.holiday_dates)
    parts = [struct.pack("<qII", scheme.timezone_offset_seconds, scheme.max_interval_days,
                         len(scheme.factors)),
             bytes(list(FACTOR_CARDINALITIES).index(f) for f in scheme.factors),
             struct.pack(f"<I{len(holidays)}i", len(holidays), *holidays),
             struct.pack("<II", seqs.n_users, seqs.n_items),
             *store._vocab_parts(seqs.user_ids()), *store._vocab_parts(seqs.item_ids()),
             seqs.lengths.astype("<u4"), split.n_train.astype("<u4"),
             seqs.items.astype("<u4"), seqs.timestamps.astype("<i8"),
             seqs.input_ctxs.astype("<u4"), seqs.trans_bins.astype("<u4")]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.bin")
        store.write_sealed(path, store.MAGIC, 2, parts, "cache")
        with open(path, "rb") as fh:
            return fh.read()


def version_1_model(params) -> bytes:
    """``params`` in model file format 1: the ``<4sIIIIIBB`` header (magic,
    version 1, d, item count, bank sizes, context switches), then the R, M and
    W banks as f64, and no checksum."""
    cfg = params.config
    header = struct.pack("<4sIIIIIBB", b"CARN", 1, cfg.d, cfg.n_items, len(params.M_bank),
                         len(params.W_bank), cfg.use_input_contexts,
                         cfg.use_transition_contexts)
    return header + b"".join(a.astype("<f8").tobytes()
                             for a in (params.R, params.M_bank, params.W_bank))


# One summary line per acceptance criterion at the end of the run.
_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "setup" and report.skipped:
        _acceptance_outcomes[name] = "SKIP"
    elif report.when == "call":
        _acceptance_outcomes[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _acceptance_outcomes.items():
        terminalreporter.write_line(f"[{outcome}] {name}")
