import os
import struct

import pytest

from carnn import store

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


def patch_cache(path: str, field: str, value: int) -> None:
    """Overwrite one value of the first user's record in a cache that
    ``store.write_cache`` wrote: its ``n_train``, or the first entry of its
    ``items``, ``timestamps`` (i64), ``input_ctxs`` or ``trans_bins`` (u32)."""
    seqs = store.read_cache(path).sequences.sequences
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    # the user records end the file: length and n_train, then 4+8+4+4 bytes an event
    start = len(blob) - sum(8 + 20 * len(s) for s in seqs)
    n = len(seqs[0])
    offset = start + {"n_train": 4, "items": 8, "timestamps": 8 + 4 * n,
                      "input_ctxs": 8 + 12 * n, "trans_bins": 8 + 16 * n}[field]
    struct.pack_into("<q" if field == "timestamps" else "<I", blob, offset, value)
    with open(path, "wb") as fh:
        fh.write(blob)


def corrupt_first_user_id(path: str) -> None:
    """Overwrite the first byte of the first stored user id, in a cache that
    ``store.write_cache`` wrote, with 0xff, a byte no UTF-8 text holds."""
    user = store.read_cache(path).sequences.user_ids()[0].encode("utf-8")
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[blob.index(struct.pack("<H", len(user)) + user) + 2] = 0xFF
    with open(path, "wb") as fh:
        fh.write(blob)


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
