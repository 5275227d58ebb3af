"""Result records: JSON round-trip, checkpoint journals, ASCII rendering.

Benchmarks accumulate :class:`~repro.framework.metrics.RunRecord` objects;
this module persists them and renders the paper-style tables so bench
output can be compared against the published figures line by line.

It also provides the durable side of checkpoint/resume: a
:class:`CheckpointJournal` is an append-only JSONL file holding one
completed sweep cell per line, keyed by :func:`cell_key`.  A sweep that is
killed mid-flight (deadline, OOM-killer, Ctrl-C) re-runs only the missing
cells on the next invocation; a half-written trailing line from the kill
is tolerated and simply re-executed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, Iterable, Mapping, Sequence

from ..algorithms.base import _plain
from .metrics import RunRecord

__all__ = [
    "save_records",
    "load_records",
    "render_table",
    "render_series",
    "cell_key",
    "append_record",
    "CheckpointJournal",
]


def save_records(records: Iterable[RunRecord], path: str | os.PathLike) -> None:
    """Serialize records to a JSON file."""
    payload = [_plain(asdict(r)) for r in records]
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)


def load_records(path: str | os.PathLike) -> list[RunRecord]:
    """Load records previously written by :func:`save_records`."""
    with open(path) as handle:
        payload = json.load(handle)
    return [RunRecord(**item) for item in payload]


def cell_key(
    algorithm: str,
    params: Mapping[str, Any] | None,
    k: int,
    model: str | None = None,
    scope: str | None = None,
) -> str:
    """Stable identity of one ``(algorithm, params, k)`` sweep cell.

    Keys are canonical JSON (sorted, compact) so parameter-dict ordering
    never splits a cell.  ``model``/``scope`` (e.g. the dataset name)
    widen the key for sweeps that mix them in one journal.
    """
    payload: dict[str, Any] = {
        "algorithm": algorithm,
        "params": _plain(dict(params or {})),
        "k": int(k),
    }
    if model is not None:
        payload["model"] = model
    if scope is not None:
        payload["scope"] = scope
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _tail_needs_newline(path: str | os.PathLike) -> bool:
    """True when the file ends mid-line (a torn append from a kill)."""
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() == 0:
                return False
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except OSError:
        return False


def append_record(
    record: RunRecord, path: str | os.PathLike, key: str | None = None
) -> None:
    """Append one record as a line-atomic JSONL entry.

    The whole line (payload plus terminator) goes through one buffered
    write, flushed and fsynced, so a kill can lose at most the line being
    written — never a previously committed one.  If the file's current
    tail is a torn line (the writer before us was killed mid-write), a
    newline is inserted first so the torn fragment cannot swallow this
    record by concatenation.
    """
    line = json.dumps({"key": key, "record": _plain(asdict(record))})
    prefix = "\n" if _tail_needs_newline(path) else ""
    with open(path, "a") as handle:
        handle.write(prefix + line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


class CheckpointJournal:
    """Append-only JSONL journal of completed sweep cells.

    ``key in journal`` / ``journal.get(key)`` answer the resume question;
    :meth:`record` durably appends a finished cell.  Loading skips blank
    or unparsable interior lines (the expected residue of a killed
    writer) rather than failing the whole resume, and **repairs** a torn
    trailing line — a kill mid-write leaves a partial record at the tail,
    which is truncated away (and reported via :mod:`warnings` and
    :attr:`torn_tail_bytes`) so the next append starts from a clean
    line boundary instead of concatenating onto the fragment.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._cells: dict[str, RunRecord] = {}
        #: Bytes of torn trailing data truncated during load (0 = clean).
        self.torn_tail_bytes = 0
        self._load()

    def _parse_line(self, line: str) -> bool:
        """Absorb one journal line into the cell map; False when torn."""
        if not line.strip():
            return True
        try:
            item = json.loads(line)
        except json.JSONDecodeError:
            return False
        payload = item.get("record") if isinstance(item, dict) else None
        if not isinstance(payload, dict):
            return False
        try:
            self._cells[item.get("key")] = RunRecord(**payload)
        except TypeError:
            return False
        return True

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        good_end = 0
        offset = 0
        with open(self.path, "rb") as handle:
            for raw in handle:
                offset += len(raw)
                # A line only commits when it carries its newline AND
                # parses: a parseable-looking tail without a newline may
                # still be a partially flushed write, so it is neither
                # absorbed nor preserved.
                if raw.endswith(b"\n") and self._parse_line(
                    raw.decode("utf-8", errors="replace")
                ):
                    good_end = offset
        if offset > good_end:
            self.torn_tail_bytes = offset - good_end
            import warnings

            warnings.warn(
                f"checkpoint journal {self.path}: truncating torn trailing "
                f"record ({self.torn_tail_bytes} bytes) left by a killed "
                "writer; the affected cell will re-run",
                RuntimeWarning,
                stacklevel=2,
            )
            with open(self.path, "r+b") as handle:
                handle.truncate(good_end)

    def __contains__(self, key: str) -> bool:
        return key in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def keys(self) -> list[str]:
        return list(self._cells)

    def get(self, key: str) -> RunRecord:
        return self._cells[key]

    def record(self, key: str, run_record: RunRecord) -> None:
        self._cells[key] = run_record
        append_record(run_record, self.path, key=key)


def render_table(
    records: Sequence[RunRecord],
    columns: Sequence[str] = ("algorithm", "model", "k", "status", "spread", "elapsed_seconds", "peak_memory_mb"),
    title: str | None = None,
) -> str:
    """Fixed-width ASCII table of selected record fields."""
    headers = {
        "algorithm": "Algorithm",
        "model": "Model",
        "k": "k",
        "status": "Status",
        "spread": "Spread",
        "spread_std": "Spread sd",
        "elapsed_seconds": "Time (s)",
        "peak_memory_mb": "Mem (MB)",
    }

    def fmt(record: RunRecord, col: str) -> str:
        value = getattr(record, col)
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    rows = [[headers.get(c, c) for c in columns]]
    rows += [[fmt(r, c) for c in columns] for r in records]
    widths = [max(len(row[i]) for row in rows) for i in range(len(columns))]
    lines = []
    if title:
        lines.append(title)
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if idx == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def render_series(
    x_label: str,
    xs: Sequence,
    series: dict[str, Sequence],
    title: str | None = None,
) -> str:
    """Paper-figure data as aligned columns: one x column, one per series."""
    names = list(series)
    rows = [[x_label] + names]
    for i, x in enumerate(xs):
        row = [str(x)]
        for name in names:
            value = series[name][i]
            if value is None:
                row.append("-")
            elif isinstance(value, float):
                row.append(f"{value:.3f}")
            else:
                row.append(str(value))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    if title:
        lines.append(title)
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if idx == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)
