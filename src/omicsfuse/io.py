"""CSV and JSON readers/writers for every file the batch front-end touches.

Matrix CSV: header row "sample_id" followed by feature IDs, one row per
sample, empty cell = missing value, comma separated, UTF-8 with or
without a leading byte-order mark. Survival CSV: sample_id,time,event
with event 0/1. Labels CSV: sample_id,label.
Numbers are written with 12 significant digits.  Reading them back is
not lossless (a value below 10 in magnitude can move by up to 5e-12), but
writing what was read gives the same bytes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .preprocess import OmicsMatrix
from .survival import SurvivalRecord

_SURVIVAL_HEADER = ["sample_id", "time", "event"]
_LABELS_HEADER = ["sample_id", "label"]


def _fmt(x: float) -> str:
    if math.isnan(x):  # any float type, numpy's float32 too
        return ""
    return f"{x:.12g}"


def write_matrix_csv(path, matrix: OmicsMatrix) -> None:
    write_table_csv(path, ["sample_id", *matrix.feature_ids], matrix.values,
                    row_ids=matrix.sample_ids)


def utf8_error(path: Path, reason: str) -> ValueError:
    """``path:line: not valid UTF-8 (reason)``, at the line holding the
    first byte of ``path`` that is not UTF-8."""
    data = path.read_bytes()
    line = 1
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
    return ValueError(f"{path}:{line}: not valid UTF-8 ({reason})")


def _numbered_rows(reader, path: Path):
    """(first line, cells) of each row ``reader`` yields; malformed CSV and
    invalid UTF-8 raise a ValueError with ``path:line`` in front."""
    while True:
        line = reader.line_num + 1
        try:
            yield line, next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise utf8_error(path, exc.reason) from None


def _read_rows(path, header_ok, expected: str, parse=None) -> tuple[list[str], list]:
    """The header and the rows of a CSV file, each row passed through
    ``parse``.  A leading byte-order mark is dropped.  The header must
    satisfy ``header_ok`` (else the error quotes ``expected``), blank lines
    are skipped, every row has the header's width, and there is at least
    one row.  A ValueError from ``parse`` gets ``path:line`` in front."""
    path = Path(path)
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        numbered = _numbered_rows(csv.reader(fh, strict=True), path)
        _, header = next(numbered, (1, []))
        if not header_ok(header):
            raise ValueError(f"{path}: expected header {expected!r}")
        rows = []
        for lineno, row in numbered:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            try:
                rows.append(row if parse is None else parse(row))
            except ValueError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no rows after the header")
    return header, rows


def _matrix_row(row: list[str]) -> tuple[str, list[float]]:
    return row[0], [np.nan if cell == "" else float(cell) for cell in row[1:]]


def read_matrix_csv(path, kind: str = "other") -> OmicsMatrix:
    header, rows = _read_rows(path, lambda h: len(h) >= 2 and h[0] == "sample_id",
                              "sample_id,<feature ids...>", _matrix_row)
    sample_ids, values = zip(*rows)
    try:
        return OmicsMatrix(np.asarray(values, dtype=np.float64), sample_ids, header[1:], kind)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _write_rows(path, header: list[str], rows) -> None:
    """``header``, then each row of cells.  The writers perfbench's tracer
    wraps call this, never one another, so each file is counted once."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_survival_csv(path, records: list[SurvivalRecord]) -> None:
    _write_rows(path, _SURVIVAL_HEADER, ([r.sample_id, _fmt(r.time), r.event] for r in records))


def _survival_record(row: list[str]) -> SurvivalRecord:
    event = row[2].strip()
    if event not in ("0", "1"):
        raise ValueError(f"event must be 0 or 1, got {event!r}")
    return SurvivalRecord(row[0], float(row[1]), int(event))


def read_survival_csv(path) -> list[SurvivalRecord]:
    return _read_rows(path, lambda h: h == _SURVIVAL_HEADER, ",".join(_SURVIVAL_HEADER),
                      _survival_record)[1]


def write_labels_csv(path, sample_ids, labels) -> None:
    if len(sample_ids) != len(labels):
        raise ValueError(f"{len(sample_ids)} sample ids vs {len(labels)} labels")
    _write_rows(path, _LABELS_HEADER, zip(sample_ids, labels))


def read_labels_csv(path) -> tuple[list[str], list[str]]:
    _, rows = _read_rows(path, lambda h: h == _LABELS_HEADER, ",".join(_LABELS_HEADER))
    sample_ids, labels = map(list, zip(*rows))
    return sample_ids, labels


class _Lines(list):
    """A file-like target that keeps each string csv.writer writes."""

    write = list.append


def write_table_csv(path, header: list[str], rows, row_ids=None) -> None:
    """Flat numeric/text table; floats get 12 significant digits.  With
    ``row_ids``, ``rows`` is a 2-D float array and each line is a row id
    followed by that row's values, byte for byte as the generic path
    writes them."""
    if row_ids is not None and rows.shape[1] == 0:  # the id alone; csv quotes a lone ""
        rows, row_ids = ([rid] for rid in row_ids), None
    if row_ids is None:
        _write_rows(path, header, ([_fmt(v) if isinstance(v, (float, np.floating)) else v
                                    for v in row] for row in rows))
        return
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        leads = _Lines()
        lead_writer = csv.writer(leads)
        for rid in row_ids:
            lead_writer.writerow([rid, ""])  # the id quoted as a leading cell
        line = ",".join(["%.12g"] * rows.shape[1]) + "\r\n"
        for lead, row in zip(leads, rows.tolist()):
            # lead ends ",\r\n"; NaN is an empty cell, as _fmt writes it
            fh.write(lead[:-2] + (line % tuple(row)).replace("nan", ""))


def read_table_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header plus rows of the cell text written by write_table_csv."""
    return _read_rows(path, bool, "<column names>")


def _round_for_json(obj):
    # bool before int: Python bool subclasses int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return None
        return float(f"{x:.12g}")
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_for_json(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _round_for_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_for_json(v) for v in obj]
    return obj


def write_json(path, obj) -> None:
    """Deterministic JSON: sorted keys, 12-significant-digit floats,
    NaN serialized as null, no timestamps."""
    path = Path(path)
    payload = json.dumps(_round_for_json(obj), sort_keys=True, indent=2,
                         allow_nan=False)
    path.write_text(payload + "\n", encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
