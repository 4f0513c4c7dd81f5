"""load_csv against the row-by-row reader it must match.

`oracle_load_csv` is load_csv as it was before cells and timestamps were
converted a block of rows at a time: csv.reader, datetime.fromisoformat and
_parse_cell on every row, with a csv.Error (a field over
csv.field_size_limit(), or a NUL before Python 3.11) reported as the
SchemaError that load_csv raises for it. Every file must give the same
exception type and message under both, or bit-equal values, equal
timestamps and the same client id.
"""

import csv
import warnings
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedcast import dataio
from fedcast.dataio import (
    FEATURES,
    N_FEATURES,
    SchemaError,
    TimeSeriesDataset,
    load_csv,
    save_csv,
)
from helpers import random_dataset


def oracle_load_csv(path: str | Path) -> TimeSeriesDataset:
    """Read one client trace.

    Expects a header row whose feature columns (everything after the first,
    timestamp column) equal FEATURES exactly. Unparsable numeric cells
    become NaN and are handled later by clean_missing. The client id is the
    file stem.
    """
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, expected a header row")
            if tuple(header[1:]) != FEATURES:
                raise SchemaError(
                    f"{path}: feature columns {header[1:]} do not match the "
                    f"expected schema {list(FEATURES)}"
                )
            stamps: list[datetime] = []
            rows: list[list[float]] = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != N_FEATURES + 1:
                    raise SchemaError(
                        f"{path}:{lineno}: expected {N_FEATURES + 1} columns, "
                        f"got {len(row)}"
                    )
                try:
                    stamps.append(datetime.fromisoformat(row[0]))
                except ValueError as exc:
                    raise SchemaError(
                        f"{path}:{lineno}: bad timestamp {row[0]!r}"
                    ) from exc
                rows.append([oracle_parse_cell(cell) for cell in row[1:]])
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not a text file: {exc}") from exc
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
    values = (
        np.array(rows, dtype=np.float64)
        if rows
        else np.empty((0, N_FEATURES), dtype=np.float64)
    )
    timestamps = np.array(stamps, dtype="datetime64[s]")
    return TimeSeriesDataset(client_id=path.stem, timestamps=timestamps, values=values)


def oracle_parse_cell(cell: str) -> float:
    cell = cell.strip()
    if not cell:
        return float("nan")
    try:
        return float(cell)
    except ValueError:
        return float("nan")


def outcome(load, path):
    """What load(path) gives: its exception, or its arrays as exact bits."""
    try:
        ds = load(path)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    return (
        "read",
        ds.client_id,
        ds.timestamps.dtype,
        ds.timestamps.astype(np.int64).tolist(),
        ds.values.shape,
        ds.values.view(np.int64).tolist(),
    )


SPECIAL_CELLS = [
    "", " 1.5 ", "nan", "-nan", "-inf", "1_000", "1e400", "0x1p3", "abc",
    '"1.0"', "-0.0", "\x1c2.5", "\u20032.5", "1\x002",
]
DEFECTS = ("cell", "stamp", "rewind", "ragged", "quote", "cr", "blank", "spaces",
           "lone-cr")


def stamp_forms(second: int) -> dict[str, str]:
    """The canonical form of a time `second` seconds into 2018, and variants."""
    base = np.datetime64("2018-01-01T00:00:00", "s") + np.timedelta64(second, "s")
    iso = np.datetime_as_string(base, unit="s")
    return {
        "canonical": iso,
        "space": iso.replace("T", " "),
        "date-only": iso[:10],
        "offset": iso + "+01:00",
        "zulu": iso + "Z",
        "fraction": iso + ".5",
        "hour-24": iso[:11] + "24:00:00",
        "february-30": "2018-02-30" + iso[10:],
        "five-digit-year": "1" + iso,
        "year-zero": "0000" + iso[4:],
        "empty": "",
        "lowercase-t": iso.replace("T", "t"),
        "space-in-year": " " + iso[1:],
        "short-offset": iso[:16] + "+01",
        "quoted": f'"{iso}"',
    }


@st.composite
def trace_files(draw):
    """Bytes of a trace written as save_csv would, then up to four defects.

    Cell values come from a drawn seed (arbitrary float64 bit patterns or
    ordinary magnitudes), so a 60-row file costs a handful of draws.
    """
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(-(2**63), 2**63, size=(n, N_FEATURES)).view(np.float64)
    else:
        values = rng.normal(size=(n, N_FEATURES)) * 10.0 ** rng.integers(-5, 9, (n, 1))
    cells = [[repr(float(v)) for v in row] for row in values]
    seconds = [120 * i for i in range(n)]
    stamps = ["canonical"] * n
    after = [""] * n  # text after the row's line: a blank, spaces or lone CR line
    header = ("time",) + FEATURES
    if draw(st.integers(0, 19)) == 0:
        header = header[:-1] if draw(st.booleans()) else header + ("extra",)
    defects = st.tuples(st.integers(0, max(n - 1, 0)), st.sampled_from(DEFECTS))
    for row, kind in draw(st.lists(defects, max_size=4)) if n else []:
        if kind == "cell":
            col = draw(st.integers(0, len(cells[row]) - 1))
            cells[row][col] = draw(st.sampled_from(SPECIAL_CELLS))
        elif kind == "stamp":
            stamps[row] = draw(st.sampled_from(sorted(stamp_forms(0))))
        elif kind == "rewind":
            seconds[row] -= draw(st.sampled_from([120, 240]))  # repeat or go back
        elif kind == "ragged":
            cells[row] = cells[row][:-1] if draw(st.booleans()) else [*cells[row], "1"]
        elif kind == "quote":  # csv.reader reads the cell unquoted
            col = draw(st.integers(0, len(cells[row]) - 1))
            cells[row][col] = f'"{cells[row][col]}"'
        elif kind == "cr":  # csv.reader ends the row there
            col = draw(st.integers(0, len(cells[row]) - 1))
            cells[row][col] += "\r"
        else:
            after[row] = {"blank": "\n", "spaces": "  \n", "lone-cr": "\r"}[kind]
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join([stamp_forms(seconds[i])[stamps[i]]] + cells[i]))
    ending = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    text = ""
    for i, line in enumerate(lines):
        text += line + (ending if ending != "mixed" else rng.choice(["\n", "\r\n"]))
        if i:
            text += after[i - 1]
    cut = draw(st.sampled_from(["none"] * 6 + ["last-ending", "anywhere"]))
    if cut == "last-ending":
        text = text.rstrip("\r\n")
    elif cut == "anywhere":
        text = text[: draw(st.integers(0, len(text)))]
    data = text.encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


# an offset timestamp reaches np.datetime64 as a datetime in both readers
@pytest.mark.filterwarnings("ignore:no explicit representation of timezones")
@settings(
    deadline=None, max_examples=400,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=trace_files(), block_rows=st.sampled_from([1, 2, 7, 64]))
def test_block_parse_matches_row_reader(tmp_path, monkeypatch, data, block_rows):
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "bs000.csv"
    path.write_bytes(data)
    assert outcome(load_csv, path) == outcome(oracle_load_csv, path)


def test_written_trace_reads_back_bit_exact(tmp_path):
    ds = random_dataset(150, seed=5, client_id="bs007")  # three blocks of rows
    values = ds.values.copy()
    values[3, 2] = np.nan
    values[70, 0] = -np.inf
    values[140, 1] = -0.0
    ds = TimeSeriesDataset(ds.client_id, ds.timestamps, values)
    path = tmp_path / "bs007.csv"
    save_csv(ds, path)
    with open(path, "a", newline="") as fh:
        fh.write("\r\n")  # a trailing blank line
    assert outcome(load_csv, path) == outcome(oracle_load_csv, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.values, values, equal_nan=True)
    assert np.array_equal(loaded.timestamps, ds.timestamps)


HEADER = "t," + ",".join(FEATURES) + "\n"
ONES = ",1" * N_FEATURES


# Files outside save_csv's form: each must read as the row reader reads it.
@pytest.mark.parametrize("text", [
    "time,a,b\n",
    HEADER + '"2018-01-01T00:00:00"' + ONES,
    HEADER[:-1] + "\r2018-01-01T00:00:00" + ONES,
    HEADER + "2018-01-01 00:00:00" + ONES,
    HEADER + '2018-01-01T00:00:00,"2.5"' + ONES[2:],
    HEADER + "2018-01-01T00:00:00,2\r" + ONES[2:],
    HEADER + " 018-01-01T00:00:00" + ONES,
    HEADER + "0000-01-01T00:00:00" + ONES,
    HEADER + "2018-01-01T00:00:00," + "1" * 140_000 + ONES[2:],
    "t" * 140_000 + HEADER[1:] + "2018-01-01T00:00:00" + ONES,
    "t\udcff" + HEADER[1:] + "2018-01-01T00:00:00" + ONES,
], ids=["header", "quoted-stamp", "lone-cr", "space-separated", "quoted-cell",
        "cr-in-row", "space-in-year", "year-zero", "field-over-csv-limit",
        "header-field-over-csv-limit", "byte-in-header"])
def test_unmodelled_files_go_to_the_row_reader(tmp_path, text):
    path = tmp_path / "c.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert outcome(load_csv, path) == outcome(oracle_load_csv, path)


def test_file_outside_the_written_form_reads_to_its_values(tmp_path):
    # a quoted, space-separated stamp, a quoted cell, a cell that is not a
    # number, a blank line and a stamp with a zone designator
    path = tmp_path / "c.csv"
    path.write_text(HEADER + '"2018-01-01 00:00:00","2.5",x' + ONES[4:] + "\n\r\n"
                    + "2018-01-01T00:02:00+00:00" + ONES)
    with pytest.warns(UserWarning, match="no explicit representation of timezones"):
        ds = load_csv(path)
    assert ds.timestamps.tolist() == [
        datetime(2018, 1, 1, 0, 0), datetime(2018, 1, 1, 0, 2)
    ]
    assert ds.values[0, 0] == 2.5 and np.isnan(ds.values[0, 1])
    assert (ds.values[0, 2:] == 1.0).all() and (ds.values[1] == 1.0).all()


@pytest.mark.parametrize("stamp", ["2018-01-01T00:00+01", "2018-01-01T00:00:00Z"])
def test_block_pass_rejects_zone_designators_without_a_warning(tmp_path, stamp):
    # np.datetime64 parses a zone designator from a string with a warning of
    # its own; load_csv must give exactly the oracle's warnings, which come
    # from converting the zone-aware datetime
    path = tmp_path / "c.csv"
    path.write_text(HEADER + stamp + ONES)
    caught = []
    for load in (load_csv, oracle_load_csv):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            load(path)
        caught.append([(w.category, str(w.message)) for w in seen])
    assert caught[0] == caught[1] and len(caught[0]) == 1


def test_stamp_that_numpy_cannot_cast_is_converted_from_its_datetime(
    tmp_path, monkeypatch
):
    class Lenient(datetime):  # also reads 24:00:00, as the next midnight
        @classmethod
        def fromisoformat(cls, text):
            if text.endswith("T24:00:00"):
                return datetime.fromisoformat(text[:10]) + timedelta(days=1)
            return datetime.fromisoformat(text)

    monkeypatch.setattr(dataio, "datetime", Lenient)
    path = tmp_path / "c.csv"
    path.write_text(HEADER + "2018-01-01T24:00:00" + ONES)
    assert load_csv(path).timestamps.tolist() == [datetime(2018, 1, 2)]


def ordering_file(first: str, second: str, gap: int) -> bytes:
    """A trace with defect `first` on row 2 and defect `second` after `gap`
    good rows, so the two fall in the same or in different 8 KB decode chunks.
    """
    good = "2018-01-01T00:00:00" + ONES + "\n"
    defects = {
        "bad-row": "2018-01-01T00:00:00,1\n",
        "bad-stamp": "yesterday" + ONES + "\n",
        "byte": "2018-01-01T00:00:00,\udcff" + ONES[2:] + "\n",
        "long-field": "2018-01-01T00:00:00," + "1" * 140_000 + ONES[2:] + "\n",
    }
    text = HEADER + defects[first] + good * gap + defects[second]
    return text.encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("block_rows", [1, 64])
@pytest.mark.parametrize("first, second, gap, expected", [
    ("bad-row", "byte", 400, "expected 12 columns"),  # the byte past 8 KB
    ("byte", "bad-row", 400, "not a text file"),
    ("bad-row", "byte", 0, "not a text file"),  # one decode chunk
    ("bad-stamp", "long-field", 0, "bad timestamp"),
    ("long-field", "bad-stamp", 0, "field larger than field limit"),
], ids=["row-then-late-byte", "byte-then-row", "row-and-byte-in-one-chunk",
        "stamp-then-long-field", "long-field-then-stamp"])
def test_first_error_in_the_file_is_raised(
    tmp_path, monkeypatch, block_rows, first, second, gap, expected
):
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "c.csv"
    path.write_bytes(ordering_file(first, second, gap))
    result = outcome(load_csv, path)
    assert result == outcome(oracle_load_csv, path)
    assert result[:2] == ("raised", SchemaError) and expected in result[2]
