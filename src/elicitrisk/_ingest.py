"""The CSV readers behind ``empirical_from_csv`` and ``ForecastSeries.from_csv``.

A clean file is read by a scan of its bytes: numpy's ``loadtxt`` for numbers
alone, and for a panel one streamed pass over its pieces.  Whatever the scan
cannot read goes to the per-row readers, which name the physical line of the
first fault.  Only the verbs that read a CSV file import this module.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
import warnings

import numpy as np

# Bytes on which numpy's parse and the csv module's could differ: the quote,
# NUL (dropped from the end of numpy strings) and the ASCII separators
# 0x1c-0x1f (whitespace to numpy's float parser, not to Python's float).
_PER_ROW_ONLY = b'"\0\x1c\x1d\x1e\x1f'

# The first L bytes of a little-endian 8-byte word, for L = 0..8
_PREFIX = np.array([(1 << 8 * L) - 1 for L in range(9)], np.uint64)

# The readers take the file in pieces of at most this many bytes; the label
# scan cuts each after a line end
_PIECE = 1 << 20

# Zeros after each piece, so that an 8-byte word may start at its end
_SLACK = bytes(8)


def _read_columns(path, numbers, labels=(), raw=None):
    """Named columns of a CSV file with a header row, or None where the
    per-row parser must decide: ``_samples_by_rows`` for
    ``distributions.empirical_from_csv``, ``ForecastSeries._from_rows`` for
    ``ForecastSeries.from_csv``, the two callers.

    Returns a float64 array with one column per name in ``numbers``, one row
    per data row, blank lines skipped, and a list with a triple ``(names,
    codes, first)`` per name in ``labels``: the distinct stripped labels in
    sorted order, each row's index into them and the row where each first
    occurs.  With ``raw``, the name of a column kept as bytes, also a triple
    ``(first, rows, cells)``: its field where each label of the last label
    column first occurs, in the order of the labels, and the rows whose
    field differs from that of their label, with their fields cast to
    float64.  A name given twice in the header means its last column.

    Numbers alone are parsed by numpy's ``loadtxt`` after a scan of the
    file's bytes.  With labels the file is read once, in pieces: the fields
    come from a scan of each piece's bytes (``_label_cells``), its numbers
    are cast from their bytes (``_floats``), a run of rows at a time, and its
    labels numbered against those of the pieces before (``_Factors``).  Returns None whenever the
    per-row parser must decide: the file holds a quote, a byte in
    ``_PER_ROW_ONLY`` or a field that may pass the csv module's field size
    limit, the header does not end in the first piece or a name is missing;
    numbers alone also when numpy rejects the data (undecodable bytes,
    ragged rows, empty fields and the numbers Python's ``float`` reads but
    numpy does not, such as ``1_0`` or non-ASCII digits) or would decompress
    or fetch the path; with labels, also when a byte does not decode, a
    number does not parse, a line has not the header's number of fields or
    outgrows a piece, or a label column, or the raw fields kept, held at
    their widest field's width would outgrow the file and 1 MiB.
    """
    fname = os.fspath(path) if isinstance(path, os.PathLike) else path
    if not isinstance(fname, str) or not labels and (
            "://" in fname or fname.endswith((".gz", ".bz2", ".xz", ".lzma"))):
        return None
    try:
        # the per-row parser's own file, so the same text encoding
        with open(fname, newline="") as fh:
            encoding, chunks = fh.encoding, _chunks(fh.buffer.read)
            head = next(chunks, b"")
            end = min((i for i in (head.find(b"\n"), head.find(b"\r")) if i >= 0),
                      default=len(head))
            if end == len(head):
                return None
            header = head[:end].decode(encoding).split(",")
            column = {name: i for i, name in enumerate(header)}
            names = (*numbers, *labels, *([raw] if raw else []))
            if not all(name in column for name in names):
                return None
            if labels:
                pieces = _pieces(head[end + 1 + (head[end:end + 2] == b"\r\n"):], chunks, encoding)
                cells = _label_cells(pieces, len(header), [column[name] for name in names])
                return _tally(cells, len(numbers), len(labels), encoding,
                              max(os.fstat(fh.fileno()).st_size, _PIECE))
            for _ in chunks:
                pass
        with warnings.catch_warnings():
            # a warning, such as that for a file with no data rows, declines too
            warnings.simplefilter("error")
            values = np.loadtxt(fname, delimiter=",", comments=None, ndmin=2, skiprows=1,
                                usecols=[column[name] for name in numbers])
    # ValueError covers undecodable bytes, whose message the per-row parser
    # gives, and every check of the scan
    except (ValueError, IndexError, Warning):
        return None
    return values, []


def _chunks(read):
    """The file's bytes in chunks of whole blocks, each scanned first: a
    ValueError where the per-row parser must decide."""
    # a field longer than the csv module's limit covers a whole block of at
    # most half that length, so a block with no field end declines; reads of
    # whole blocks keep the blocks aligned
    block = min(max(1, (csv.field_size_limit() + 1) // 2), _PIECE)
    for chunk in iter(lambda: read(_PIECE // block * block), b""):
        if any(c in chunk for c in _PER_ROW_ONLY) or any(
                all(chunk.find(c, i, i + block) < 0 for c in b",\n\r")
                for i in range(0, len(chunk) - block + 1, block)):
            raise ValueError("the per-row parser reads this file")
        yield chunk


def _pieces(first: bytes, chunks, encoding: str):
    """``first`` and then ``chunks`` in pieces cut after their last line end,
    a line end added to a last line that has none: per piece, its bytes and
    some after it in one array, and its length.  A ValueError where a piece
    does not decode or a line outgrows a piece.

    Lines end at LF, CR and CRLF, as both parsers end them; the LF of a CRLF
    cut between two pieces starts the next as an empty line.
    """
    carry = b""
    for chunk in itertools.chain((first,), chunks, [None]):
        if chunk is None:
            if not carry:
                return
            chunk = b"\n"
        data = b"".join((carry, chunk, _SLACK))
        cut = 1 + max(data.rfind(b"\n"), data.rfind(b"\r"))
        carry = data[cut:-len(_SLACK)]
        if len(carry) > _PIECE:
            raise ValueError("a line outgrows a piece")
        if not data.isascii():
            data[:cut].decode(encoding)
        if cut:
            yield np.frombuffer(data, np.uint8), cut


def _label_cells(pieces, nfields: int, cols: list):
    """The fields ``cols`` of the non-empty lines of each of ``pieces``, pairs
    of a byte array and the length of its part that ends after a line end:
    per piece, its bytes as little-endian 8-byte words at every byte offset
    up to its end and, per column, each field's start and length.  A
    ValueError unless every line has ``nfields`` fields.
    """
    for data, size in pieces:
        piece = data[:size]
        pos = np.flatnonzero((piece == 44) | (piece == 10) | (piece == 13))
        sep = piece[pos]
        # a field starts after the separator before it; the LF of a CRLF ends
        # none, and neither does the line end of an empty line
        start = np.concatenate((np.zeros(1, pos.dtype), pos[:-1] + 1))
        keep = np.concatenate(([True], (sep[1:] != 10) | (sep[:-1] != 13)
                               | (pos[1:] != pos[:-1] + 1)))
        ends = sep != 44
        keep &= ~ends | (start != pos) | np.concatenate(([False], ~ends[:-1]))
        if not keep.all():
            pos, ends, start = pos[keep], ends[keep], start[keep]
        if pos.size != nfields * np.count_nonzero(ends) or not ends[nfields - 1::nfields].all():
            raise ValueError("a line has not the header's number of fields")
        words = np.ndarray((size + 1,), "<u8", data, strides=(1,))
        yield words, [(start[c::nfields], pos[c::nfields] - start[c::nfields]) for c in cols]


def _gather(words: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The fields at ``start`` of ``length`` bytes in a piece's ``words``: an
    ``S`` array zero-padded to a multiple of 8 bytes no narrower than the
    widest field."""
    end = words.size - 1
    cell = np.empty((start.size, max(1, -(-int(length.max(initial=0)) // 8))), "<u8")
    for k in range(cell.shape[1]):
        cell[:, k] = words[np.minimum(start + 8 * k, end)] & _PREFIX[np.clip(length - 8 * k, 0, 8)]
    return cell.view(f"S{8 * cell.shape[1]}")[:, 0]


def _runs(length: np.ndarray) -> list:
    """Slices of the rows of ``length`` whose fields, gathered, take at most a
    piece's bytes."""
    step = max(1, _PIECE // (8 + int(length.max(initial=0))))
    return [slice(i, i + step) for i in range(0, max(1, length.size), step)]


def _floats(cells: np.ndarray) -> np.ndarray:
    """Numbers from their bytes by numpy's cast, which reads what Python's
    ``float`` reads of ASCII text; a ValueError where one does not parse."""
    return cells.astype(np.float64)


def _tally(pieces, n: int, k: int, encoding: str, limit: int):
    """``_read_columns``'s result from each piece's fields: ``n`` numbers,
    ``k`` labels and, if one follows, the raw column.  A ValueError where a
    number does not parse, or where a label column, or the raw fields kept,
    held at their widest field's width would outgrow ``limit`` bytes.
    """
    values, factors, widest = [], [_Factors() for _ in range(k)], [0] * (k + 1)
    table, rows, other = np.empty(0, "S8"), [], []
    for words, fields in pieces:
        # numbers are cast a run of rows at a time and their bytes dropped
        values.append(np.stack([np.concatenate([
            _floats(_gather(words, s[j], length[j])) for j in _runs(length)])
            for s, length in fields[:n]], axis=1))
        for i, (f, (s, length)) in enumerate(zip(factors, fields[n:])):
            widest[i] = max(widest[i], int(length.max(initial=0)))
            if (f.rows + s.size) * widest[i] > limit:
                raise ValueError("a label column outgrows the file")
            codes, new = f.add(_gather(words, s, length))
        if len(fields) > n + k:
            # the raw field at the row where each number of the last label
            # first occurs, and as numbers the fields that differ from their
            # number's
            s, length = fields[-1]
            widest[k] = max(widest[k], int(length[new].max(initial=0)))
            if (table.size + new.size) * widest[k] > limit:
                raise ValueError("the raw column outgrows the file")
            table = np.concatenate((table, _gather(words, s[new], length[new])))
            for j in _runs(length):
                raw = _gather(words, s[j], length[j])
                differ = np.flatnonzero(raw != table[codes[j]])
                rows.append(factors[-1].rows - s.size + j.start + differ)
                other.append(_floats(raw[differ]))
    if not factors[0].rows:
        raise ValueError("no data rows")
    labels = [f.factors(encoding) for f in factors]
    out = np.concatenate(values), [triple for triple, _, _ in labels]
    if not rows:
        # no raw column
        return out
    # where stripping merged numbers into one label, the fields of all but
    # the first are compared with the first's
    (names, _, first), label, start = labels[-1]
    lead = start == first[label]
    kept = np.empty(len(names), table.dtype)
    kept[label[lead]] = table[lead]
    rows.append(start[~lead])
    other.append(_floats(table[~lead]))
    return *out, (kept, np.concatenate(rows), np.concatenate(other))


class _Factors:
    """The distinct fields of a label column, numbered in order of first
    occurrence as the pieces of its rows come in."""

    def __init__(self):
        self.width = 8
        self.keys = _keys(np.empty(0, "S8"))  # the distinct fields, sorted
        self.number = np.empty(0, np.int32)   # the number of each
        self.start, self.codes = [], []       # by piece: new numbers' rows, each row's number
        self.rows = 0

    def add(self, cells: np.ndarray):
        """Number the fields of a piece: each row's number and, in the order
        of the numbers, the rows of the piece where new numbers first occur."""
        if cells.itemsize > self.width:
            self.width = cells.itemsize
            self.keys = _keys(_bytes(self.keys).astype(cells.dtype))
        keys, first, codes = np.unique(_keys(cells.astype(f"S{self.width}", copy=False)),
                                       return_index=True, return_inverse=True)
        at = self.keys.searchsorted(keys)
        seen = at < self.keys.size
        seen[seen] = self.keys[at[seen]] == keys[seen]
        new = np.flatnonzero(~seen)
        fresh = new[np.argsort(first[new])]
        number = np.empty(keys.size, np.int32)
        number[seen] = self.number[at[seen]]
        number[fresh] = self.number.size + np.arange(fresh.size)
        if new.size:
            self.keys = np.insert(self.keys, at[new], keys[new])
            self.number = np.insert(self.number, at[new], number[new])
        self.start.append(self.rows + first[fresh])
        self.codes.append(number[codes])
        self.rows += cells.size
        return self.codes[-1], first[fresh]

    def factors(self, encoding: str):
        """The triple ``(names, codes, first)`` of ``_read_columns``, each
        number's index into the names and the row where each number first
        occurs."""
        raw = _bytes(self.keys)
        # no field holds a line end
        names = b"\n".join(raw.tolist()).decode(encoding).split("\n")
        index = np.arange(len(names))
        # bytes sort as their ASCII text; other text, or stripping, may merge
        # or reorder (ASCII whitespace strips alike as bytes and as text)
        if raw.view(np.uint8).max(initial=0) > 127 or (np.strings.strip(raw) != raw).any():
            names, index = np.unique([name.strip() for name in names], return_inverse=True)
            names = names.tolist()
        label = np.empty(index.size, np.int32)
        label[self.number] = index
        start = np.concatenate(self.start)
        first = np.full(len(names), self.rows)
        np.minimum.at(first, label, start)
        return (names, label[np.concatenate(self.codes)], first), label, start


def _keys(cells: np.ndarray) -> np.ndarray:
    # eight bytes sort as their big-endian integer, and faster
    return cells.view(">u8").astype(np.uint64) if cells.itemsize == 8 else cells


def _bytes(keys: np.ndarray) -> np.ndarray:
    return keys.astype(">u8").view("S8") if keys.dtype == np.uint64 else keys


@contextlib.contextmanager
def _decode_errors(path, where):
    """Make a text decoding error in the block a ValueError that names the
    physical line of the file's first undecodable byte, counted as the csv
    module counts lines and formatted by ``where``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # the decoder's own position counts from the start of its buffer
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode(exc.encoding)
        except UnicodeDecodeError as first:
            exc = first
        head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValueError(f"{where(line)}: {exc.encoding!r} codec can't decode byte "
                         f"0x{exc.object[exc.start]:02x}: {exc.reason}") from None


def _samples_by_rows(path) -> list[float]:
    """Column ``y`` read row by row; errors name the physical line."""
    with open(path, newline="") as fh, _decode_errors(path, lambda line: f"{path}:{line}"):
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "y" not in reader.fieldnames:
            raise ValueError(f"{path}: expected a header row with a column named 'y'")
        samples = []
        for row in reader:
            raw = row.get("y")
            if raw is None or raw.strip() == "":
                raise ValueError(f"{path}:{reader.line_num}: missing value in column 'y'")
            try:
                samples.append(float(raw))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: could not parse {raw!r} "
                                 "as a real number") from exc
    if not samples:
        raise ValueError(f"{path}: no data rows")
    return samples
