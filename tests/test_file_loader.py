"""The algebra-file and ``@path`` loader against the loaders it replaced.

``cli._algebra`` and ``cli._read_file`` check a path with one ``os.stat`` and
read it with one raw ``os.open`` and ``os.read`` until EOF, then decode it as
UTF-8 and translate newlines as text mode does.  ``_oracles.frozen_algebra``
and ``frozen_read_file`` are the ``Path.is_file`` / ``Path.read_text`` route
of before; each path below gives the same algebra or text on both routes, or
the same error type and message.  The one deliberate difference is that an
OSError names the path as given, where pathlib named its normalised form.
``frozen_open_read_file`` is the text-mode ``open()`` that came between: on
drawn bytes, files over one 64 KiB read included, it gives the same text or
the same error as ``_read_file``.  No error path leaves a raw fd open.
"""

import errno
import json
import os
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ualgebra import cli
from ualgebra.cli import _algebra, _json_arg, _read_file, main
from ualgebra.errors import UAlgError

from _oracles import frozen_algebra, frozen_open_read_file, frozen_read_file

Z2_DOC = {
    "signature": [{"symbol": "m", "arity": 2}, {"symbol": "i", "arity": 1}, {"symbol": "e", "arity": 0}],
    "size": 2,
    "ops": {"m": [[0, 1], [1, 0]], "i": [0, 1], "e": 0},
}
Z2_TEXT = json.dumps(Z2_DOC, indent=1)  # one entry per line, so newlines matter
MALFORMED = '{\n "size": 2,\n "ops": oops\n}\n'


def outcome(load, *args):
    """("ok", value) or (exception type name, message)."""
    try:
        value = load(*args)
    except (UAlgError, ValueError, OSError) as exc:  # what cli.main reports
        return type(exc).__name__, str(exc)
    return "ok", value.to_json_dict() if hasattr(value, "to_json_dict") else value


@pytest.fixture
def paths(tmp_path):
    """Name -> path of every case both loaders must agree on."""
    files = {
        "lf.json": Z2_TEXT.encode(),
        "crlf.json": Z2_TEXT.replace("\n", "\r\n").encode(),
        "bom.json": b"\xef\xbb\xbf" + Z2_TEXT.encode(),
        "latin.json": b'{"size": 2, "name": "caf\xe9"}',
        "malformed-lf.json": MALFORMED.encode(),
        "malformed-crlf.json": MALFORMED.replace("\n", "\r\n").encode(),
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "dir").mkdir()
    os.symlink("loop-b", tmp_path / "loop-a")
    os.symlink("loop-a", tmp_path / "loop-b")
    os.symlink("absent.json", tmp_path / "dangling")
    os.symlink("lf.json", tmp_path / "link.json")
    cases = {name: str(tmp_path / name) for name in [*files, "dir", "loop-a", "dangling", "link.json"]}
    cases["missing"] = str(tmp_path / "absent.json")
    cases["empty"] = ""
    cases["nul byte"] = f"{tmp_path}/a\0b.json"
    return cases


def test_algebra_files_load_as_through_pathlib(paths):
    for name, path in paths.items():
        assert outcome(_algebra, path) == outcome(frozen_algebra, path), name
    assert outcome(_algebra, paths["lf.json"]) == ("ok", Z2_DOC)
    assert outcome(_algebra, paths["link.json"]) == ("ok", Z2_DOC)
    assert outcome(_algebra, paths["crlf.json"]) == ("ok", Z2_DOC)
    for name in ("dir", "loop-a", "dangling", "missing", "empty", "nul byte"):
        kind, message = outcome(_algebra, paths[name])
        assert kind == "UAlgError" and message.startswith("unknown algebra"), name
    kind, message = outcome(_algebra, paths["bom.json"])
    assert kind == "FormatError" and "Unexpected UTF-8 BOM" in message
    assert outcome(_algebra, paths["latin.json"]) == (
        "FormatError", f"file '{paths['latin.json']}' is not UTF-8: invalid continuation byte at byte 24"
    )


def test_a_crlf_file_reports_the_json_error_position_of_its_lf_twin(paths):
    lf, crlf = paths["malformed-lf.json"], paths["malformed-crlf.json"]
    position = "Expecting value: line 3 column 9 (char 22)"
    assert outcome(_algebra, lf) == ("FormatError", f"bad algebra file '{lf}': {position}")
    assert outcome(_algebra, crlf) == ("FormatError", f"bad algebra file '{crlf}': {position}")
    for path in (lf, crlf):
        assert outcome(_json_arg, f"@{path}", "map") == ("UAlgError", f"bad map file '{path}': {position}")


def test_path_arguments_read_as_through_pathlib(paths):
    for name, path in paths.items():
        if name != "empty":  # pathlib reads "" as "."; see the test below
            assert outcome(_read_file, path) == outcome(frozen_read_file, path), name
    assert outcome(_read_file, paths["crlf.json"]) == ("ok", Z2_TEXT)
    assert outcome(_read_file, paths["bom.json"]) == ("ok", "\ufeff" + Z2_TEXT)
    assert outcome(_read_file, paths["dir"]) == ("IsADirectoryError", f"[Errno 21] Is a directory: '{paths['dir']}'")
    assert outcome(_read_file, paths["nul byte"]) == ("ValueError", "embedded null byte")


def test_path_errors_name_the_path_as_given(tmp_path):
    (tmp_path / "z2.json").write_text(Z2_TEXT)
    typed = f"{tmp_path}/.//absent.txt"
    assert outcome(_read_file, typed) == ("FileNotFoundError", f"[Errno 2] No such file or directory: '{typed}'")
    assert outcome(frozen_read_file, typed) == (
        "FileNotFoundError", f"[Errno 2] No such file or directory: '{tmp_path}/absent.txt'"
    )
    # The OS, not pathlib, reads the path: "" names no file, and a file is not a directory.
    assert outcome(_read_file, "") == ("FileNotFoundError", "[Errno 2] No such file or directory: ''")
    assert outcome(frozen_read_file, "") == ("IsADirectoryError", "[Errno 21] Is a directory: '.'")
    slash = f"{tmp_path}/z2.json/"
    assert outcome(_read_file, slash) == ("NotADirectoryError", f"[Errno 20] Not a directory: '{slash}'")
    assert outcome(frozen_read_file, slash) == ("ok", Z2_TEXT)
    assert outcome(_algebra, slash)[0] == "UAlgError"
    # a path that pathlib would normalise, but that names the same file, loads the same algebra
    assert outcome(_algebra, f"{tmp_path}/.//z2.json") == outcome(frozen_algebra, f"{tmp_path}/.//z2.json")


def test_a_fifo_is_refused_as_an_algebra_without_blocking(tmp_path):
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)
    results = []
    for load in (_algebra, frozen_algebra):
        worker = threading.Thread(target=lambda load=load: results.append(outcome(load, fifo)), daemon=True)
        worker.start()
        worker.join(10)
        if worker.is_alive():  # opened for reading: give it a writer that closes at once
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            worker.join(10)
            pytest.fail(f"{load.__name__} opened a FIFO")
    assert results == [("UAlgError", f"unknown algebra '{fifo}' (not a fixture name or readable file)")] * 2


def test_a_fifo_path_argument_is_read_as_a_stream(tmp_path):
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as pipe:
            pipe.write("m(v1,v2)\n")

    for read in (_read_file, frozen_read_file):
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        assert read(fifo) == "m(v1,v2)\n"
        writer.join(10)


def test_stat_errors_other_than_no_such_file_are_raised(tmp_path, monkeypatch, capsys):
    # A name longer than NAME_MAX (ENAMETOOLONG) is an OSError, not an unknown algebra,
    # as Path.is_file raised it on Python 3.10 to 3.13.
    long_name = str(tmp_path / ("x" * 300))
    kind, message = outcome(_algebra, long_name)
    assert kind == "OSError" and message.startswith(f"[Errno {errno.ENAMETOOLONG}]")
    # EACCES cannot be made by permissions under every user, so os.stat raises it here.
    denied = str(tmp_path / "denied.json")
    stat = os.stat

    def stat_or_deny(path, *args, **kwargs):
        if os.fspath(path) == denied:
            raise PermissionError(errno.EACCES, "Permission denied", denied)
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(cli.os, "stat", stat_or_deny)
    assert outcome(_algebra, denied) == ("PermissionError", f"[Errno 13] Permission denied: '{denied}'")
    assert main(["congruences", denied, "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "PermissionError", "message": f"[Errno 13] Permission denied: '{denied}'"
    }


CHUNK = 1 << 16  # the bytes one os.read of _read_file asks for
# newlines, a BOM, non-ASCII text, and bytes that are not UTF-8: a stray
# continuation byte, a lone lead byte, a truncated sequence, an encoded
# surrogate, an overlong form and a byte UTF-8 never uses
PIECES = (
    b"\n", b"\r", b"\r\n", b"\r\r\n", b"\xef\xbb\xbf", "caf\u00e9 \u2218 \U0001f600".encode(),
    b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf", b"\xff",
)


@st.composite
def file_bytes(draw):
    """ASCII text with the ``PIECES`` spliced in at drawn offsets, after a filler
    that often ends at or near a chunk edge, so that the pieces straddle it."""
    filler = draw(st.sampled_from([0, 0, CHUNK - 2, CHUNK - 1, CHUNK, 2 * CHUNK - 1]))
    text = bytearray(b"x" * filler + draw(st.binary(max_size=40).map(lambda b: bytes(c & 0x7F for c in b))))
    for piece in draw(st.lists(st.sampled_from(PIECES), max_size=8)):
        at = draw(st.integers(max(filler - 3, 0), len(text)))
        text[at:at] = piece
    return bytes(text)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=file_bytes())
@example(data=b"x" * (CHUNK - 1) + b"\r\n" + b"y\r" * 3)
@example(data=b"x" * (2 * CHUNK + 5) + b"\xff")
@example(data=b"x" * (CHUNK - 1) + "\u00e9".encode() + b"\r")
def test_drawn_files_read_as_through_text_mode_open(tmp_path_factory, data):
    path = str(tmp_path_factory.mktemp("drawn") / "file")
    with open(path, "wb") as file:
        file.write(data)
    assert outcome(_read_file, path) == outcome(frozen_open_read_file, path)


def test_a_large_file_is_read_in_several_chunks(tmp_path, monkeypatch):
    data = b"x" * (CHUNK - 1) + b"\r\n" + b"y\r\n" * CHUNK + b"\xff"
    path = str(tmp_path / "large")
    with open(path, "wb") as file:
        file.write(data)
    assert outcome(_read_file, path) == outcome(frozen_open_read_file, path) == (
        "FormatError", f"file '{path}' is not UTF-8: invalid start byte at byte {len(data) - 1}"
    )
    with open(path, "wb") as file:
        file.write(data[:-1])
    reads = []
    read = os.read
    monkeypatch.setattr(cli.os, "read", lambda fd, n: reads.append(n) or read(fd, n))
    text = _read_file(path)
    assert len(reads) >= 4  # the \r of the first \r\n ends the first read; the empty read ends the file
    assert text == frozen_open_read_file(path) == "x" * (CHUNK - 1) + "\n" + "y\n" * CHUNK


def _lowest_free_fd():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


def test_no_error_path_leaves_a_raw_fd_open(paths, tmp_path):
    # A raw fd raises no ResourceWarning when it leaks, so -X dev cannot see one.
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)
    cases = [paths[name] for name in ("dir", "latin.json", "nul byte", "missing", "empty", "malformed-crlf.json")]
    cases += [f"{paths['lf.json']}/", fifo]
    lowest = _lowest_free_fd()
    for path in cases:
        assert outcome(_algebra, path)[0] != "ok", path
        assert _lowest_free_fd() == lowest, path
        if path != fifo:  # a FIFO @path is read as a stream: it blocks with no writer
            for load, *args in ((_read_file, path), (_json_arg, f"@{path}", "map")):
                outcome(load, *args)
                assert _lowest_free_fd() == lowest, (load.__name__, path)
