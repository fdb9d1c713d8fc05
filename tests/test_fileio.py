import os
import stat
import threading

import pytest

from scenemixer.fileio import check_writable, write_atomic


def test_symlink_stays_a_link_and_its_file_gets_the_bytes(tmp_path):
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "out.csv"
    target.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_atomic(link, [b"new ", b"bytes\n"])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == b"new bytes\n"
    # the temp file lives beside the file the link names, and is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real"]
    assert [p.name for p in (tmp_path / "real").iterdir()] == ["out.csv"]


def test_fifo_stays_a_fifo_and_a_reader_gets_the_bytes(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    # a daemon, so that a reader left blocked in open() by a write that never
    # reaches the pipe fails the test instead of hanging the session
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_atomic(fifo, [b"through ", b"the pipe\n"])
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b"through the pipe\n"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.mark.parametrize("target", ["dir", "missing/out.csv"])
def test_unwritable_target_raises_what_a_plain_open_raises(tmp_path, target):
    (tmp_path / "dir").mkdir()
    with pytest.raises(OSError) as plain:
        open(tmp_path / target, "wb")
    with pytest.raises(OSError) as info:
        write_atomic(tmp_path / target, [b"x"])
    assert type(info.value) is type(plain.value) and str(info.value) == str(plain.value)
    assert [p.name for p in tmp_path.iterdir()] == ["dir"] and not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("target", ["dir", "missing/out.csv", "dangling.csv"])
def test_check_writable_raises_what_write_atomic_raises(tmp_path, target):
    (tmp_path / "dir").mkdir()
    (tmp_path / "dangling.csv").symlink_to(tmp_path / "missing" / "real.csv")
    with pytest.raises(OSError) as written:
        write_atomic(tmp_path / target, [b"x"])
    with pytest.raises(OSError) as checked:
        check_writable(tmp_path / target)
    assert type(checked.value) is type(written.value) and str(checked.value) == str(written.value)


@pytest.mark.parametrize("target", ["old.csv", "new.csv", "link.csv", "pipe"])
def test_check_writable_passes_what_write_atomic_writes_and_creates_nothing(tmp_path, target):
    (tmp_path / "old.csv").write_bytes(b"old\n")
    (tmp_path / "link.csv").symlink_to(tmp_path / "old.csv")
    os.mkfifo(tmp_path / "pipe")
    before = sorted(p.name for p in tmp_path.iterdir())
    check_writable(tmp_path / target)
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "old.csv").read_bytes() == b"old\n"


def test_check_writable_refuses_a_directory_without_write_access(tmp_path, monkeypatch):
    # a directory the process may not write, which chmod cannot make for a process run as root
    monkeypatch.setattr(os, "access", lambda path, mode: not (path == str(tmp_path) and mode & os.W_OK))
    with pytest.raises(PermissionError) as info:
        check_writable(tmp_path / "out.csv")
    assert str(info.value) == f"[Errno 13] Permission denied: '{tmp_path / 'out.csv'}'"
    assert not any(tmp_path.iterdir())
