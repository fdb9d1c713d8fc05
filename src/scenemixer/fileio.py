"""Artifact output: every file the program writes goes through `write_atomic`.

Callers pass bytes, so text artifacts (the checkpoint's config block, the
history, manifest, cost, confusion and metrics CSVs) are encoded as UTF-8,
the encoding their readers use. A regular file, or a path that does not
exist yet, is written to a temp file beside it and renamed over it, so a
kill mid-write leaves the old file or the whole new one; the directory
must therefore be writable. A symlink is followed: the file it names is
replaced and the link stays. A target that is the file descriptor 1
refers to, such as `/dev/stdout`, is written through descriptor 1 after
`sys.stdout` is flushed, so the artifact follows what the command printed
instead of replacing or overwriting it. Any other target that cannot be
replaced (a FIFO, a terminal or a directory) is opened and written
directly, as `open(path, "wb")` would. `replaced_file` holds the rule of
which targets are replaced, and `check_writable` uses it to refuse, before
any work, a target that `write_atomic` would have no place to write.
"""

import errno
import os
import stat
import sys


def replaced_file(path):
    """(the file, its stat or None) that `write_atomic(path, ...)` replaces, or None if it writes `path` in place.

    It replaces a regular file, or a path that does not exist yet, unless
    descriptor 1 refers to it. A symlink is followed: the file it names is
    replaced and the link stays.
    """
    path = os.fspath(path)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and (not stat.S_ISREG(st.st_mode) or _is_stdout(st)):
        return None
    return (os.path.realpath(path) if os.path.islink(path) else path), st


def _is_stdout(st):
    try:
        return os.path.samestat(st, os.fstat(1))
    except OSError:  # descriptor 1 is closed
        return False


def check_writable(path):
    """Raise the OSError that `write_atomic(path, ...)` would meet for want of a place to write.

    That is: `path` is a directory, or the directory of the file it would
    replace is missing or not writable. A target written in place, such as
    a FIFO or `/dev/stdout`, is not checked.
    """
    target = replaced_file(path)
    if target is None:
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        return
    directory = os.path.dirname(target[0]) or os.curdir
    if not os.access(directory, os.W_OK | os.X_OK):
        code = errno.EACCES if os.path.isdir(directory) else errno.ENOENT
        raise OSError(code, os.strerror(code), target[0])  # the file write_atomic would name


def write_atomic(path, chunks):
    """Write the byte strings of `chunks` to `path`; readers see the old file or the whole new one.

    The temp file lives in the directory of the file `path` resolves to,
    because `os.replace` is atomic only within one file system. It gets the
    mode a plain `open(path, "wb")` would leave: the target's mode if it
    exists, else 0o666 less the umask. On any error, including one raised
    while `chunks` is being produced, the temp file is removed and the
    target is untouched.
    """
    target = replaced_file(path)
    if target is None and _is_stdout(os.stat(path)):
        sys.stdout.flush()
        with open(1, "wb", closefd=False) as fh:
            fh.writelines(chunks)
        return
    if target is None:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    path, st = target
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = path  # name the file the caller asked for, not the temp file
        raise
    try:
        with open(fd, "wb") as fh:
            fh.writelines(chunks)
        if st is not None:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
