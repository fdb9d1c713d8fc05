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
directly, as `open(path, "wb")` would.
"""

import os
import stat
import sys


def write_atomic(path, chunks):
    """Write the byte strings of `chunks` to `path`; readers see the old file or the whole new one.

    The temp file lives in the directory of the file `path` resolves to,
    because `os.replace` is atomic only within one file system. It gets the
    mode a plain `open(path, "wb")` would leave: the target's mode if it
    exists, else 0o666 less the umask. On any error, including one raised
    while `chunks` is being produced, the temp file is removed and the
    target is untouched.
    """
    path = os.fspath(path)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    try:
        is_stdout = st is not None and os.path.samestat(st, os.fstat(1))
    except OSError:  # descriptor 1 is closed
        is_stdout = False
    if is_stdout:
        sys.stdout.flush()
        with open(1, "wb", closefd=False) as fh:
            fh.writelines(chunks)
        return
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    if os.path.islink(path):
        # replace the file the link names, so that the link stays
        path = os.path.realpath(path)
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
