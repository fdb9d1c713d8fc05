"""Atomic artifact output: write a temp file beside the target, then rename it over the target."""

import os
import stat


def write_atomic(path, chunks):
    """Write the byte strings of `chunks` to `path`; readers see the old file or the whole new one.

    The temp file lives in the target's directory, because `os.replace` is
    atomic only within one file system. It gets the mode a plain
    `open(path, "wb")` would leave: the target's mode if it exists, else
    0o666 less the umask. On any error, including one raised while `chunks`
    is being produced, the temp file is removed and the target is untouched.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
