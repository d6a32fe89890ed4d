"""The one way epart writes a file.

write_file overwrites a file in place: it opens without O_TRUNC, writes
every byte from offset 0 and then cuts the file to the new length.  The
result is what a truncating open leaves: the same inode (so hard links and
symlinks are written through), an existing file's mode, 0o666 & ~umask for a
new file, and exactly the new bytes.  Truncating a file that holds data to
zero first costs far more on ext4: about eight times as much per small file
in a tight loop, and stalls of milliseconds when other work runs between
writes (benchruns/pr13/README.md).  That is likely because ext4 starts
writeback on close after a truncate to zero (auto_da_alloc).

Like a truncating open, this is not crash-atomic: a write cut short leaves
a mix of old and new bytes.
"""

from __future__ import annotations

import os


def write_file(path: str | os.PathLike, data: bytes) -> None:
    """Make the file at path hold exactly data, creating it if needed.

    Only a file that was longer than data is cut: one that was not needs no
    cut, and a pipe, terminal or /dev/null has no length to cut (ftruncate
    fails there).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old_size = os.fstat(fd).st_size
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if old_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
