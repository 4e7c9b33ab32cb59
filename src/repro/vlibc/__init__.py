"""repro.vlibc — the C library shipped with the compiler, in an
execution-optimized and a verification-optimized variant, and the archive
that links a variant one function at a time (``archive.py``)."""

from .sources import (
    CHECK_FAIL_DECLARATION, EXECUTION_LIBC, LIBC_FUNCTIONS, VERIFICATION_LIBC,
    libc_source,
)
from .archive import LibraryArchive, split_members

__all__ = [
    "CHECK_FAIL_DECLARATION", "EXECUTION_LIBC", "LIBC_FUNCTIONS",
    "VERIFICATION_LIBC", "libc_source",
    "LibraryArchive", "split_members",
]
