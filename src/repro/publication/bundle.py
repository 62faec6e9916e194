"""Artifact bundling (R5).

"The publication script bundles these artifacts into a release format,
e.g., an archive or a repository."  This module produces the archive:
a deterministic ``tar.gz`` of the experiment result folder (scripts,
variables, per-run outputs, metadata, generated figures) plus a
machine-readable manifest of every bundled file.

Determinism matters for reproducibility: bundling the same artifacts
twice yields byte-identical archives (fixed mtimes, sorted members,
stable ownership), so released artifacts can be compared by checksum.

Every step works from one listing of the tree (:func:`list_files`):
``(relative, path, size)`` per file, in the order
``sorted(os.walk(root))`` gives.  The plot memo
(:data:`~repro.evaluation.plotter.MEMO_NAME`) is never listed, so it
never reaches the manifest, the website or the archive.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import tarfile
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.errors import PublicationError
from repro.evaluation.plotter import MEMO_NAME

__all__ = [
    "build_manifest",
    "bundle_artifacts",
    "list_files",
    "place_file",
    "sha256_file",
    "verify_bundle",
]

#: Fixed timestamp embedded in archives (2021-12-07, first day of CoNEXT '21).
_EPOCH = 1638835200

#: One listed file: ``/``-separated relative path, full path, size.
Listing = List[Tuple[str, str, int]]

#: The gzip writer sees the tar stream in chunks of this size.  A
#: 1 MiB buffer was no faster and raised the benchmark's peak RSS by
#: ~1 MB.
_WRITE_BUFFER = 64 << 10


def list_files(root: str) -> Listing:
    """Every file under ``root``, in ``sorted(os.walk(root))`` order.

    Directories come in order of their full path string (so
    ``run-000-retry`` precedes ``run-000/dut``), files sorted by name
    within each.  Like ``os.walk``, symbolic links to directories are
    neither listed nor followed.  One ``stat`` per file.
    """
    if not os.path.isdir(root):
        raise PublicationError(f"no such artifact folder: {root}")
    # (sort key, relative prefix, path) of every directory; the root's
    # empty key sorts before every other directory's.
    directories = [("", "", root)]
    listed: Dict[str, Listing] = {}
    for key, prefix, path in directories:
        files = []
        try:
            entries = list(os.scandir(path))
        except OSError:
            continue  # os.walk skips what it cannot list
        for entry in entries:
            if entry.is_dir():
                if not entry.is_symlink():
                    directories.append(
                        (prefix + entry.name, prefix + entry.name + "/", entry.path)
                    )
            elif entry.name != MEMO_NAME:
                files.append((prefix + entry.name, entry.path, entry.stat().st_size))
        files.sort()
        listed[key] = files
    return [item for key in sorted(listed) for item in listed[key]]


def place_file(files: Listing, root: str, name: str) -> None:
    """Enter the top-level file ``name`` into ``files`` with its size now.

    Top-level files come first in a listing, sorted by name; an entry
    already there is replaced.
    """
    path = os.path.join(root, name)
    entry = (name, path, os.path.getsize(path))
    position = 0
    while (
        position < len(files)
        and "/" not in files[position][0]
        and files[position][0] < name
    ):
        position += 1
    if position < len(files) and files[position][0] == name:
        files[position] = entry
    else:
        files.insert(position, entry)


def sha256_file(path: str) -> str:
    """Hex SHA-256 of one file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    root: str,
    skip=(),
    files: Optional[Listing] = None,
    digests: Optional[Mapping[str, str]] = None,
) -> List[Dict[str, object]]:
    """List every file under ``root`` with size and SHA-256 digest.

    ``skip`` names top-level files to leave out (and not hash).
    ``files`` is the tree's :func:`list_files` listing when the caller
    already has it; ``digests`` maps relative paths whose SHA-256 the
    caller has already computed.
    """
    if files is None:
        files = list_files(root)
    known = digests or {}
    entries: List[Dict[str, object]] = []
    for relative, path, size in files:
        if relative in skip:
            continue
        sha256 = known.get(relative) or sha256_file(path)
        entries.append({"path": relative, "size": size, "sha256": sha256})
    return entries


def bundle_artifacts(
    root: str,
    archive_path: str,
    prefix: Optional[str] = None,
    files: Optional[Listing] = None,
) -> str:
    """Create a deterministic ``tar.gz`` of everything under ``root``.

    ``prefix`` is the top-level folder name inside the archive; it
    defaults to the basename of ``root``.  ``files`` is the tree's
    :func:`list_files` listing when the caller already has it.

    The archive is what ``tarfile`` writes for these members in PAX
    format, byte for byte: each member is its ``tobuf`` header, the
    payload and NUL padding to the block, and the stream ends with two
    zero blocks padded to the record size.  The tar stream goes through
    one write buffer into the gzip writer, one member at a time.
    """
    if files is None:
        files = list_files(root)
    if not files:
        raise PublicationError(f"artifact folder {root} is empty; nothing to bundle")
    prefix = prefix or os.path.basename(os.path.normpath(root))
    directory = os.path.dirname(archive_path)
    if directory:
        os.makedirs(directory, exist_ok=True)

    info = tarfile.TarInfo()
    info.mtime = _EPOCH
    info.uid = info.gid = 0
    info.uname = info.gname = "pos"
    info.mode = 0o644
    offset = 0
    # gzip with mtime=0 and no embedded filename for byte-stable output.
    with open(archive_path, "wb") as out:
        with gzip.GzipFile(
            filename="", fileobj=out, mode="wb", mtime=0
        ) as gz, io.BufferedWriter(gz, _WRITE_BUFFER) as stream:
            for relative, path, size in files:
                info.name = f"{prefix}/{relative}"
                info.size = size
                header = info.tobuf(tarfile.PAX_FORMAT, "utf-8", "surrogateescape")
                stream.write(header)
                with open(path, "rb") as handle:
                    remaining = size
                    while remaining:
                        chunk = handle.read(min(remaining, _WRITE_BUFFER))
                        if not chunk:
                            raise PublicationError(
                                f"{path} shrank while it was bundled"
                            )
                        stream.write(chunk)
                        remaining -= len(chunk)
                padding = -size % tarfile.BLOCKSIZE
                stream.write(tarfile.NUL * padding)
                offset += len(header) + size + padding
            offset += 2 * tarfile.BLOCKSIZE
            stream.write(
                tarfile.NUL * (2 * tarfile.BLOCKSIZE + -offset % tarfile.RECORDSIZE)
            )
    return archive_path


def verify_bundle(archive_path: str, root: str) -> bool:
    """Check the archive matches the artifact folder exactly.

    Returns True when every file in the folder appears in the archive
    with identical content (and nothing extra is present).
    """
    expected = {entry["path"]: entry["sha256"] for entry in build_manifest(root)}
    seen: Dict[str, str] = {}
    with tarfile.open(archive_path, mode="r:gz") as tar:
        for member in tar.getmembers():
            if not member.isfile():
                continue
            relative = member.name.split("/", 1)[1] if "/" in member.name else member.name
            extracted = tar.extractfile(member)
            if extracted is None:
                raise PublicationError(f"unreadable member {member.name}")
            seen[relative] = hashlib.sha256(extracted.read()).hexdigest()
    return seen == expected
