"""Artifact bundling (R5).

"The publication script bundles these artifacts into a release format,
e.g., an archive or a repository."  This module produces the archive:
a deterministic ``tar.gz`` of the experiment result folder (scripts,
variables, per-run outputs, metadata, generated figures) plus a
machine-readable manifest of every bundled file.

Determinism matters for reproducibility: bundling the same artifacts
twice yields byte-identical archives (fixed mtimes, sorted members,
stable ownership), so released artifacts can be compared by checksum.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import tarfile
from typing import Dict, List, Optional

from repro.core.errors import PublicationError

__all__ = ["build_manifest", "bundle_artifacts", "verify_bundle"]

#: Fixed timestamp embedded in archives (2021-12-07, first day of CoNEXT '21).
_EPOCH = 1638835200


def _list_files(root: str, skip=()):
    """``(relative, path)`` of every file under ``root``, in walk order.

    ``skip`` names top-level files to leave out.
    """
    if not os.path.isdir(root):
        raise PublicationError(f"no such artifact folder: {root}")
    for directory, __, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(directory, name)
            relative = os.path.relpath(path, root).replace(os.sep, "/")
            if relative not in skip:
                yield relative, path


def build_manifest(root: str, skip=()) -> List[Dict[str, object]]:
    """List every file under ``root`` with size and SHA-256 digest.

    ``skip`` names top-level files to leave out (and not hash).
    """
    entries: List[Dict[str, object]] = []
    for relative, path in _list_files(root, skip):
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(65536), b""):
                digest.update(chunk)
        entries.append(
            {
                "path": relative,
                "size": os.path.getsize(path),
                "sha256": digest.hexdigest(),
            }
        )
    return entries


def bundle_artifacts(
    root: str,
    archive_path: str,
    prefix: Optional[str] = None,
) -> str:
    """Create a deterministic ``tar.gz`` of everything under ``root``.

    ``prefix`` is the top-level folder name inside the archive; it
    defaults to the basename of ``root``.  The tar stream goes straight
    into the gzip writer, one member at a time.
    """
    files = list(_list_files(root))
    if not files:
        raise PublicationError(f"artifact folder {root} is empty; nothing to bundle")
    prefix = prefix or os.path.basename(os.path.normpath(root))
    directory = os.path.dirname(archive_path)
    if directory:
        os.makedirs(directory, exist_ok=True)

    # gzip with mtime=0 and no embedded filename for byte-stable output.
    with open(archive_path, "wb") as out:
        with gzip.GzipFile(
            filename="", fileobj=out, mode="wb", mtime=0
        ) as gz:
            with tarfile.open(fileobj=gz, mode="w") as tar:
                for relative, path in files:
                    info = tarfile.TarInfo(name=f"{prefix}/{relative}")
                    info.size = os.path.getsize(path)
                    info.mtime = _EPOCH
                    info.uid = info.gid = 0
                    info.uname = info.gname = "pos"
                    info.mode = 0o644
                    with open(path, "rb") as handle:
                        tar.addfile(info, handle)
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
