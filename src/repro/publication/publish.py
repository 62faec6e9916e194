"""The publication step: plots + website + archive in one call.

Equivalent of the case study's ``publish.py`` (Listing 2): given an
experiment result folder, generate the out-of-the-box figures, the
artifact-index website, a manifest, and the release archive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core import yamlite
from repro.evaluation.loader import load_experiment
from repro.evaluation.plotter import plot_experiment
from repro.publication.bundle import build_manifest, bundle_artifacts
from repro.publication.website import generate_website

__all__ = ["PUBLICATION_OUTPUTS", "PublicationReport", "publish"]

#: Files :func:`publish` writes into the result folder itself.
PUBLICATION_OUTPUTS = ("MANIFEST.yml", "README.md", "index.html", "dashboard.html")


@dataclass
class PublicationReport:
    """What the publication step produced."""

    result_path: str
    figures: List[str] = field(default_factory=list)
    website_files: List[str] = field(default_factory=list)
    manifest_path: str = ""
    archive_path: str = ""

    def describe(self) -> dict:
        return {
            "result_path": self.result_path,
            "figures": list(self.figures),
            "website_files": list(self.website_files),
            "manifest": self.manifest_path,
            "archive": self.archive_path,
        }


def publish(
    result_path: str,
    repository_url: Optional[str] = None,
    archive_path: Optional[str] = None,
    formats: Sequence[str] = ("svg", "tex", "pdf"),
    make_plots: bool = True,
) -> PublicationReport:
    """Prepare an experiment for release.

    Steps, in order (each feeding the next):

    1. generate the figures into ``<result>/figures``,
    2. write the manifest of every artifact file (except these outputs),
    3. generate README.md / index.html listing everything,
    4. bundle the whole folder into a ``tar.gz`` next to it.
    """
    report = PublicationReport(result_path=result_path)
    if make_plots:
        results = load_experiment(result_path)
        report.figures = plot_experiment(results, formats=formats)

    # The publication outputs describe the tree; hashing them into the
    # manifest would change it (and the archive) on every re-publish.
    manifest = [
        entry for entry in build_manifest(result_path)
        if entry["path"] not in PUBLICATION_OUTPUTS
    ]
    report.manifest_path = os.path.join(result_path, "MANIFEST.yml")
    yamlite.dump_file({"files": manifest}, report.manifest_path)

    report.website_files = generate_website(result_path, repository_url)

    if archive_path is None:
        archive_path = result_path.rstrip(os.sep) + ".tar.gz"
    report.archive_path = bundle_artifacts(result_path, archive_path)
    return report
