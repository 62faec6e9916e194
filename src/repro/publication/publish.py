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
from repro.evaluation.loader import is_evaluation_input, load_experiment
from repro.evaluation.plotter import current_figures, plot_experiment
from repro.publication.bundle import (
    build_manifest,
    bundle_artifacts,
    list_files,
    place_file,
    sha256_file,
)
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

    1. list the tree once; every later step works from that listing,
       and each output below enters it with its size when written,
    2. make the figures in ``<result>/figures``: when the plot memo
       there matches the tree's evaluation inputs, ``formats`` and the
       evaluation code, and every figure it names is unchanged, reuse
       them; otherwise load and plot the experiment (and list again),
    3. write the manifest of every artifact file (except these outputs),
    4. generate README.md / index.html (and dashboard.html) listing
       everything,
    5. bundle the whole folder into a ``tar.gz`` next to it.
    """
    report = PublicationReport(result_path=result_path)
    files = list_files(result_path)
    inputs = {}
    if make_plots:
        inputs = {
            relative: sha256_file(path)
            for relative, path, __ in files if is_evaluation_input(relative)
        }
        figures = current_figures(result_path, inputs, formats)
        if figures is None:
            figures = plot_experiment(load_experiment(result_path), formats=formats)
            files = list_files(result_path)
        report.figures = figures

    # The publication outputs describe the tree; hashing them into the
    # manifest would change it (and the archive) on every re-publish.
    manifest = build_manifest(
        result_path, skip=PUBLICATION_OUTPUTS, files=files, digests=inputs,
    )
    report.manifest_path = os.path.join(result_path, "MANIFEST.yml")
    yamlite.dump_file({"files": manifest}, report.manifest_path)
    place_file(files, result_path, "MANIFEST.yml")

    report.website_files = generate_website(result_path, repository_url, files)

    if archive_path is None:
        archive_path = result_path.rstrip(os.sep) + ".tar.gz"
    report.archive_path = bundle_artifacts(result_path, archive_path, files=files)
    return report
