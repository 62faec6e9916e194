"""Tests for bundling, website generation, and the publish step."""

from __future__ import annotations

import os
import tarfile

import pytest

from repro.core import yamlite
from repro.core.errors import PublicationError
from repro.publication.bundle import (
    build_manifest,
    bundle_artifacts,
    verify_bundle,
)
from repro.publication.publish import publish
from repro.publication.website import (
    generate_html,
    generate_readme,
    generate_website,
)


@pytest.fixture
def artifact_tree(tmp_path):
    """A miniature experiment result folder."""
    root = tmp_path / "2020-10-12_11-20-32_230471"
    root.mkdir()
    yamlite.dump_file(
        {
            "name": "router-exp",
            "description": "demo experiment",
            "user": "alice",
            "runs_completed": 2,
            "runs_failed": 0,
            "roles": [
                {"role": "dut", "node": "tartu", "image": ["debian-buster", "v1"]}
            ],
        },
        root / "experiment.yml",
    )
    yamlite.dump_file({"loop": {"pkt_sz": [64, 1500]}}, root / "variables.yml")
    run_dir = root / "run-000" / "loadgen"
    run_dir.mkdir(parents=True)
    (run_dir / "moongen.log").write_text("[Device: id=0] TX: 0.1 Mpps "
                                         "(total 1 packets with 64 bytes payload)\n")
    figures = root / "figures"
    figures.mkdir()
    (figures / "throughput.svg").write_text("<svg/>")
    return root


class TestManifest:
    def test_lists_every_file(self, artifact_tree):
        manifest = build_manifest(str(artifact_tree))
        paths = {entry["path"] for entry in manifest}
        assert "experiment.yml" in paths
        assert "run-000/loadgen/moongen.log" in paths
        assert "figures/throughput.svg" in paths

    def test_digests_are_correct(self, artifact_tree):
        import hashlib

        manifest = build_manifest(str(artifact_tree))
        entry = next(e for e in manifest if e["path"] == "figures/throughput.svg")
        expected = hashlib.sha256(b"<svg/>").hexdigest()
        assert entry["sha256"] == expected
        assert entry["size"] == 6

    def test_missing_folder_rejected(self):
        with pytest.raises(PublicationError, match="no such"):
            build_manifest("/nonexistent/folder")


class TestBundle:
    def test_archive_contains_everything(self, artifact_tree, tmp_path):
        archive = str(tmp_path / "release.tar.gz")
        bundle_artifacts(str(artifact_tree), archive)
        with tarfile.open(archive) as tar:
            names = tar.getnames()
        assert any(name.endswith("experiment.yml") for name in names)
        assert any("run-000" in name for name in names)

    def test_bundle_is_deterministic(self, artifact_tree, tmp_path):
        """Byte-identical archives for identical artifacts — releases
        can be compared by checksum."""
        a = str(tmp_path / "a.tar.gz")
        b = str(tmp_path / "b.tar.gz")
        bundle_artifacts(str(artifact_tree), a)
        bundle_artifacts(str(artifact_tree), b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_verify_round_trip(self, artifact_tree, tmp_path):
        archive = str(tmp_path / "release.tar.gz")
        bundle_artifacts(str(artifact_tree), archive)
        assert verify_bundle(archive, str(artifact_tree))

    def test_verify_detects_tampering(self, artifact_tree, tmp_path):
        archive = str(tmp_path / "release.tar.gz")
        bundle_artifacts(str(artifact_tree), archive)
        (artifact_tree / "figures" / "throughput.svg").write_text("<svg>changed</svg>")
        assert not verify_bundle(archive, str(artifact_tree))

    def test_empty_folder_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(PublicationError, match="empty"):
            bundle_artifacts(str(empty), str(tmp_path / "x.tar.gz"))


class TestWebsite:
    def test_readme_lists_artifacts_and_metadata(self, artifact_tree):
        readme = generate_readme(str(artifact_tree), "https://example.org/repo")
        assert "# Experiment artifacts: router-exp" in readme
        assert "demo experiment" in readme
        assert "https://example.org/repo" in readme
        assert "run-000/loadgen/moongen.log" in readme
        assert "![throughput.svg](figures/throughput.svg)" in readme

    def test_readme_shows_variables(self, artifact_tree):
        readme = generate_readme(str(artifact_tree))
        assert "pkt_sz" in readme

    def test_html_is_escaped_and_linked(self, artifact_tree):
        html = generate_html(str(artifact_tree), "https://e.org/?a=1&b=2")
        assert "a=1&amp;b=2" in html
        assert '<a href="figures/throughput.svg">' in html

    def test_generate_website_writes_both(self, artifact_tree):
        files = generate_website(str(artifact_tree))
        assert sorted(os.path.basename(f) for f in files) == [
            "README.md", "index.html",
        ]
        for path in files:
            assert os.path.getsize(path) > 0

    def test_missing_folder_rejected(self):
        with pytest.raises(PublicationError):
            generate_readme("/no/such/folder")


class TestPublish:
    def test_full_publication(self, artifact_tree):
        report = publish(str(artifact_tree), repository_url="https://e.org/r",
                         make_plots=False)
        assert os.path.isfile(report.manifest_path)
        assert os.path.isfile(report.archive_path)
        assert len(report.website_files) == 2
        manifest = yamlite.load_file(report.manifest_path)
        assert manifest["files"]

    def test_publish_with_plots_from_real_run(self, tmp_path):
        from repro.casestudy import run_case_study

        handle = run_case_study(
            "pos", str(tmp_path), rates=[1_000_000], sizes=(64,),
            duration_s=0.02, interval_s=0.01,
        )
        report = publish(handle.result_path)
        assert report.figures  # throughput + latency figures generated
        assert verify_bundle(report.archive_path, handle.result_path)
        # A real run carries telemetry, so the dashboard page joins the
        # website and the index links to it.
        assert sorted(os.path.basename(f) for f in report.website_files) == [
            "README.md", "dashboard.html", "index.html",
        ]
        with open(os.path.join(handle.result_path, "dashboard.html")) as f:
            dashboard = f.read()
        assert "Per-run provenance" in dashboard
        assert "<svg" in dashboard  # inline, self-contained charts
        assert "Node health" in dashboard
        with open(os.path.join(handle.result_path, "index.html")) as f:
            assert "dashboard.html" in f.read()

    def test_republish_is_byte_identical(self, tmp_path):
        from repro.casestudy import run_case_study
        from repro.publication.publish import PUBLICATION_OUTPUTS

        handle = run_case_study(
            "pos", str(tmp_path), rates=[1_000_000], sizes=(64,),
            duration_s=0.02, interval_s=0.01,
        )
        root = handle.result_path

        def publish_and_read():
            report = publish(root)
            paths = [os.path.join(root, name) for name in PUBLICATION_OUTPUTS]
            files = {}
            for path in paths + [report.archive_path]:
                with open(path, "rb") as stream:
                    files[os.path.basename(path)] = stream.read()
            return files

        first = publish_and_read()
        assert publish_and_read() == first
        assert verify_bundle(root + ".tar.gz", root)
        # No output is hashed into the manifest, and neither index page
        # lists itself or the other one.
        manifest = yamlite.load_file(os.path.join(root, "MANIFEST.yml"))
        listed = {entry["path"] for entry in manifest["files"]}
        assert listed.isdisjoint(PUBLICATION_OUTPUTS)
        assert "[README.md](README.md)" not in first["README.md"].decode()
        assert "[index.html](index.html)" not in first["README.md"].decode()
        assert '<a href="README.md">' not in first["index.html"].decode()

    def test_dashboard_omitted_without_telemetry(self, artifact_tree):
        from repro.publication.website import generate_dashboard

        # The miniature tree has no journal: no dashboard, no error.
        assert generate_dashboard(str(artifact_tree)) is None

    def test_archive_path_default_next_to_folder(self, artifact_tree):
        report = publish(str(artifact_tree), make_plots=False)
        assert report.archive_path == str(artifact_tree) + ".tar.gz"
