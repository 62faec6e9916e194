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
    list_files,
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

    def test_streamed_archive_matches_buffered_construction(
        self, artifact_tree, tmp_path,
    ):
        """The streamed archive equals the one ``tarfile`` builds in
        memory from ``sorted(os.walk())``, then gzips, byte for byte:
        same members, order, headers and compression."""
        nested = artifact_tree / "run-001" / "dut" / "deep"
        nested.mkdir(parents=True)
        (nested / "empty.txt").write_bytes(b"")
        (artifact_tree / "run-001" / "big.bin").write_bytes(
            bytes(range(256)) * 300 + b"tail"
        )
        # A retry folder sorts before its sibling's subfolders
        # ("run-000-retry" < "run-000/loadgen").
        retry = artifact_tree / "run-000-retry" / "loadgen"
        retry.mkdir(parents=True)
        (retry / "moongen.log").write_text("retried\n")
        (artifact_tree / "run-000" / "loadgen" / "Prüfung-µs.txt").write_text(
            "non-ascii name\n", encoding="utf-8",
        )
        long_dir = artifact_tree / "run-001" / ("d" * 60)
        long_dir.mkdir()
        (long_dir / ("f" * 60 + ".log")).write_text("pax header\n")
        (artifact_tree / "run-001" / "zero.log").write_bytes(b"")
        streamed = str(tmp_path / "streamed.tar.gz")
        bundle_artifacts(str(artifact_tree), streamed)

        import gzip
        import io

        root = str(artifact_tree)
        prefix = os.path.basename(root)
        buffer = io.BytesIO()
        names = []
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            for directory, __, files in sorted(os.walk(root)):
                for name in sorted(files):
                    path = os.path.join(directory, name)
                    relative = os.path.relpath(path, root)
                    names.append(relative)
                    info = tarfile.TarInfo(name=f"{prefix}/{relative}")
                    info.size = os.path.getsize(path)
                    info.mtime = 1638835200
                    info.uid = info.gid = 0
                    info.uname = info.gname = "pos"
                    info.mode = 0o644
                    with open(path, "rb") as handle:
                        tar.addfile(info, handle)
        buffered = str(tmp_path / "buffered.tar.gz")
        with open(buffered, "wb") as out:
            with gzip.GzipFile(filename="", fileobj=out, mode="wb",
                               mtime=0) as gz:
                gz.write(buffer.getvalue())
        with open(streamed, "rb") as fa, open(buffered, "rb") as fb:
            assert fa.read() == fb.read()
        assert names.index("run-000-retry/loadgen/moongen.log") < names.index(
            "run-000/loadgen/moongen.log"
        )
        assert any(len(f"{prefix}/{name}".encode()) > 100 for name in names)
        assert os.path.getsize(nested / "empty.txt") == 0
        assert os.path.getsize(artifact_tree / "run-001" / "big.bin") > 65536
        with tarfile.open(streamed) as tar:
            assert f"{prefix}/run-000/loadgen/Prüfung-µs.txt" in tar.getnames()

    def test_listing_follows_sorted_walk(self, artifact_tree):
        (artifact_tree / "run-000-retry" / "dut").mkdir(parents=True)
        (artifact_tree / "run-000-retry" / "dut" / "a.log").write_text("a")
        (artifact_tree / "run-000" / "dut").mkdir()
        (artifact_tree / "run-000" / "dut" / "b.log").write_text("bb")
        root = str(artifact_tree)
        walked = [
            os.path.relpath(os.path.join(directory, name), root)
            for directory, __, files in sorted(os.walk(root))
            for name in sorted(files)
        ]
        listing = list_files(root)
        assert [relative for relative, __, __ in listing] == walked
        assert all(
            size == os.path.getsize(path) and path == os.path.join(root, relative)
            for relative, path, size in listing
        )

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


@pytest.fixture(scope="module")
def evaluated_source(tmp_path_factory):
    """A real two-run result tree, never evaluated or published."""
    from repro.casestudy import run_case_study

    handle = run_case_study(
        "pos", str(tmp_path_factory.mktemp("source")),
        rates=[500_000, 1_000_000], sizes=(64,),
        duration_s=0.02, interval_s=0.01,
    )
    return handle.result_path


class TestFigureReuse:
    """``publish`` reuses the figures a plot pass left when its memo
    still matches the tree, and plots again on any mismatch."""

    @pytest.fixture
    def tree(self, evaluated_source, tmp_path):
        import shutil

        root = str(tmp_path / "copy" / os.path.basename(evaluated_source))
        shutil.copytree(evaluated_source, root)
        return root

    @pytest.fixture
    def calls(self, monkeypatch):
        import importlib

        # The package exports the function under the module's name.
        publish_module = importlib.import_module("repro.publication.publish")
        counted = {"load": 0, "plot": 0}
        load, plot = publish_module.load_experiment, publish_module.plot_experiment

        def counting_load(*args, **kwargs):
            counted["load"] += 1
            return load(*args, **kwargs)

        def counting_plot(*args, **kwargs):
            counted["plot"] += 1
            return plot(*args, **kwargs)

        monkeypatch.setattr(publish_module, "load_experiment", counting_load)
        monkeypatch.setattr(publish_module, "plot_experiment", counting_plot)
        return counted

    @staticmethod
    def evaluate(root, formats=("svg", "tex", "pdf")):
        from repro.evaluation.loader import load_experiment
        from repro.evaluation.plotter import plot_experiment

        return plot_experiment(load_experiment(root), formats=formats)

    @staticmethod
    def outputs(root):
        from repro.publication.publish import PUBLICATION_OUTPUTS

        files = {}
        for path in [os.path.join(root, name) for name in PUBLICATION_OUTPUTS] + [
            root + ".tar.gz"
        ]:
            with open(path, "rb") as handle:
                files[os.path.basename(path)] = handle.read()
        return files

    def test_unchanged_evaluate_is_reused(self, tree, calls):
        figures = self.evaluate(tree)
        report = publish(tree)
        assert calls == {"load": 0, "plot": 0}
        assert report.figures == figures

    def test_publish_alone_and_after_evaluate_match(
        self, evaluated_source, tmp_path,
    ):
        import shutil

        name = os.path.basename(evaluated_source)
        alone = str(tmp_path / "alone" / name)
        after = str(tmp_path / "after" / name)
        shutil.copytree(evaluated_source, alone)
        shutil.copytree(evaluated_source, after)
        self.evaluate(after)
        assert publish(alone).figures  # plotted here, memo left behind
        publish(after)
        assert self.outputs(alone) == self.outputs(after)
        # A second publish of either tree reuses and changes nothing.
        first = self.outputs(alone)
        publish(alone)
        assert self.outputs(alone) == first

    def test_memo_is_never_published(self, tree):
        from repro.evaluation.plotter import MEMO_NAME

        self.evaluate(tree)
        publish(tree)
        assert os.path.isfile(os.path.join(tree, "figures", MEMO_NAME))
        assert verify_bundle(tree + ".tar.gz", tree)
        with tarfile.open(tree + ".tar.gz") as tar:
            assert not any(name.endswith(MEMO_NAME) for name in tar.getnames())
        manifest = yamlite.load_file(os.path.join(tree, "MANIFEST.yml"))
        assert not any(e["path"].endswith(MEMO_NAME) for e in manifest["files"])
        for page in ("README.md", "index.html"):
            with open(os.path.join(tree, page), encoding="utf-8") as handle:
                assert MEMO_NAME not in handle.read()

    def _replots(self, tree, calls, **publish_kwargs):
        report = publish(tree, **publish_kwargs)
        assert calls == {"load": 1, "plot": 1}
        return report

    def test_edited_input_replots(self, tree, calls):
        self.evaluate(tree)
        with open(os.path.join(tree, "run-000", "loadgen", "pos.log"), "a") as f:
            f.write("edited\n")
        self._replots(tree, calls)

    def test_added_run_replots(self, tree, calls):
        import shutil

        self.evaluate(tree)
        shutil.copytree(os.path.join(tree, "run-001"),
                        os.path.join(tree, "run-001-retry"))
        self._replots(tree, calls)

    def test_removed_run_replots(self, tree, calls):
        import shutil

        self.evaluate(tree)
        shutil.rmtree(os.path.join(tree, "run-001"))
        self._replots(tree, calls)

    def test_missing_figure_replots(self, tree, calls):
        self.evaluate(tree)
        missing = os.path.join(tree, "figures", "throughput.svg")
        os.remove(missing)
        self._replots(tree, calls)
        assert os.path.isfile(missing)

    def test_edited_figure_replots(self, tree, calls):
        figures = self.evaluate(tree)
        with open(figures[0], "a", encoding="utf-8") as handle:
            handle.write("edited")
        self._replots(tree, calls)

    def test_other_formats_replot(self, tree, calls):
        self.evaluate(tree, formats=("svg",))
        report = self._replots(tree, calls)
        assert {os.path.splitext(path)[1] for path in report.figures} == {
            ".svg", ".tex", ".pdf",
        }

    def test_other_code_replots(self, tree, calls, monkeypatch):
        from repro.evaluation import plotter

        self.evaluate(tree)
        monkeypatch.setattr(plotter, "code_fingerprint", lambda: "0" * 64)
        self._replots(tree, calls)

    def test_unreadable_code_never_matches(self, tree, calls, monkeypatch):
        from repro.evaluation import plotter

        monkeypatch.setattr(plotter, "code_fingerprint", lambda: None)
        self.evaluate(tree)
        self._replots(tree, calls)

    def test_loader_digests_match_the_input_predicate(self, tree):
        import hashlib
        import shutil

        from repro.evaluation.loader import is_evaluation_input, load_experiment

        shutil.copytree(os.path.join(tree, "run-000"),
                        os.path.join(tree, "run-000-retry"))
        self.evaluate(tree)
        results = load_experiment(tree)
        listed = {
            relative: path for relative, path, __ in list_files(tree)
            if is_evaluation_input(relative)
        }
        assert set(results.digests) == set(listed)
        for relative, path in listed.items():
            with open(path, "rb") as handle:
                assert results.digests[relative] == hashlib.sha256(
                    handle.read()
                ).hexdigest()
