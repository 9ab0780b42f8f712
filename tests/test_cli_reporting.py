"""CLI and markdown reporting."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments.common import ExperimentResult
from repro.reporting import result_to_markdown, write_report
from repro.utils.ascii_art import ascii_image, side_by_side
from repro.errors import ShapeError


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        for argv in (["datasets"], ["zoo"], ["generate", "mnist"],
                     ["experiment", "table7"], ["report"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_scale_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "galactic", "datasets"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_engine_choices(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "mnist", "--engine",
                                  "campaign", "--workers", "4",
                                  "--shard-size", "8"])
        assert args.engine == "campaign"
        assert args.workers == 4
        assert args.shard_size == 8
        with pytest.raises(SystemExit):
            parser.parse_args(["generate", "mnist", "--engine", "warp"])

    @pytest.mark.parametrize("argv", [
        ["join", "--root", "farm", "127.0.0.1:7001"],
        ["peers", "--root", "farm"]])
    def test_peer_list_commands_are_gone(self, argv):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        assert exited.value.code == 2

    def test_fuzz_and_corpus_registered(self):
        parser = build_parser()
        args = parser.parse_args(["fuzz", "mnist", "--corpus", "/tmp/c",
                                  "--rounds", "3", "--wave-size", "8"])
        assert (args.command, args.rounds, args.wave_size) == ("fuzz", 3, 8)
        with pytest.raises(SystemExit):
            parser.parse_args(["fuzz", "mnist"])   # --corpus is required
        args = parser.parse_args(["corpus", "merge", "dst", "a", "b"])
        assert args.corpus_command == "merge"
        assert args.sources == ["a", "b"]


class TestCliCommands:
    def test_datasets(self, capsys):
        assert main(["--scale", "smoke", "datasets"]) == 0
        out = capsys.readouterr().out
        assert "mnist" in out and "drebin" in out

    def test_generate(self, capsys):
        assert main(["--scale", "smoke", "generate", "mnist",
                     "--seeds", "8"]) == 0
        out = capsys.readouterr().out
        assert "differences found" in out

    @pytest.mark.parametrize("engine", ["batch", "campaign"])
    def test_generate_engines(self, capsys, engine):
        assert main(["--scale", "smoke", "generate", "mnist",
                     "--seeds", "8", "--engine", engine,
                     "--workers", "2", "--shard-size", "4"]) == 0
        out = capsys.readouterr().out
        assert f"engine               : {engine}" in out
        assert "differences found" in out

    @pytest.mark.parametrize("extra", [
        ["--ascent", "deepfool"],
        ["--ascent", "deepfool", "--overshoot", "0.05"],
        ["--ascent", "nesterov", "--beta", "0.8"],
        ["--ascent", "adam"],
        ["--ascent", "adaptive"],
    ])
    def test_generate_rule_library(self, capsys, extra):
        assert main(["--scale", "smoke", "generate", "mnist",
                     "--seeds", "8"] + extra) == 0
        assert "differences found" in capsys.readouterr().out

    def test_unknown_ascent_rule_is_one_line_error(self, capsys):
        """An unknown --ascent name fails before any dataset or model
        loads: exit 1 and a single error line naming the known rules."""
        assert main(["--scale", "smoke", "generate", "mnist",
                     "--ascent", "rmsprop"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "rmsprop" in err and "deepfool" in err

    def test_fuzz_rejects_unknown_ascent_rule(self, tmp_path, capsys):
        assert main(["--scale", "smoke", "fuzz", "mnist", "--corpus",
                     str(tmp_path / "c"), "--ascent", "rmsprop"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rmsprop" in err
        assert not (tmp_path / "c").exists()   # failed before touching disk

    @pytest.mark.parametrize("argv", [
        ["--ascent", "adam", "--beta", "0.5"],
        ["--ascent", "deepfool", "--beta", "0.5"],
        ["--ascent", "vanilla", "--beta", "0.5"],
        ["--ascent", "momentum", "--overshoot", "0.1"],
        ["--ascent", "adam", "--overshoot", "0.1"],
    ])
    def test_rule_specific_flags_rejected_elsewhere(self, capsys, argv):
        """--beta is momentum/nesterov-only and --overshoot is
        deepfool-only; other combinations fail with the rule named."""
        assert main(["--scale", "smoke", "generate", "mnist"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert argv[1] in err                  # names the offending rule

    def test_fuzz_resumes_and_reports(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        argv = ["--scale", "smoke", "fuzz", "mnist", "--corpus", corpus,
                "--wave-size", "6", "--shard-size", "4",
                "--initial-seeds", "8"]
        assert main(argv + ["--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 wave(s)" in out
        # Second invocation continues the same corpus to a higher target.
        assert main(argv + ["--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 round(s) completed" in out
        assert main(["corpus", "info", corpus]) == 0
        assert "entries" in capsys.readouterr().out

    def test_generate_into_corpus_and_resume(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        assert main(["--scale", "smoke", "generate", "mnist", "--seeds",
                     "8", "--corpus", corpus]) == 0
        assert "corpus" in capsys.readouterr().out
        assert main(["--scale", "smoke", "generate", "mnist", "--seeds",
                     "8", "--engine", "batch", "--corpus", corpus,
                     "--resume"]) == 0
        capsys.readouterr()
        assert main(["--scale", "smoke", "generate", "mnist",
                     "--resume"]) == 2   # --resume needs --corpus

    def test_corpus_commands_reject_missing_paths(self, tmp_path, capsys):
        """info/merge-sources/distill are read-only: a typo'd path is a
        clean one-line error, not a fabricated empty store."""
        missing = str(tmp_path / "nope")
        assert main(["corpus", "info", missing]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["corpus", "merge", str(tmp_path / "dest"), missing]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "nope").exists()

    def test_corpus_merge_rejects_mixed_configs_up_front(self, tmp_path,
                                                         capsys):
        """A config mismatch between sources must fail before anything
        is merged, not abort halfway leaving dest partially merged."""
        from repro.corpus import CorpusStore
        a = CorpusStore(tmp_path / "a")
        a.bind_config({"models": ["X"], "threshold": 0.0})
        a.add_entry(np.zeros((3,)), "seed", origin=0)
        b = CorpusStore(tmp_path / "b")
        b.bind_config({"models": ["Y"], "threshold": 0.0})
        b.add_entry(np.ones((3,)), "seed", origin=0)
        assert main(["corpus", "merge", str(tmp_path / "dest"),
                     str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert "different" in capsys.readouterr().err
        assert len(CorpusStore(tmp_path / "dest")) == 0

    def test_corpus_distill_validates_models_before_deleting(self, tmp_path,
                                                             capsys):
        """Distilling against the wrong trio must fail before any test
        input is unlinked — set-cover over the wrong networks would
        delete coverage-essential tests."""
        from repro.corpus import CorpusStore
        corpus = str(tmp_path / "corpus")
        assert main(["--scale", "smoke", "generate", "mnist", "--seeds",
                     "10", "--corpus", corpus]) == 0
        capsys.readouterr()
        tests_before = len(CorpusStore(corpus).entries(kind="test"))
        assert tests_before > 0
        assert main(["--scale", "smoke", "corpus", "distill", corpus,
                     "driving"]) == 1
        assert "error:" in capsys.readouterr().err
        assert len(CorpusStore(corpus).entries(kind="test")) == tests_before

    def test_corpus_distill_prunes_the_committed_scheduler(self, tmp_path,
                                                           capsys):
        """Every distill path prunes the committed fuzz scheduler: a
        resumed session must never schedule an entry that is gone."""
        from repro.corpus import CorpusStore
        corpus = str(tmp_path / "corpus")
        assert main(["--scale", "smoke", "fuzz", "mnist", "--corpus",
                     corpus, "--rounds", "3", "--wave-size", "8",
                     "--initial-seeds", "16"]) == 0
        before = len(CorpusStore(corpus))
        assert main(["--scale", "smoke", "corpus", "distill", corpus,
                     "mnist"]) == 0
        capsys.readouterr()
        store = CorpusStore(corpus)
        assert len(store) < before               # distill dropped tests
        scheduled = {record["hash"] for record
                     in store.fuzz_state()["scheduler"]["entries"]}
        assert scheduled == {entry["hash"] for entry in store.entries()}

    def test_generate_corpus_coverage_is_monotone(self, tmp_path, capsys):
        """Regression: a second generate WITHOUT --resume starts its
        trackers empty; committing them raw used to overwrite (shrink)
        the corpus's accumulated coverage instead of OR-merging."""
        from repro.corpus import CorpusStore
        corpus = str(tmp_path / "corpus")

        def covered_counts():
            states = CorpusStore(corpus).coverage_states()
            return {name: int((s["covered"] & s["tracked"]).sum())
                    for name, s in states.items()}

        assert main(["--scale", "smoke", "generate", "mnist",
                     "--seeds", "12", "--corpus", corpus]) == 0
        before = covered_counts()
        assert main(["--scale", "smoke", "generate", "mnist",
                     "--seeds", "4", "--corpus", corpus]) == 0
        capsys.readouterr()
        after = covered_counts()
        assert all(after[name] >= count for name, count in before.items())

    def test_experiment(self, capsys):
        assert main(["--scale", "smoke", "experiment", "table7"]) == 0
        out = capsys.readouterr().out
        assert "Same class" in out

    def test_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main(["--scale", "smoke", "report", "--output",
                     str(out_file), "--only", "table7"]) == 0
        text = out_file.read_text()
        assert "# EXPERIMENTS" in text
        assert "table7" in text


class TestFarmCli:
    """Farm command error paths: every rejection is exit 1 plus one
    ``error:`` line — no tracebacks across the daemon socket."""

    @pytest.fixture
    def farm_root(self, tmp_path):
        """A live farm server (capacity 1, workers never started, so
        submitted jobs stay queued deterministically)."""
        import threading

        from repro.farm import FarmDaemon, FarmServer

        def no_jobs_should_run(*_):
            raise AssertionError("CLI error-path tests must not run jobs")

        root = str(tmp_path / "root")
        daemon = FarmDaemon(root, capacity=1,
                            model_source=no_jobs_should_run)
        server = FarmServer(daemon)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        yield root
        server.shutdown()
        thread.join()
        server.close()
        daemon.drain(timeout=5)

    @staticmethod
    def one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    def test_submit_without_daemon(self, tmp_path, capsys):
        assert main(["submit", "--root", str(tmp_path / "nowhere"),
                     "--store", "s"]) == 1
        err = self.one_error_line(capsys)
        assert "no farm daemon running" in err
        assert "repro serve" in err            # tells the user the fix

    def test_status_without_daemon(self, tmp_path, capsys):
        assert main(["status", "--root", str(tmp_path / "nowhere")]) == 1
        assert "no farm daemon running" in self.one_error_line(capsys)

    def test_submit_against_locked_store(self, farm_root, capsys):
        """A store held by a live outside process is rejected at submit
        time, before the job ever reaches the queue."""
        import json
        import os

        store = os.path.join(farm_root, "stores", "captive")
        os.makedirs(store)
        with open(os.path.join(store, "LOCK"), "w",
                  encoding="utf-8") as handle:
            json.dump({"pid": 1, "owner": "init"}, handle)
        assert main(["submit", "--root", farm_root,
                     "--store", "captive"]) == 1
        err = self.one_error_line(capsys)
        assert "locked" in err and "pid 1" in err

    def test_submit_saturated_queue_reports_retry_hint(self, farm_root,
                                                       capsys):
        assert main(["submit", "--root", farm_root, "--store", "a"]) == 0
        assert "submitted job-000001" in capsys.readouterr().out
        assert main(["submit", "--root", farm_root, "--store", "b"]) == 1
        err = self.one_error_line(capsys)
        assert "saturated" in err and "retry" in err

    def test_status_unknown_job_id(self, farm_root, capsys):
        assert main(["status", "--root", farm_root, "job-999999"]) == 1
        assert "unknown job id 'job-999999'" in self.one_error_line(capsys)

    def test_status_lists_queued_jobs(self, farm_root, capsys):
        assert main(["status", "--root", farm_root]) == 0
        assert "no jobs" in capsys.readouterr().out
        assert main(["submit", "--root", farm_root, "--store", "a"]) == 0
        capsys.readouterr()
        assert main(["status", "--root", farm_root]) == 0
        out = capsys.readouterr().out
        assert "job-000001" in out and "queued" in out


class TestReporting:
    def test_result_to_markdown(self):
        result = ExperimentResult(
            "tX", "demo", ["a", "b"], rows=[[1, 2.5]],
            series={"s": ([0, 1], [0.5, 0.7])},
            notes=["be careful"], paper_reference="paper says 42")
        md = result_to_markdown(result)
        assert "## tX: demo" in md
        assert "| a | b |" in md
        assert "paper says 42" in md
        assert "> be careful" in md
        assert "```" in md and "o = s" in md  # ascii plot of the series

    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "r.md", scale="smoke",
                            experiment_ids=["table6"])
        text = open(path).read()
        assert "table6" in text
        assert "100%" in text


class TestAsciiArt:
    def test_grayscale(self):
        img = np.zeros((1, 2, 3))
        img[0, 0, :] = 1.0
        art = ascii_image(img)
        lines = art.splitlines()
        assert lines[0] == "@@@"
        assert lines[1] == "   "

    def test_color_luminance(self):
        img = np.ones((3, 2, 2))
        assert ascii_image(img).splitlines()[0] == "@@"

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            ascii_image(np.zeros(5))

    def test_side_by_side(self):
        a = np.zeros((1, 2, 2))
        b = np.ones((1, 2, 2))
        text = side_by_side(a, b, labels=("L", "R"))
        lines = text.splitlines()
        assert lines[0].startswith("L")
        assert "@@" in lines[1]

    def test_side_by_side_height_mismatch(self):
        with pytest.raises(ShapeError):
            side_by_side(np.zeros((1, 2, 2)), np.zeros((1, 3, 2)))

    def test_downsampling(self):
        img = np.random.default_rng(0).random((1, 28, 28))
        art = ascii_image(img, width=14)
        assert max(len(l) for l in art.splitlines()) <= 14
