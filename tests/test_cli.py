"""Command-line behavior: files in, files out, exit codes, config layering."""

import hashlib
import json
import os
import random
import shutil
import stat
import subprocess
import sys
import threading

import pytest

import discforge
from conftest import make_discussion, make_example, make_utterance
from discforge import ingest, storage
from discforge.cli import build_parser, main
from discforge.evaluate import paired_bootstrap
from discforge.records import Candidate

FULL_SHA = "ab12cd34e56f78901a2b3c4d5e6f78901a2b3c4d"
TOML4J = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "toml4j")


def jsonl(path):
    return [json.loads(ln) for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]


@pytest.fixture
def corpus(tmp_path):
    """A small on-disk corpus: two discussions, two examples, candidates."""
    d1 = make_discussion(
        disc_id="demo/proj#1",
        number=1,
        title="Crash on empty input",
        created_at="2014-05-01T10:00:00Z",
        utterances=[make_utterance(0, "2014-05-01T10:00:00Z", "first report body")],
    )
    d2 = make_discussion(
        disc_id="demo/proj#2",
        number=2,
        title="Parser bug",
        created_at="2014-05-03T10:00:00Z",
        utterances=[make_utterance(0, "2014-05-03T10:00:00Z", "second body")],
    )
    e1 = make_example(
        ex_id="e1",
        buggy=("bug",),
        fixed=("fix", ";"),
        method=("m",),
        oracle=("remove", "newlines"),
        discussion_ids=("demo/proj#1", "demo/proj#2"),
    )
    e2 = make_example(
        ex_id="e2",
        buggy=("bad", "code"),
        fixed=("good", "code"),
        method=("n",),
        discussion_ids=("demo/proj#1",),
    )
    paths = {
        "dataset": tmp_path / "dataset.jsonl",
        "discussions": tmp_path / "discussions.jsonl",
        "cand_a": tmp_path / "cand_a.jsonl",
        "cand_b": tmp_path / "cand_b.jsonl",
        "dir": tmp_path,
    }
    storage.save_dataset(paths["dataset"], [e1, e2])
    storage.save_discussions(paths["discussions"], [d1, d2])
    storage.save_candidates(
        paths["cand_a"],
        [Candidate("e1", ("fix", ";"), "a"), Candidate("e2", ("nope",), "a")],
    )
    storage.save_candidates(
        paths["cand_b"],
        [Candidate("e1", ("fix", ";"), "b"), Candidate("e2", ("good", "code"), "b")],
    )
    return paths


class TestTokenize:
    def test_code_mode(self, tmp_path):
        """A leading byte-order mark ("utf-8-sig") is not part of the first line."""
        for encoding in ("utf-8", "utf-8-sig"):
            src = tmp_path / "in.txt"
            src.write_text("sb.append(table);\nplain text\n", encoding=encoding)
            out = tmp_path / "out.jsonl"
            assert main(["tokenize", "--mode", "code", "--in", str(src), "--out", str(out)]) == 0
            assert jsonl(out) == [
                ["sb", ".", "append", "(", "table", ")", ";"],
                ["plain", "text"],
            ], encoding

    def test_subtoken_mode(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("emptyImplicitTable\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["tokenize", "--mode", "subtoken", "--in", str(src), "--out", str(out)]) == 0
        assert jsonl(out) == [["empty", "Implicit", "Table"]]

    def test_missing_input_exits_2_and_creates_no_output(self, tmp_path):
        out = tmp_path / "out.jsonl"
        missing = tmp_path / "absent.txt"
        assert main(["tokenize", "--mode", "code", "--in", str(missing), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("existing", [None, b'["an", "earlier", "output"]\n'])
    def test_undecodable_input_exits_2(self, tmp_path, capsys, existing):
        """The input streams into --out's replacement, so a decode error leaves --out as it was."""
        src = tmp_path / "in.txt"
        src.write_bytes(b"fine line\n" * 10000 + b"\xff\n")
        out = tmp_path / "out.jsonl"
        if existing is not None:
            out.write_bytes(existing)
        run_log = tmp_path / "runs.jsonl"
        code = main([
            "tokenize", "--mode", "subtoken", "--in", str(src), "--out", str(out),
            "--run-log", str(run_log),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--in {src}: 'utf-8' codec can't decode byte 0xff" in err
        assert jsonl(run_log)[0]["exit_code"] == 2
        assert (out.read_bytes() if out.exists() else None) == existing
        assert not list(tmp_path.glob("*.tmp"))

    def test_run_log_counts_lines_only(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("a\nb\n", encoding="utf-8")
        run_log = tmp_path / "runs.jsonl"
        assert main([
            "tokenize", "--mode", "code", "--in", str(src), "--out", str(tmp_path / "out.jsonl"),
            "--run-log", str(run_log),
        ]) == 0
        (entry,) = jsonl(run_log)
        assert entry["lines"] == 2 and "failures" not in entry


class TestMine:
    def _write_archive(self, tmp_path):
        pdir = tmp_path / "arc" / "demo__proj"
        pdir.mkdir(parents=True)
        good = {
            "number": 18,
            "title": "Trailing newlines in errors",
            "body": "Messages contain trailing newlines",
            "user": {"login": "alice"},
            "created_at": "2014-05-01T10:00:00Z",
            "comments": [],
        }
        bad = dict(good, number=19, title="")
        (pdir / "18.json").write_text(json.dumps(good), encoding="utf-8")
        (pdir / "19.json").write_text(json.dumps(bad), encoding="utf-8")
        projects = tmp_path / "projects.txt"
        projects.write_text("demo/proj\n", encoding="utf-8")
        commits = tmp_path / "commits.json"
        commits.write_text(
            json.dumps({"demo/proj": [{"sha": FULL_SHA, "message": "fixes #18", "timestamp": "2014-05-10T12:00:00Z"}]}),
            encoding="utf-8",
        )
        return projects, commits

    def test_archive_mine_and_fail_threshold(self, tmp_path, capsys):
        projects, commits = self._write_archive(tmp_path)
        out = tmp_path / "mined"
        argv = [
            "mine", "--projects", str(projects),
            "--since", "2014-05-01T00:00:00Z", "--until", "2014-06-01T00:00:00Z",
            "--archive", str(tmp_path / "arc"), "--commits", str(commits),
            "--out", str(out),
        ]
        # one title-less issue is skipped: above the default threshold of 0
        assert main(argv) == 1
        assert main(argv + ["--fail-threshold", "1"]) == 0
        rows = jsonl(out / "discussions" / "demo__proj.jsonl")
        assert [r["id"] for r in rows] == ["demo/proj#18"]
        assert len(jsonl(out / "links.jsonl")) == 1
        report = json.loads((out / "mine-report.json").read_text())
        assert report["issues_skipped"] == 1
        assert "mined" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "issue_19, reasons",
        [
            ([1, 2], ["expected a JSON object, got list"]),
            ({"comments": ["hi"]}, ["comment 0: expected a JSON object, got str"]),
            ({"timeline": "closed"}, []),
            ({"timeline": ["closed", 7]}, []),
        ],
        ids=["issue-not-an-object", "comment-not-an-object", "timeline-not-a-list", "event-not-an-object"],
    )
    def test_malformed_archived_issue_is_skipped_or_its_timeline_ignored(
        self, tmp_path, capsys, caplog, issue_19, reasons
    ):
        projects, _ = self._write_archive(tmp_path)
        good = json.loads((tmp_path / "arc" / "demo__proj" / "18.json").read_text(encoding="utf-8"))
        if isinstance(issue_19, dict):
            issue_19 = dict(good, number=19, **issue_19)
        (tmp_path / "arc" / "demo__proj" / "19.json").write_text(json.dumps(issue_19), encoding="utf-8")
        out = tmp_path / "mined"
        argv = [
            "mine", "--projects", str(projects),
            "--since", "2014-05-01T00:00:00Z", "--until", "2014-06-01T00:00:00Z",
            "--archive", str(tmp_path / "arc"), "--out", str(out),
        ]
        assert main(argv) == (1 if reasons else 0)
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "mine-report.json").read_text())
        assert [s["reason"] for s in report["skip_reasons"]] == reasons
        assert ("ignoring timeline" in caplog.text) == (not reasons)

    def test_archive_and_token_env_are_exclusive(self, tmp_path, capsys):
        projects, _ = self._write_archive(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([
                "mine", "--projects", str(projects),
                "--since", "2014-05-01T00:00:00Z", "--until", "2014-06-01T00:00:00Z",
                "--archive", str(tmp_path / "arc"), "--token-env", "T",
                "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2

    def test_cursor_flag_is_a_usage_error(self, tmp_path, capsys):
        projects, _ = self._write_archive(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([
                "mine", "--projects", str(projects),
                "--since", "2014-05-01T00:00:00Z", "--until", "2014-06-01T00:00:00Z",
                "--archive", str(tmp_path / "arc"), "--cursor", "x", "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cursor x" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "content, problem",
        [
            ('{"demo/proj": [{"sha": 1,', "invalid JSON"),
            ('\xff{"demo/proj": []}', "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
            ('{"demo/proj": [{"message": "fixes #18"}]}', "project demo/proj: entry 0: field 'sha': missing"),
            (
                json.dumps({"demo/proj": {FULL_SHA: 5}}),
                f"project demo/proj: entry {FULL_SHA}: expected a message string or a JSON object, got 5",
            ),
            (
                json.dumps({"demo/proj": [{"sha": FULL_SHA, "message": ["fixes #18"]}]}),
                "project demo/proj: entry 0: field 'message': expected a string",
            ),
            (
                json.dumps({"demo/proj": [{"sha": FULL_SHA, "message": "fixes #18", "timestamp": "yesterday"}]}),
                "project demo/proj: entry 0: field 'timestamp': unparseable timestamp",
            ),
            # a project the run does not mine is checked too
            (json.dumps({"demo/proj": [], "other/proj": 5}), "project other/proj: expected a list of commits"),
            ("[]", "expected a JSON object keyed by project"),
            (
                json.dumps({"demo/proj": [{"sha": 5, "message": "fixes #18"}]}),
                "project demo/proj: entry 0: field 'sha': expected a non-empty string, got 5",
            ),
        ],
        ids=["invalid-json", "not-utf8", "missing-sha", "mapping-value", "message-type", "bad-timestamp",
             "other-project", "not-an-object", "sha-type"],
    )
    def test_bad_commits_exit_2_before_any_request_or_write(
        self, tmp_path, capsys, monkeypatch, content, problem
    ):
        projects, commits = self._write_archive(tmp_path)
        commits.write_bytes(content.encode("latin-1"))
        requests = []
        monkeypatch.setenv("MINE_TOKEN", "t")
        monkeypatch.setattr(
            ingest, "default_transport", lambda *call: requests.append(call) or (200, {}, [])
        )
        out = tmp_path / "o"
        code = main([
            "mine", "--projects", str(projects),
            "--since", "2014-05-01T00:00:00Z", "--until", "2014-06-01T00:00:00Z",
            "--token-env", "MINE_TOKEN", "--commits", str(commits), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --commits {commits}: ") and problem in err
        assert "Traceback" not in err
        assert requests == [] and not out.exists()

    def _fails_before_any_request_or_write(self, tmp_path, capsys, monkeypatch, source, *flags, listing=None):
        """Run mine from `source` with `flags` last; check it exits 2 with one error line, requesting
        nothing and changing no file under tmp_path, --out included. Returns that line."""
        projects, _ = self._write_archive(tmp_path)
        if listing is not None:
            projects.write_text(listing, encoding="utf-8")
        requests = []
        monkeypatch.setenv("MINE_TOKEN", "t")
        monkeypatch.setattr(
            ingest, "default_transport", lambda *call: requests.append(call) or (200, {}, [])
        )
        flag = ["--archive", str(tmp_path / "arc")] if source == "archive" else ["--token-env", "MINE_TOKEN"]
        before = tree(tmp_path)
        code = main([
            "mine", "--projects", str(projects), "--since", "2014-05-01T00:00:00Z",
            "--until", "2014-06-01T00:00:00Z", *flag, "--out", str(tmp_path / "o"), *flags,
        ])
        assert (code, requests, tree(tmp_path)) == (2, [], before)
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "name", ["proj", "demo/proj/extra", "\ufeffdemo/other", "d\u00e9mo/proj", "demo/pr oj"],
        ids=["no-owner", "extra-part", "bom-inside-the-file", "non-ascii", "space"],
    )
    @pytest.mark.parametrize("source", ["archive", "tracker"])
    def test_bad_project_name_exits_2_before_any_request_or_write(self, tmp_path, capsys, monkeypatch, source, name):
        """A name must be owner/name made of the characters GitHub allows."""
        err = self._fails_before_any_request_or_write(
            tmp_path, capsys, monkeypatch, source, listing=f"demo/proj\n{name}\n"
        )
        assert err == f"error: project must look like owner/name, got {name!r}\n"

    def test_projects_file_starting_with_a_byte_order_mark_mines_the_same_bytes(self, tmp_path, capsys):
        projects, commits = self._write_archive(tmp_path)
        for out, listing in (("plain", "demo/proj\n"), ("bom", "\ufeffdemo/proj\n")):
            projects.write_text(listing, encoding="utf-8")
            assert main([
                "mine", "--projects", str(projects), "--since", "2014-05-01T00:00:00Z",
                "--until", "2014-06-01T00:00:00Z", "--archive", str(tmp_path / "arc"),
                "--commits", str(commits), "--fail-threshold", "1", "--out", str(tmp_path / out),
            ]) == 0
        assert capsys.readouterr().out == "mined 2 issues from 1 projects (1 skipped, 1 links)\n" * 2
        assert tree(tmp_path / "bom") == tree(tmp_path / "plain")
        assert [p.name for p in (tmp_path / "bom" / "discussions").iterdir()] == ["demo__proj.jsonl"]

    @pytest.mark.parametrize(
        "listing, message",
        [("demo/proj\n  demo/proj\n", "'demo/proj' and 'demo/proj' both write discussions/demo__proj.jsonl"),
         ("demo__x/proj\ndemo/x__proj\n",
          "'demo__x/proj' and 'demo/x__proj' both write discussions/demo__x__proj.jsonl")],
        ids=["same-name-twice", "shared-discussions-file"],
    )
    @pytest.mark.parametrize("source", ["archive", "tracker"])
    def test_projects_sharing_a_discussions_file_exit_2_before_any_request_or_write(
        self, tmp_path, capsys, monkeypatch, source, listing, message
    ):
        err = self._fails_before_any_request_or_write(tmp_path, capsys, monkeypatch, source, listing=listing)
        assert err == f"error: projects {message}\n"

    @pytest.mark.parametrize(
        "source, flags, message",
        [
            ("archive", ["--since", "nope"], "unparseable timestamp: 'nope'"),
            ("tracker", ["--since", "2015-01-01T00:00:00Z", "--until", "2014-01-01T00:00:00Z"],
             "empty window: since=2015-01-01T00:00:00Z until=2014-01-01T00:00:00Z"),
            ("tracker", ["--token-env", "UNSET_VAR"], "--token-env names 'UNSET_VAR' but that variable is unset"),
        ],
        ids=["bad-since", "empty-window", "unset-token"],
    )
    def test_bad_window_or_unset_token_exits_2_before_any_request_or_write(
        self, tmp_path, capsys, monkeypatch, source, flags, message
    ):
        monkeypatch.delenv("UNSET_VAR", raising=False)
        err = self._fails_before_any_request_or_write(tmp_path, capsys, monkeypatch, source, *flags)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("given_by", ["flag", "config"])
    def test_negative_fail_threshold_exits_2_before_any_request_or_write(
        self, tmp_path, capsys, monkeypatch, given_by
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fail_threshold": -1}), encoding="utf-8")
        flags = ["--fail-threshold", "-1"] if given_by == "flag" else ["--config", str(cfg)]
        err = self._fails_before_any_request_or_write(tmp_path, capsys, monkeypatch, "archive", *flags)
        assert err == "error: --fail-threshold must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "listing, want",
        [("  # a note\ndemo/proj\n\t#demo/other\n", 0), ("# nothing yet\n\n   \n", None)],
        ids=["comments", "no-project"],
    )
    def test_projects_file_skips_comment_lines(self, tmp_path, capsys, listing, want):
        projects, _ = self._write_archive(tmp_path)
        projects.write_text(listing, encoding="utf-8")
        code = main([
            "mine", "--projects", str(projects), "--fail-threshold", "1",
            "--since", "2014-05-01T00:00:00Z", "--until", "2014-06-01T00:00:00Z",
            "--archive", str(tmp_path / "arc"), "--out", str(tmp_path / "o"),
        ])
        out, err = capsys.readouterr()
        if want is None:
            assert (code, err) == (2, f"error: --projects {projects}: no projects listed\n")
        else:
            assert (code, out) == (0, "mined 2 issues from 1 projects (1 skipped, 0 links)\n")

    def test_commits_mapping_of_messages_links(self, tmp_path):
        projects, commits = self._write_archive(tmp_path)
        commits.write_text(json.dumps({"demo/proj": {FULL_SHA: "fixes #18"}}), encoding="utf-8")
        out = tmp_path / "mined"
        assert main([
            "mine", "--projects", str(projects),
            "--since", "2014-05-01T00:00:00Z", "--until", "2014-06-01T00:00:00Z",
            "--archive", str(tmp_path / "arc"), "--commits", str(commits),
            "--out", str(out), "--fail-threshold", "1",
        ]) == 0
        (link,) = jsonl(out / "links.jsonl")
        # no commit timestamp: the link takes the issue's creation time
        assert link["issue_number"] == 18 and link["linked_at"] == "2014-05-01T10:00:00Z"

    def _mine_online(self, tmp_path, *extra):
        projects, _ = self._write_archive(tmp_path)
        return main([
            "mine", "--projects", str(projects),
            "--since", "2014-05-01T00:00:00Z", "--until", "2014-06-01T00:00:00Z",
            "--out", str(tmp_path / "o"), "--run-log", str(tmp_path / "runs.jsonl"), *extra,
        ])

    @pytest.mark.parametrize(
        "respond, problem",
        [
            (lambda: (404, {}, None), "returned 404"),
            (lambda: (500, {}, None), "kept returning 500"),
            (lambda: 1 / 0, "transport kept failing"),
            (lambda: (200, {}, {"message": "Not Found"}), "page 1: expected a JSON list, got dict"),
        ],
        ids=["404", "persistent-500", "raising-transport", "not-a-list"],
    )
    def test_tracker_failure_exits_2_with_run_log(
        self, tmp_path, capsys, monkeypatch, respond, problem
    ):
        monkeypatch.setenv("MINE_TOKEN", "t")
        monkeypatch.setattr(ingest, "default_transport", lambda *call: respond())
        monkeypatch.setitem(ingest.mine_projects.__kwdefaults__, "sleep", lambda s: None)
        assert self._mine_online(tmp_path, "--token-env", "MINE_TOKEN") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and problem in err and "Traceback" not in err
        (entry,) = jsonl(tmp_path / "runs.jsonl")
        assert entry["exit_code"] == 2 and problem in entry["error"]

    @pytest.mark.parametrize("key", ["archive", "token_env"])
    def test_config_satisfies_archive_or_token_env(self, tmp_path, monkeypatch, key):
        requests = []
        monkeypatch.setenv("MINE_TOKEN", "t")
        monkeypatch.setattr(
            ingest, "default_transport", lambda *call: requests.append(call) or (200, {}, [])
        )
        cfg = tmp_path / "cfg.json"
        value = str(tmp_path / "arc") if key == "archive" else "MINE_TOKEN"
        cfg.write_text(json.dumps({key: value, "fail_threshold": 1}), encoding="utf-8")
        assert self._mine_online(tmp_path, "--config", str(cfg)) == 0
        rows = jsonl(tmp_path / "o" / "discussions" / "demo__proj.jsonl")
        if key == "archive":
            assert requests == [] and [r["id"] for r in rows] == ["demo/proj#18"]
        else:
            assert len(requests) == 1 and rows == []

    @pytest.mark.parametrize("key", ["archive", "token_env"])
    def test_explicit_flag_overrides_the_other_config_key(self, tmp_path, monkeypatch, key):
        requests = []
        monkeypatch.setenv("MINE_TOKEN", "t")
        monkeypatch.setattr(
            ingest, "default_transport", lambda *call: requests.append(call) or (200, {}, [])
        )
        cfg = tmp_path / "cfg.json"
        if key == "archive":
            cfg.write_text(json.dumps({"archive": str(tmp_path / "arc")}), encoding="utf-8")
            flag = ["--token-env", "MINE_TOKEN"]
        else:
            cfg.write_text(json.dumps({"token_env": "NO_SUCH_VAR"}), encoding="utf-8")
            flag = ["--archive", str(tmp_path / "arc"), "--fail-threshold", "1"]
        assert self._mine_online(tmp_path, "--config", str(cfg), *flag) == 0
        assert (requests != []) == (key == "archive")

    def test_config_with_both_keys_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"archive": str(tmp_path / "arc"), "token_env": "T"}), encoding="utf-8"
        )
        assert self._mine_online(tmp_path, "--config", str(cfg)) == 2
        assert "exclude each other" in capsys.readouterr().err


class TestLink:
    def test_end_to_end(self, corpus, tmp_path, capsys):
        bare = tmp_path / "bare.jsonl"
        storage.save_dataset(
            bare,
            [
                make_example(ex_id="e1", sha=FULL_SHA, buggy=("bug",), fixed=("fix", ";"), method=("m",)),
                make_example(ex_id="e9", sha="9" * 40, buggy=("q",), fixed=("r",), method=("s",)),
            ],
        )
        links = tmp_path / "links.jsonl"
        links.write_text(
            json.dumps({
                "project": "demo/proj", "issue_number": 1, "commit_sha": FULL_SHA[:10],
                "linked_at": "2014-05-09T00:00:00Z", "link_source": "message_reference",
            }) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "linked.jsonl"
        dropped = tmp_path / "dropped.jsonl"
        code = main([
            "link", "--examples", str(bare), "--links", str(links),
            "--discussions", str(corpus["discussions"]),
            "--out", str(out), "--dropped", str(dropped),
        ])
        assert code == 0
        linked = jsonl(out)
        assert len(linked) == 1 and linked[0]["discussion_ids"] == ["demo/proj#1"]
        assert [r["id"] for r in jsonl(dropped)] == ["e9"]
        assert "1 had no discussion" in capsys.readouterr().out

    def test_string_discussion_ids_exit_2_and_write_no_output(self, corpus, tmp_path, capsys):
        row = make_example(ex_id="e1").to_dict()
        row["discussion_ids"] = "demo/proj#1"
        examples = tmp_path / "examples.jsonl"
        examples.write_text(json.dumps(row) + "\n", encoding="utf-8")
        (tmp_path / "links.jsonl").write_text("", encoding="utf-8")
        out = tmp_path / "linked.jsonl"
        code = main([
            "link", "--examples", str(examples), "--links", str(tmp_path / "links.jsonl"),
            "--discussions", str(corpus["discussions"]), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{examples}: line 1: field 'discussion_ids': expected a list, got str" in err
        assert not out.exists()

    def test_run_log_digests_every_input_including_a_discussions_directory(self, corpus, tmp_path):
        disc_dir = tmp_path / "discussions"
        disc_dir.mkdir()
        lines = corpus["discussions"].read_text(encoding="utf-8").splitlines(keepends=True)
        (disc_dir / "b.jsonl").write_text(lines[1], encoding="utf-8")
        (disc_dir / "a.jsonl").write_text(lines[0], encoding="utf-8")
        (disc_dir / "notes.txt").write_text("not read", encoding="utf-8")
        links = tmp_path / "links.jsonl"
        links.write_text("", encoding="utf-8")
        run_log = tmp_path / "runs.jsonl"
        argv = [
            "link", "--examples", str(corpus["dataset"]), "--links", str(links),
            "--discussions", str(disc_dir), "--out", str(tmp_path / "linked.jsonl"),
            "--run-log", str(run_log),
        ]
        assert main(argv) == 0
        (disc_dir / "notes.txt").write_text("changed, still not read", encoding="utf-8")
        assert main(argv) == 0
        (disc_dir / "b.jsonl").write_text(lines[1].replace("Parser bug", "Parser bugs"), encoding="utf-8")
        assert main(argv) == 0
        first, second, third = (entry["inputs"] for entry in jsonl(run_log))
        assert list(first) == [str(corpus["dataset"]), str(links), str(disc_dir)]
        listing = [
            [name, hashlib.sha256((disc_dir / name).read_bytes()).hexdigest()]
            for name in ("a.jsonl", "b.jsonl")
        ]
        assert third[str(disc_dir)] == hashlib.sha256(json.dumps(listing).encode()).hexdigest()
        assert first == second
        assert first[str(disc_dir)] != third[str(disc_dir)]

    @pytest.mark.parametrize("command, flag", [("link", "--dropped"), ("context", "--skipped")])
    def test_two_outputs_naming_one_file_exit_2(self, corpus, tmp_path, capsys, command, flag):
        (tmp_path / "links.jsonl").write_text("", encoding="utf-8")
        out = tmp_path / "same.jsonl"
        argv = {
            "link": ["link", "--examples", str(corpus["dataset"]), "--links", str(tmp_path / "links.jsonl"),
                     "--discussions", str(corpus["discussions"])],
            "context": ["context", "--dataset", str(corpus["dataset"]), "--repr", "title",
                        "--discussions", str(corpus["discussions"])],
        }[command]
        assert main([*argv, "--out", str(out), flag, str(tmp_path / "." / "same.jsonl")]) == 2
        assert f"name the same file: {tmp_path / '.' / 'same.jsonl'}" in capsys.readouterr().err
        assert not out.exists()


class TestContext:
    def test_whole_discussion(self, corpus, tmp_path):
        out = tmp_path / "ctx.jsonl"
        code = main([
            "context", "--dataset", str(corpus["dataset"]),
            "--repr", "whole_discussion", "--discussions", str(corpus["discussions"]),
            "--out", str(out),
        ])
        assert code == 0
        rows = jsonl(out)
        assert [r["example_id"] for r in rows] == ["e1", "e2"]
        assert rows[1]["input_tokens"][:4] == ["bad", "code", "<s>", "n"]
        assert all(r["repr"] == "whole_discussion" for r in rows)

    def test_skipped_sidecar(self, corpus, tmp_path):
        out = tmp_path / "ctx.jsonl"
        skipped = tmp_path / "skipped.jsonl"
        code = main([
            "context", "--dataset", str(corpus["dataset"]),
            "--repr", "oracle_msg", "--discussions", str(corpus["discussions"]),
            "--out", str(out), "--skipped", str(skipped),
        ])
        assert code == 0
        assert [r["example_id"] for r in jsonl(out)] == ["e1"]
        skips = jsonl(skipped)
        assert skips[0]["example_id"] == "e2" and "oracle" in skips[0]["reason"]

    def test_summary_line_and_run_log(self, corpus, tmp_path, capsys):
        run_log = tmp_path / "runs.jsonl"
        assert main([
            "context", "--dataset", str(corpus["dataset"]),
            "--repr", "oracle_msg", "--discussions", str(corpus["discussions"]),
            "--out", str(tmp_path / "ctx.jsonl"), "--run-log", str(run_log),
        ]) == 0
        assert capsys.readouterr().out == "built 1 oracle_msg contexts (1 skipped)\n"
        (entry,) = jsonl(run_log)
        assert (entry["built"], entry["skipped"]) == (1, 1) and "failures" not in entry

    def test_limit_flag(self, corpus, tmp_path):
        out = tmp_path / "ctx.jsonl"
        main([
            "context", "--dataset", str(corpus["dataset"]),
            "--repr", "whole_discussion", "--discussions", str(corpus["discussions"]),
            "--limit", "4", "--out", str(out),
        ])
        assert all(len(r["input_tokens"]) <= 4 for r in jsonl(out))

    def test_missing_aux_is_config_error(self, corpus, tmp_path, capsys):
        code = main([
            "context", "--dataset", str(corpus["dataset"]),
            "--repr", "soln_desc", "--discussions", str(corpus["discussions"]),
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert "descriptions" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "repr_, needs", [("soln_desc", "solution descriptions"), ("attended_segments", "attention traces")]
    )
    @pytest.mark.parametrize("discussions", ["present", "absent"])
    def test_missing_aux_exits_2_before_any_input_or_output(
        self, corpus, tmp_path, capsys, repr_, needs, discussions
    ):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")
        out, skipped = tmp_path / "ctx.jsonl", tmp_path / "skipped.jsonl"
        path = corpus["discussions"] if discussions == "present" else tmp_path / "absent.jsonl"
        assert main([
            "context", "--dataset", str(dataset), "--repr", repr_, "--discussions", str(path),
            "--out", str(out), "--skipped", str(skipped),
        ]) == 2
        assert capsys.readouterr().err == f"error: this representation needs {needs}; none were provided\n"
        assert not out.exists() and not skipped.exists()

    @pytest.mark.parametrize(
        "weight, problem",
        [
            (None, "float() argument must be a string or a real number, not 'NoneType'"),
            ("abc", "could not convert string to float: 'abc'"),
            pytest.param(10**400, "int too large to convert to float", id="int-too-large-for-a-double"),
        ],
    )
    def test_bad_trace_weight_exits_2_naming_file_field_and_row(
        self, corpus, tmp_path, capsys, weight, problem
    ):
        with open(os.path.join(TOML4J, "trace.json"), encoding="utf-8") as f:
            trace = json.load(f)
        trace["weights"][1][3] = weight
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace), encoding="utf-8")
        run_log = tmp_path / "runs.jsonl"
        code = main([
            "context", "--dataset", str(corpus["dataset"]),
            "--repr", "attended_segments", "--discussions", str(corpus["discussions"]),
            "--traces", str(path), "--out", str(tmp_path / "x.jsonl"),
            "--run-log", str(run_log),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: field 'weights': row 1 is not a list of numbers: {problem}\n"
        assert jsonl(run_log)[0]["exit_code"] == 2

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
    def test_out_of_range_timestamp_exits_2_naming_line_and_field(
        self, corpus, tmp_path, capsys, stamp
    ):
        rows = jsonl(corpus["discussions"])
        rows[1]["created_at"] = stamp
        discussions = tmp_path / "bad.jsonl"
        storage.write_jsonl(discussions, rows)
        code = main([
            "context", "--dataset", str(corpus["dataset"]),
            "--repr", "whole_discussion", "--discussions", str(discussions),
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert "line 2: field 'created_at'" in capsys.readouterr().err

    def test_unknown_repr_rejected_by_parser(self, corpus, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "context", "--dataset", str(corpus["dataset"]),
                "--repr", "everything", "--discussions", str(corpus["discussions"]),
                "--out", str(tmp_path / "x.jsonl"),
            ])
        assert exc.value.code == 2


def entries(root):
    """Each entry of root: a link's text, or a file's bytes and inode."""
    return {p.name: ("link", os.readlink(p)) if p.is_symlink() else ("file", p.read_bytes(), p.stat().st_ino)
            for p in sorted(root.iterdir())}


class TestReplacedOutputs:
    """An --out reached through symlinks is replaced whole, as a plain file is; a special file is written in place."""

    N = 12  # examples in the input, each of which gives one row of --out
    KINDS = ("file", "link", "chain", "dangling", "missing")
    EARLIER = b'{"an": "earlier output"}\n'

    @pytest.fixture
    def inputs(self, corpus, tmp_path):
        """link's and context's argv without --out, over N examples that all link; and the examples file."""
        examples = tmp_path / "examples.jsonl"
        storage.save_dataset(examples, [make_example(ex_id=f"e{i}", discussion_ids=("demo/proj#1",))
                                        for i in range(self.N)])
        (tmp_path / "links.jsonl").write_text("", encoding="utf-8")
        argv = {
            "link": ["link", "--examples", str(examples), "--links", str(tmp_path / "links.jsonl"),
                     "--discussions", str(corpus["discussions"])],
            "context": ["context", "--dataset", str(examples), "--repr", "whole_discussion",
                        "--discussions", str(corpus["discussions"])],
        }
        return argv, examples

    def make_target(self, root, kind):
        """root/out.jsonl as `kind`; returns it and the file it names. A file that exists holds EARLIER."""
        root.mkdir()
        out = root / "out.jsonl"
        real = out if kind in ("file", "missing") else root / "real.jsonl"
        if kind in ("file", "link", "chain"):
            real.write_bytes(self.EARLIER)
        if kind in ("link", "dangling"):
            out.symlink_to(real.name)
        if kind == "chain":
            (root / "hop.jsonl").symlink_to(real.name)
            out.symlink_to("hop.jsonl")
        return out, real

    @pytest.mark.parametrize("command", ["link", "context"])
    def test_every_target_kind_is_replaced_whole_or_left_as_it_was(self, inputs, tmp_path, capsys, command):
        argv, examples = inputs
        good = examples.read_bytes()
        assert main([*argv[command], "--out", str(tmp_path / "want.jsonl")]) == 0
        want = (tmp_path / "want.jsonl").read_bytes()
        assert want.count(b"\n") == self.N
        # The last line, and three more at random, each holding a record that does not parse.
        for bad_line in (self.N, *random.Random(command).sample(range(1, self.N), 3)):
            lines = good.splitlines(keepends=True)
            lines[bad_line - 1] = b'{"id": "broken"\n'
            for kind in self.KINDS:
                for fails in (False, True):
                    examples.write_bytes(b"".join(lines) if fails else good)
                    root = tmp_path / f"{bad_line}-{kind}-{fails}"
                    out, real = self.make_target(root, kind)
                    before = entries(root)
                    code = main([*argv[command], "--out", str(out)])
                    err = capsys.readouterr().err
                    case = (bad_line, kind, fails)
                    assert not list(root.glob("*.tmp")), case
                    if fails:
                        assert code == 2 and f"{examples}: line {bad_line}: invalid JSON" in err, case
                        assert entries(root) == before, case
                        continue
                    assert code == 0, case
                    after = entries(root)
                    assert real.read_bytes() == want, case
                    # Links keep their text; the file they name is a new one, not the earlier one rewritten.
                    assert {k: v for k, v in after.items() if v[0] == "link"} == {
                        k: v for k, v in before.items() if v[0] == "link"}, case
                    assert before.get(real.name, (None, None, None))[2] != after[real.name][2], case

    def test_out_naming_the_examples_through_a_link_replaces_them(self, inputs, tmp_path, capsys):
        argv, examples = inputs
        assert main([*argv["link"], "--out", str(tmp_path / "want.jsonl")]) == 0
        alias = tmp_path / "alias.jsonl"
        alias.symlink_to(examples.name)
        assert main([*argv["link"], "--out", str(alias)]) == 0
        assert capsys.readouterr().out.endswith(f"linked {self.N} examples; 0 had no discussion\n")
        assert alias.is_symlink() and os.readlink(alias) == examples.name
        assert examples.read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_fifo_is_written_in_place(self, inputs, tmp_path):
        argv, _ = inputs
        assert main([*argv["context"], "--out", str(tmp_path / "want.jsonl")]) == 0
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main([*argv["context"], "--out", str(fifo)]) == 0
        reader.join(timeout=60)
        assert read == [(tmp_path / "want.jsonl").read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("out", ["/dev/stdout", "/dev/fd/1"])
    @pytest.mark.parametrize("stdout", ["pipe", "truncated file", "appended file", "unlinked file"])
    def test_open_descriptor_is_written_in_place(self, inputs, tmp_path, out, stdout):
        """Through fd 1, whatever it is, the rows follow what it held and precede the summary; nothing is created."""
        argv, _ = inputs
        assert main([*argv["context"], "--out", str(tmp_path / "want.jsonl")]) == 0
        want = (tmp_path / "want.jsonl").read_bytes() + f"built {self.N} whole_discussion contexts (0 skipped)\n".encode()
        src = os.path.dirname(os.path.dirname(os.path.abspath(discforge.__file__)))
        root = tmp_path / "run"
        root.mkdir()
        held = root / "stdout.jsonl"
        held.write_bytes(self.EARLIER)
        earlier = self.EARLIER if stdout in ("appended file", "unlinked file") else b""
        with open(held, "w+b" if stdout == "truncated file" else "a+b") as f:  # as `>` or `>>` opens it
            if stdout == "unlinked file":
                held.unlink()
            run = subprocess.run(
                [sys.executable, "-m", "discforge", *argv["context"], "--out", out],
                env={**os.environ, "PYTHONPATH": src}, cwd=root, check=True, timeout=60,
                stdout=subprocess.PIPE if stdout == "pipe" else f, stderr=subprocess.PIPE,
            )
            f.seek(0)
            got = run.stdout if stdout == "pipe" else f.read()
        assert got == earlier + want
        assert sorted(os.listdir(root)) == ([] if stdout == "unlinked file" else ["stdout.jsonl"])


class TestSegments:
    def test_rows(self, corpus, tmp_path):
        out = tmp_path / "segs.jsonl"
        assert main([
            "segments", "--dataset", str(corpus["dataset"]),
            "--discussions", str(corpus["discussions"]), "--out", str(out),
        ]) == 0
        rows = jsonl(out)
        # e1: two discussions (title+utterance each) = 4; e2: 2
        assert len(rows) == 6
        assert {r["kind"] for r in rows} == {"title", "utterance"}
        assert rows[0]["input_tokens"][:2] == ["bug", "<s>"]


    @pytest.mark.parametrize("command", ["segments", "context"])
    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_1_exits_2_before_any_input_or_output(self, tmp_path, capsys, command, limit):
        out = tmp_path / "out.jsonl"
        argv = [command, "--dataset", str(tmp_path / "absent.jsonl"),
                "--discussions", str(tmp_path / "absent-d.jsonl"), "--limit", limit, "--out", str(out)]
        if command == "context":
            argv += ["--repr", "title"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: field 'token_limit': token_limit must be >= 1, got {limit}\n"
        assert not out.exists()


class TestEval:
    def test_report_and_stdout(self, corpus, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "eval", "--refs", str(corpus["dataset"]),
            "--candidates", str(corpus["cand_a"]), "--repr", "title",
            "--out", str(out),
        ])
        assert code == 0
        assert "exact match: 50.0%" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["exact_match_rate"] == 50.0
        assert report["representation"] == "title"
        assert str(corpus["dataset"]) in report["inputs"]
        assert len(report["inputs"]) == 2

    def test_raw_strings_flag(self, corpus, tmp_path, capsys):
        loose = tmp_path / "loose.jsonl"
        storage.save_candidates(loose, [Candidate("e1", ("fix ;",), "a")])
        main([
            "eval", "--refs", str(corpus["dataset"]),
            "--candidates", str(loose), "--raw-strings",
        ])
        assert "50.0%" in capsys.readouterr().out


class TestCompare:
    def test_deterministic_and_swapped(self, corpus, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        argv = [
            "compare", "--refs", str(corpus["dataset"]),
            "--a", str(corpus["cand_a"]), "--b", str(corpus["cand_b"]),
            "--samples", "200", "--size", "100", "--seed", "5",
            "--out", str(out),
        ]
        assert main(argv) == 0
        first = json.loads(out.read_text())
        # cand_b matches both examples, cand_a only one: the CLI swaps
        assert first["swapped"] is True
        assert first["a"].endswith("cand_b.jsonl")
        assert "swapped" in capsys.readouterr().out
        assert main(argv) == 0
        assert json.loads(out.read_text())["p_value"] == first["p_value"]

    def test_rates_agree_with_eval_at_23_of_80(self, tmp_path):
        # 100 * 23 / 80 is 28.75 and rounds to 28.8; 100 * (23 / 80) falls just below it, to 28.7.
        examples = [make_example(ex_id=f"e{i}", fixed=("v", str(i), ";")) for i in range(80)]
        refs = tmp_path / "refs.jsonl"
        storage.save_dataset(refs, examples)
        for name, hits in (("a", 23), ("b", 9)):
            storage.save_candidates(tmp_path / f"{name}.jsonl", [
                Candidate(ex.id, ex.fixed_tokens if i < hits else ("x",), name) for i, ex in enumerate(examples)
            ])
        assert main(["eval", "--refs", str(refs), "--candidates", str(tmp_path / "a.jsonl"),
                     "--out", str(tmp_path / "eval.json")]) == 0
        assert main(["compare", "--refs", str(refs), "--a", str(tmp_path / "a.jsonl"), "--b", str(tmp_path / "b.jsonl"),
                     "--samples", "10", "--size", "10", "--out", str(tmp_path / "cmp.json")]) == 0
        rate = json.loads((tmp_path / "eval.json").read_text())["exact_match_rate"]
        assert rate == 28.8
        assert json.loads((tmp_path / "cmp.json").read_text())["rate_a"] == rate
        outcomes = [i < 23 for i in range(80)]
        assert paired_bootstrap(outcomes, [False] * 80, n_samples=10, sample_size=10).rate_a == rate

    def test_shared_only(self, corpus, tmp_path):
        partial = tmp_path / "partial.jsonl"
        storage.save_candidates(partial, [Candidate("e1", ("fix", ";"), "p")])
        out = tmp_path / "cmp.json"
        assert main([
            "compare", "--refs", str(corpus["dataset"]),
            "--a", str(corpus["cand_a"]), "--b", str(partial),
            "--samples", "50", "--size", "50", "--shared-only",
            "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["n"] == 1

    def test_shared_only_with_no_shared_example_exits_2(self, corpus, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        storage.save_candidates(other, [Candidate("e9", ("fix", ";"), "p")])
        assert main([
            "compare", "--refs", str(corpus["dataset"]), "--a", str(corpus["cand_a"]), "--b", str(other),
            "--shared-only", "--out", str(tmp_path / "cmp.json"),
        ]) == 2
        assert capsys.readouterr().err == "error: --shared-only left no examples to compare\n"
        assert not (tmp_path / "cmp.json").exists()

    @pytest.mark.parametrize(
        "flag, value, field, minimum",
        [("--samples", "0", "n_samples", 1), ("--size", "0", "sample_size", 1), ("--seed", "-1", "seed", 0)],
    )
    def test_bad_bootstrap_value_exits_2_before_any_input_or_output(
        self, tmp_path, capsys, flag, value, field, minimum
    ):
        out = tmp_path / "cmp.json"
        assert main([
            "compare", "--refs", str(tmp_path / "absent.jsonl"), "--a", str(tmp_path / "absent-a.jsonl"),
            "--b", str(tmp_path / "absent-b.jsonl"), flag, value, "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"error: field '{field}': {field} must be >= {minimum}, got {value}\n"
        assert not out.exists()

    def test_jobs_accepted_without_effect(self, corpus, tmp_path):
        config = tmp_path / "jobs.json"
        config.write_text(json.dumps({"jobs": 2}), encoding="utf-8")
        base = [
            "compare", "--refs", str(corpus["dataset"]),
            "--a", str(corpus["cand_a"]), "--b", str(corpus["cand_b"]),
            "--samples", "300", "--size", "100", "--seed", "5",
        ]
        outputs = []
        for name, extra in [
            ("j1", ["--jobs", "1"]), ("j4", ["--jobs", "4"]), ("cfg", ["--config", str(config)]),
        ]:
            out = tmp_path / f"cmp-{name}.json"
            assert main(base + extra + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]
        # The report fingerprints the config file too; the rest is the same.
        plain, with_config = json.loads(outputs[0]), json.loads(outputs[2])
        config_digest = hashlib.sha256(config.read_bytes()).hexdigest()
        assert with_config.pop("inputs") == {str(config): config_digest, **plain.pop("inputs")}
        assert with_config == plain


class TestOracleEval:
    def test_directory_of_sources(self, corpus, tmp_path, capsys):
        cdir = tmp_path / "cands"
        cdir.mkdir()
        (cdir / "a.jsonl").write_text(
            corpus["cand_a"].read_text(encoding="utf-8"), encoding="utf-8"
        )
        (cdir / "b.jsonl").write_text(
            corpus["cand_b"].read_text(encoding="utf-8"), encoding="utf-8"
        )
        out = tmp_path / "oracle.json"
        assert main([
            "oracle-eval", "--refs", str(corpus["dataset"]),
            "--candidates", str(cdir), "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["sources"] == {"a": 50.0, "b": 100.0}
        assert report["best_exact_match_rate"] == 100.0
        assert list(report["inputs"]) == [str(corpus["dataset"]), str(cdir)]
        assert "best exact match: 100.0%" in capsys.readouterr().out

    def test_a_single_file_is_a_one_source_set(self, corpus, tmp_path):
        out = tmp_path / "oracle.json"
        assert main([
            "oracle-eval", "--refs", str(corpus["dataset"]),
            "--candidates", str(corpus["cand_a"]), "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["sources"] == {"cand_a": 50.0}
        assert report["best_exact_match_rate"] == 50.0

    def test_a_directory_without_jsonl_files_exits_2(self, corpus, tmp_path, capsys):
        cdir = tmp_path / "cands"
        cdir.mkdir()
        (cdir / "a.json").write_bytes(corpus["cand_a"].read_bytes())
        assert main(["oracle-eval", "--refs", str(corpus["dataset"]), "--candidates", str(cdir)]) == 2
        assert capsys.readouterr().err == f"error: {cdir}: no .jsonl files\n"


class TestStats:
    def test_stdout_and_report(self, corpus, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main([
            "stats", "--dataset", str(corpus["dataset"]),
            "--discussions", str(corpus["discussions"]), "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["overall"]["num_examples"] == 2
        assert report["overall"]["avg_discussions_per_example"] == 1.5
        assert "2 examples" in capsys.readouterr().out


class TestConfigAndRunLog:
    def test_config_supplies_defaults_flags_win(self, corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"limit": 4, "repr": "whole_discussion"}), encoding="utf-8")
        out = tmp_path / "ctx.jsonl"
        main([
            "context", "--config", str(cfg),
            "--dataset", str(corpus["dataset"]),
            "--discussions", str(corpus["discussions"]),
            "--out", str(out),
        ])
        assert all(len(r["input_tokens"]) <= 4 for r in jsonl(out))
        main([
            "context", "--config", str(cfg),
            "--dataset", str(corpus["dataset"]),
            "--discussions", str(corpus["discussions"]),
            "--limit", "9",
            "--out", str(out),
        ])
        lengths = [len(r["input_tokens"]) for r in jsonl(out)]
        assert max(lengths) > 4 and max(lengths) <= 9

    def test_config_spelled_with_equals_is_read(self, corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"repr": "from-config"}), encoding="utf-8")
        out = tmp_path / "r.json"
        assert main([
            "eval", f"--config={cfg}", "--refs", str(corpus["dataset"]),
            "--candidates", str(corpus["cand_a"]), "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["representation"] == "from-config"

    def test_config_that_is_not_an_object_is_config_error(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]", encoding="utf-8")
        assert main(["stats", "--config", str(cfg), "--dataset", str(corpus["dataset"]),
                     "--discussions", str(corpus["discussions"])]) == 2
        assert capsys.readouterr().err == f"error: --config {cfg}: expected a JSON object\n"

    def test_config_unknown_key_is_config_error(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}), encoding="utf-8")
        code = main([
            "context", "--config", str(cfg),
            "--dataset", str(corpus["dataset"]),
            "--repr", "title",
            "--discussions", str(corpus["discussions"]),
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert "no_such_flag" in capsys.readouterr().err
        cfg.write_text(json.dumps({"cursor": "state.json"}), encoding="utf-8")
        out = tmp_path / "mined"
        code = main([
            "mine", "--config", str(cfg), "--projects", str(tmp_path / "projects.txt"),
            "--since", "2014-05-01T00:00:00Z", "--until", "2014-06-01T00:00:00Z",
            "--archive", str(tmp_path / "arc"), "--out", str(out),
        ])
        assert code == 2
        assert "unknown key 'cursor'" in capsys.readouterr().err
        assert not out.exists()
        # -v/--verbose is gone: nothing in the package logs at DEBUG.
        cfg.write_text(json.dumps({"verbose": True}), encoding="utf-8")
        assert main(["context", "--config", str(cfg), "--dataset", str(corpus["dataset"]), "--repr", "title",
                     "--discussions", str(corpus["discussions"]), "--out", str(tmp_path / "x.jsonl")]) == 2
        assert "unknown key 'verbose'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, problem",
        [
            ("tokenize", {"mode": "bogus"}, "key 'mode': invalid choice: 'bogus' (choose from "),
            ("compare", {"samples": True}, "key 'samples': expected a string or an integer, got true"),
            ("compare", {"samples": 2.5}, "key 'samples': expected a string or an integer, got 2.5"),
            ("compare", {"samples": "2.5"}, "key 'samples': invalid int value: '2.5'"),
            ("context", {"limit": True}, "key 'limit': expected a string or an integer, got true"),
            ("compare", {"shared_only": 1}, "key 'shared_only': expected true or false, got 1"),
        ],
        ids=["bad-choice", "bool-for-int", "float-for-int", "str-not-int", "bool-limit", "int-for-switch"],
    )
    def test_config_value_is_checked_as_its_flag(self, corpus, tmp_path, capsys, command, config, problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out.json"
        d = str(corpus["dataset"])
        argv = {
            "tokenize": ["--in", d],
            "compare": ["--refs", d, "--a", str(corpus["cand_a"]), "--b", str(corpus["cand_b"])],
            "context": ["--dataset", d, "--repr", "title", "--discussions", str(corpus["discussions"])],
        }[command]
        assert main([command, "--config", str(cfg), *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config {cfg}: {problem}") and err.count("\n") == 1
        assert not out.exists()

    def test_config_string_value_is_converted_by_its_flag_type(self, corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"limit": "4", "repr": "whole_discussion"}), encoding="utf-8")
        out = tmp_path / "ctx.jsonl"
        assert main([
            "context", "--config", str(cfg), "--dataset", str(corpus["dataset"]),
            "--discussions", str(corpus["discussions"]), "--out", str(out),
        ]) == 0
        lengths = [len(r["input_tokens"]) for r in jsonl(out)]
        assert lengths and max(lengths) == 4

    def test_run_log_appends_machine_readable_lines(self, corpus, tmp_path):
        run_log = tmp_path / "runs.jsonl"
        for _ in range(2):
            main([
                "eval", "--refs", str(corpus["dataset"]),
                "--candidates", str(corpus["cand_a"]),
                "--run-log", str(run_log),
            ])
        entries = jsonl(run_log)
        assert len(entries) == 2
        assert entries[0]["command"] == "eval"
        assert entries[0]["exit_code"] == 0
        assert entries[0]["exact_match_rate"] == 50.0

    @pytest.mark.parametrize("flag", ["--conf", "--confi"])
    def test_abbreviated_config_flag_exits_2(self, corpus, tmp_path, capsys, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"limit": 5}), encoding="utf-8")
        out = tmp_path / "ctx.jsonl"
        code = main([
            "context", flag, str(cfg), "--dataset", str(corpus["dataset"]),
            "--repr", "whole_discussion", "--discussions", str(corpus["discussions"]),
            "--out", str(out),
        ])
        assert code == 2
        assert "spell it out" in capsys.readouterr().err
        assert not out.exists()

    def test_fail_threshold_belongs_to_mine_only(self, corpus, tmp_path, capsys):
        d, ds, cands = str(corpus["dataset"]), str(corpus["discussions"]), tmp_path / "cands"
        cands.mkdir()
        (cands / "a.jsonl").write_bytes(corpus["cand_a"].read_bytes())
        text = tmp_path / "in.txt"
        text.write_text("x\n", encoding="utf-8")
        argvs = {
            "link": ["--examples", d, "--links", str(tmp_path / "links.jsonl"), "--discussions", ds,
                     "--out", str(tmp_path / "l.jsonl")],
            "tokenize": ["--mode", "code", "--in", str(text), "--out", str(tmp_path / "t.jsonl")],
            "context": ["--dataset", d, "--repr", "title", "--discussions", ds, "--out", str(tmp_path / "c.jsonl")],
            "segments": ["--dataset", d, "--discussions", ds, "--out", str(tmp_path / "s.jsonl")],
            "eval": ["--refs", d, "--candidates", str(corpus["cand_a"])],
            "compare": ["--refs", d, "--a", str(corpus["cand_b"]), "--b", str(corpus["cand_a"]),
                        "--samples", "10", "--size", "10"],
            "oracle-eval": ["--refs", d, "--candidates", str(cands)],
            "stats": ["--dataset", d, "--discussions", ds],
        }
        (tmp_path / "links.jsonl").write_text("", encoding="utf-8")
        _, sub_by_name = build_parser()
        assert set(argvs) == set(sub_by_name) - {"mine"}
        assert "--fail-threshold" in sub_by_name["mine"].format_help()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fail_threshold": 1}), encoding="utf-8")
        for command, argv in argvs.items():
            assert "--fail-threshold" not in sub_by_name[command].format_help()
            assert main([command, *argv]) == 0
            with pytest.raises(SystemExit) as exc:
                main([command, *argv, "--fail-threshold", "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --fail-threshold" in capsys.readouterr().err
            assert main([command, *argv, "--config", str(cfg)]) == 2
            assert "unknown key 'fail_threshold'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--refs", "--candidates", "--discussions", "--desc", "--traces", "--projects", "--archive", "--config"]
    )
    def test_undecodable_input_exits_2_naming_the_file(self, corpus, tmp_path, capsys, flag):
        d, ds, cand = str(corpus["dataset"]), str(corpus["discussions"]), str(corpus["cand_a"])
        bad_dir = tmp_path / "bad"
        bad = bad_dir / "demo__proj" / "1.json" if flag == "--archive" else bad_dir / "x.jsonl"
        bad.parent.mkdir(parents=True)
        # The bad byte follows valid lines, where the input has lines.
        valid = {
            "--refs": corpus["dataset"].read_bytes(),
            "--candidates": corpus["cand_a"].read_bytes(),
            "--discussions": corpus["discussions"].read_bytes(),
            "--projects": b"demo/proj\n",
        }
        bad.write_bytes(valid.get(flag, b"") + b"\xff\n")
        projects = tmp_path / "projects.txt"
        projects.write_text("demo/proj\n", encoding="utf-8")
        mine = ["mine", "--since", "2014-05-01T00:00:00Z", "--until", "2014-06-01T00:00:00Z",
                "--out", str(tmp_path / "o")]
        argv = {
            "--refs": ["eval", "--refs", str(bad), "--candidates", cand],
            "--candidates": ["eval", "--refs", d, "--candidates", str(bad)],
            "--discussions": ["segments", "--dataset", d, "--discussions", str(bad_dir),
                              "--out", str(tmp_path / "s.jsonl")],
            "--desc": ["stats", "--dataset", d, "--discussions", ds, "--desc", str(bad)],
            "--traces": ["context", "--dataset", d, "--repr", "attended_segments", "--discussions", ds,
                         "--traces", str(bad), "--out", str(tmp_path / "c.jsonl")],
            "--projects": [*mine, "--projects", str(bad), "--archive", str(tmp_path)],
            "--archive": [*mine, "--projects", str(projects), "--archive", str(bad_dir)],
            "--config": ["eval", "--config", str(bad), "--refs", d, "--candidates", cand],
        }[flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'utf-8' codec can't decode byte 0xff" in err
        assert "Traceback" not in err

    def test_jsonl_record_error_names_the_file(self, corpus, tmp_path, capsys):
        bad = tmp_path / "cands" / "b.jsonl"
        bad.parent.mkdir()
        bad.write_text(json.dumps({"example_id": "e1", "candidate_tokens": ["x"]}) + "\n", encoding="utf-8")
        assert main(["eval", "--refs", str(corpus["dataset"]), "--candidates", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: line 1: field 'source': missing\n"

    def test_jsonl_error_in_a_discussions_directory_names_the_bad_file(self, corpus, tmp_path, capsys):
        disc_dir = tmp_path / "discussions"
        disc_dir.mkdir()
        rows = jsonl(corpus["discussions"])
        storage.write_jsonl(disc_dir / "a.jsonl", rows[:1])
        del rows[1]["title"]
        storage.write_jsonl(disc_dir / "b.jsonl", [dict(rows[0], id="x/y#1"), rows[1]])
        (tmp_path / "links.jsonl").write_text("", encoding="utf-8")
        out = tmp_path / "linked.jsonl"
        assert main([
            "link", "--examples", str(corpus["dataset"]), "--links", str(tmp_path / "links.jsonl"),
            "--discussions", str(disc_dir), "--out", str(out),
        ]) == 2
        bad = disc_dir / "b.jsonl"
        assert capsys.readouterr().err == f"error: {bad}: line 2: field 'title': missing\n"
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main([
            "eval", "--refs", str(tmp_path / "nope.jsonl"),
            "--candidates", str(tmp_path / "nope2.jsonl"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestParser:
    # Each subcommand's option strings in order; "!" marks a required flag.
    SURFACE = {
        "mine": "-h/--help --config --out! --projects! --commits --run-log --since! --until! "
                "--archive --token-env --fail-threshold",
        "link": "-h/--help --config --out! --examples! --links! --discussions! --dropped --run-log",
        "tokenize": "-h/--help --config --out! --in! --run-log --mode!",
        "context": "-h/--help --config --out! --dataset! --discussions! --desc --traces --skipped --run-log "
                   "--repr! --limit",
        "segments": "-h/--help --config --out! --dataset! --discussions! --run-log --limit",
        "eval": "-h/--help --config --out --refs! --candidates! --run-log --repr --raw-strings",
        "compare": "-h/--help --config --out --refs! --a! --b! --run-log "
                   "--samples --size --seed --jobs --shared-only",
        "oracle-eval": "-h/--help --config --out --refs! --candidates! --run-log",
        "stats": "-h/--help --config --out --dataset! --discussions! --desc --run-log",
    }

    def test_each_subcommands_flags_and_which_are_required(self):
        _, sub_by_name = build_parser()
        assert list(sub_by_name) == list(self.SURFACE)
        surface = {
            name: " ".join("/".join(a.option_strings) + "!" * a.required for a in sp._actions)
            for name, sp in sub_by_name.items()
        }
        assert surface == self.SURFACE
        groups = {name: [(g.required, [a.dest for a in g._group_actions]) for g in sp._mutually_exclusive_groups]
                  for name, sp in sub_by_name.items()}
        assert groups == {name: [(True, ["archive", "token_env"])] if name == "mine" else [] for name in self.SURFACE}
        # --out is optional for exactly the report commands.
        assert {name for name, flags in surface.items() if "--out!" not in flags.split()} == {
            "eval", "compare", "oracle-eval", "stats"}


def expected_digest(path):
    """storage.digest by its definition: a file's sha256, or a directory's listing of its JSON files."""
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix in (".json", ".jsonl"))
        listing = [[p.name, expected_digest(p)] for p in files]
        return hashlib.sha256(json.dumps(listing).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _probe(cwd, argvs, modules=("hashlib", "_hashlib")):
    """Run each argv through main in a fresh interpreter. Return the exit codes, which of `modules`
    are loaded after the runs, and every module the runs loaded after `import discforge.cli`."""
    probe = (
        "import json, sys; from discforge.cli import main; before = set(sys.modules); "
        f"exits = [main(argv) for argv in {argvs!r}]; "
        f"print(json.dumps([exits, sorted(set({modules!r}) & set(sys.modules)), sorted(set(sys.modules) - before)]))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(discforge.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, cwd=cwd,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture
def toml4j(tmp_path, monkeypatch):
    """The toml4j fixture mined and linked in a fresh working directory, with a traces directory."""
    shutil.copytree(TOML4J, tmp_path / "in")
    (tmp_path / "in" / "traces").mkdir()
    shutil.move(tmp_path / "in" / "trace.json", tmp_path / "in" / "traces" / "trace.json")
    (tmp_path / "in" / "traces" / "notes.txt").write_text("not a trace", encoding="utf-8")
    (tmp_path / "in" / "cands").mkdir()
    for name in ("buggy", "fixed"):
        shutil.move(tmp_path / "in" / f"candidate_{name}.jsonl", tmp_path / "in" / "cands" / f"{name}.jsonl")
    (tmp_path / "in" / "projects.txt").write_text("mwanji/toml4j\n", encoding="utf-8")
    (tmp_path / "cfg.json").write_text("{}", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main([*MINE_TOML4J, "--out", "mined"]) == 0
    assert main([*LINK_TOML4J, "--out", "linked.jsonl"]) == 0
    return tmp_path


MINE_TOML4J = [
    "mine", "--projects", "in/projects.txt", "--commits", "in/commits.json",
    "--since", "2014-01-01T00:00:00Z", "--until", "2015-01-01T00:00:00Z", "--archive", "in/archive",
]
LINK_TOML4J = ["link", "--examples", "in/examples.jsonl", "--links", "mined/links.jsonl",
               "--discussions", "mined/discussions"]
DATASET = ["--dataset", "linked.jsonl", "--discussions", "mined/discussions"]


class TestFingerprints:
    # Each command with every input flag it takes; link, context and segments
    # write their --out over an input, which is fingerprinted as it was before the run.
    RUNS = {
        "mine": [*MINE_TOML4J, "--out", "mined2"],
        "link": [*LINK_TOML4J, "--out", "in/examples.jsonl"],
        "tokenize": ["tokenize", "--in", "in/archive/mwanji__toml4j/18.json", "--mode", "code",
                     "--out", "tokens.jsonl"],
        "context": ["context", *DATASET, "--desc", "in/descriptions.jsonl", "--traces", "in/traces",
                    "--repr", "attended_segments", "--out", "linked.jsonl"],
        "segments": ["segments", *DATASET, "--out", "linked.jsonl"],
        "eval": ["eval", "--refs", "linked.jsonl", "--candidates", "in/cands/fixed.jsonl", "--out", "r.json"],
        "compare": ["compare", "--refs", "linked.jsonl", "--a", "in/cands/buggy.jsonl",
                    "--b", "in/cands/fixed.jsonl", "--samples", "10", "--size", "10", "--out", "r.json"],
        "oracle-eval": ["oracle-eval", "--refs", "linked.jsonl", "--candidates", "in/cands", "--out", "r.json"],
        "stats": ["stats", *DATASET, "--desc", "in/descriptions.jsonl", "--out", "r.json"],
    }
    INPUT_FLAGS = {"--config", "--projects", "--commits", "--examples", "--links", "--discussions", "--in",
                   "--dataset", "--desc", "--traces", "--refs", "--candidates", "--a", "--b"}

    def test_runs_cover_every_command(self):
        _, sub_by_name = build_parser()
        assert set(self.RUNS) == set(sub_by_name)

    @pytest.mark.parametrize("command", list(RUNS))
    def test_run_log_and_report_carry_each_input_digest_from_before_the_run(self, toml4j, command):
        argv = ["--config", "cfg.json", *self.RUNS[command][1:]]
        paths = [value for flag, value in zip(argv, argv[1:]) if flag in self.INPUT_FLAGS]
        want = {p: expected_digest(toml4j / p) for p in paths}
        assert main([command, *argv, "--run-log", "runs.jsonl"]) == 0
        (entry,) = jsonl(toml4j / "runs.jsonl")
        assert list(entry["inputs"].items()) == list(want.items())
        if "r.json" in argv:
            assert json.loads((toml4j / "r.json").read_text(encoding="utf-8"))["inputs"] == want

    def test_a_traces_directory_digest_covers_its_json_files(self, toml4j):
        argv = ["context", *DATASET, "--traces", "in/traces", "--repr", "attended_segments",
                "--out", "ctx.jsonl", "--run-log", "runs.jsonl"]
        assert main(argv) == 0
        (toml4j / "in" / "traces" / "notes.txt").write_text("changed, still not a trace", encoding="utf-8")
        assert main(argv) == 0
        trace = toml4j / "in" / "traces" / "trace.json"
        trace.write_text(trace.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        assert main(argv) == 0
        first, second, third = (entry["inputs"]["in/traces"] for entry in jsonl(toml4j / "runs.jsonl"))
        assert first == second != third
        listing = [["trace.json", hashlib.sha256(trace.read_bytes()).hexdigest()]]
        assert third == hashlib.sha256(json.dumps(listing).encode()).hexdigest()

    def test_commands_without_run_log_leave_hashlib_unloaded(self, toml4j):
        """link, context and segments take no digest unless a run-log carries it: the runs load neither
        hashlib nor a SHA-256 module. (Python 3.12's random, which cli imports, loads _sha2 itself.)"""
        argvs = [
            [*LINK_TOML4J, "--out", "l.jsonl"],
            ["context", *DATASET, "--repr", "whole_discussion", "--out", "c.jsonl"],
            ["segments", *DATASET, "--out", "s.jsonl"],
        ]
        exits, loaded, new = _probe(toml4j, argvs)
        assert (exits, loaded, {"_sha2", "_sha256"} & set(new)) == ([0, 0, 0], [], set())

    def test_no_command_maps_openssl_to_fingerprint_its_inputs(self, toml4j):
        """Every command fingerprints its inputs into its run-log line, and eval and stats into their
        reports too, with CPython's own SHA-256: neither hashlib nor OpenSSL's _hashlib is loaded."""
        argvs = []
        for command, argv in self.RUNS.items():
            argv = list(argv)
            argv[argv.index("--out") + 1] = f"probe-{command}.out"  # no run replaces another's input
            argvs.append([*argv, "--run-log", "probe-runs.jsonl"])
        exits, loaded, _ = _probe(toml4j, argvs)
        assert (exits, loaded) == ([0] * len(argvs), [])
        entries = jsonl(toml4j / "probe-runs.jsonl")
        assert [entry["command"] for entry in entries] == list(self.RUNS)
        for argv, entry in zip(argvs, entries):
            paths = [value for flag, value in zip(argv, argv[1:]) if flag in self.INPUT_FLAGS]
            assert entry["inputs"] == {p: expected_digest(toml4j / p) for p in paths}
            if argv[0] in ("eval", "stats"):
                report = json.loads((toml4j / f"probe-{argv[0]}.out").read_text(encoding="utf-8"))
                assert report["inputs"] == entry["inputs"]

    def test_run_log_argv_is_the_list_main_received(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["host", "--host-flag"])
        argv = ["stats", "--dataset", str(corpus["dataset"]), "--discussions", str(corpus["discussions"]),
                "--run-log", str(tmp_path / "runs.jsonl")]
        assert main(argv) == 0
        assert jsonl(tmp_path / "runs.jsonl")[0]["argv"] == argv


def tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestOutputs:
    """main's output rules: each failure below exits 2 with one error line and writes nothing."""

    # TestFingerprints' runs, each with an --out that does not exist yet.
    RUNS = {c: [*argv[:-1], "fresh.out"] for c, argv in TestFingerprints.RUNS.items()}

    def fails_cleanly(self, root, capsys, argv, message):
        before = tree(root)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert tree(root) == before

    def first_input(self, argv):
        """The index of the first input flag's value: an input file of every command."""
        return next(i for i, flag in enumerate(argv) if flag in TestFingerprints.INPUT_FLAGS) + 1

    @pytest.mark.parametrize("names", ["--out", "an input"])
    @pytest.mark.parametrize("command", [c for c in RUNS if c != "mine"])
    def test_run_log_naming_its_out_or_an_input_exits_2_and_changes_no_file(
        self, toml4j, capsys, command, names
    ):
        argv = self.RUNS[command]
        i = self.first_input(argv)
        flag, path = ("--out", "fresh.out") if names == "--out" else (argv[i - 1], argv[i])
        message = f"{flag} and --run-log name the same file: {path}\n"
        self.fails_cleanly(toml4j, capsys, [*argv, "--run-log", path], message)

    @pytest.mark.parametrize("out", ["mined", "fresh"])
    @pytest.mark.parametrize("name", ["links.jsonl", "mine-report.json", "discussions/mwanji__toml4j.jsonl",
                                      "mine-report.json.tmp", "discussions/mwanji__toml4j.jsonl.tmp"])
    def test_mine_run_log_naming_a_file_mine_writes_exits_2_and_changes_no_file(self, toml4j, capsys, out, name):
        run_log = f"{out}/{name}"
        message = f"--run-log {run_log}: mine writes this file under --out {out}\n"
        self.fails_cleanly(toml4j, capsys, [*MINE_TOML4J, "--out", out, "--run-log", run_log], message)

    # Each case: the files to make beside the fixture, the argv, and the error. Unchecked, each would
    # exit 0 and lose a file: the output's temp file overwrites the other path, then is moved or removed.
    TEMP_CASES = {
        "input": (
            ["t.txt.tmp", "t.txt"], ["tokenize", "--mode", "code", "--in", "t.txt.tmp", "--out", "t.txt"],
            "--in t.txt.tmp is the temp file of --out t.txt",
        ),
        "run-log": (
            ["u.txt"], ["tokenize", "--mode", "code", "--in", "u.txt", "--out", "v.jsonl", "--run-log", "v.jsonl.tmp"],
            "--run-log v.jsonl.tmp is the temp file of --out v.jsonl",
        ),
        "other output": (
            [], ["context", *DATASET, "--repr", "without_nl", "--out", "w.jsonl", "--skipped", "w.jsonl.tmp"],
            "--skipped w.jsonl.tmp is the temp file of --out w.jsonl",
        ),
        "mine input": (
            ["mined/links.jsonl.tmp"],
            [*MINE_TOML4J[:4], "mined/links.jsonl.tmp", *MINE_TOML4J[5:], "--out", "mined"],
            "--commits mined/links.jsonl.tmp: mine writes this file under --out mined",
        ),
    }

    @pytest.mark.parametrize("case", list(TEMP_CASES))
    def test_a_path_that_is_an_outputs_temp_file_exits_2_and_changes_no_file(self, toml4j, capsys, case):
        names, argv, message = self.TEMP_CASES[case]
        for name in names:
            shutil.copy(toml4j / "in" / "commits.json", toml4j / name)
        self.fails_cleanly(toml4j, capsys, argv, message + "\n")

    def test_a_path_that_is_the_temp_file_beside_a_linked_outs_file_exits_2_and_changes_no_file(self, toml4j, capsys):
        """A linked --out's temp file sits beside the file the link names, not beside the link."""
        shutil.copy(toml4j / "linked.jsonl", toml4j / "real.jsonl")
        (toml4j / "w.jsonl").symlink_to("real.jsonl")
        argv = ["context", *DATASET, "--repr", "without_nl", "--out", "w.jsonl", "--skipped", "real.jsonl.tmp"]
        self.fails_cleanly(toml4j, capsys, argv, "--skipped real.jsonl.tmp is the temp file of --out w.jsonl\n")

    # Each case: the argv, and a --run-log that its directory input would read (the input's flag and path).
    RUN_LOG_IN_AN_INPUT = {
        "oracle-eval": (["oracle-eval", "--refs", "linked.jsonl", "--candidates", "in/cands"],
                        "in/cands/runs.jsonl", "--candidates in/cands"),
        "link": ([*LINK_TOML4J, "--out", "fresh.out"], "mined/discussions/runs.jsonl",
                 "--discussions mined/discussions"),
        "context": (["context", *DATASET, "--traces", "in/traces", "--repr", "attended_segments", "--out", "fresh.out"],
                    "in/traces/../traces/runs.json", "--traces in/traces"),
        # mine reads every *.json in a project directory of its archive as an issue
        "mine": ([*MINE_TOML4J, "--out", "fresh"], "in/archive/mwanji__toml4j/runs.json", "--archive in/archive"),
        "mine-archive-root": ([*MINE_TOML4J, "--out", "fresh"], "in/archive/runs.jsonl", "--archive in/archive"),
    }

    @pytest.mark.parametrize("command", list(RUN_LOG_IN_AN_INPUT))
    def test_run_log_in_a_directory_input_exits_2_and_changes_no_file(self, toml4j, capsys, command):
        argv, run_log, given = self.RUN_LOG_IN_AN_INPUT[command]
        message = f"--run-log {run_log}: {given} would read this file\n"
        self.fails_cleanly(toml4j, capsys, [*argv, "--run-log", run_log], message)
        # A file no directory input lists is a run-log like any other.
        assert main([*argv, "--run-log", os.path.splitext(run_log)[0] + ".log"]) == 0

    def test_mine_run_log_elsewhere_under_its_out_gets_the_line(self, toml4j):
        assert main([*MINE_TOML4J, "--out", "mined", "--run-log", "mined/runs.jsonl"]) == 0
        (entry,) = jsonl(toml4j / "mined" / "runs.jsonl")
        assert (entry["command"], entry["exit_code"]) == ("mine", 0)

    # Each case: the --run-log to add (None: make the first input missing instead), and the error.
    SWEEP = {
        "run-log under a missing directory": (
            "no/such/dir/runs.jsonl", "--run-log no/such/dir/runs.jsonl: No such file or directory"
        ),
        "run-log is a directory": ("in", "--run-log in: Is a directory"),
        "missing input": (None, ""),
    }

    @pytest.mark.parametrize("case", list(SWEEP))
    @pytest.mark.parametrize("command", list(RUNS))
    def test_sweep_no_command_but_mine_exits_1(self, toml4j, capsys, command, case):
        """mine exits 1 only for --fail-threshold; every command exits 2 for each of these faults."""
        run_log, message = self.SWEEP[case]
        argv = list(self.RUNS[command])
        if run_log:
            argv += ["--run-log", run_log]
        else:
            argv[self.first_input(argv)] = "absent.jsonl"
        self.fails_cleanly(toml4j, capsys, argv, message)
