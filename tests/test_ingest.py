"""Mining: archives, the online transport loop, normalization, link extraction."""

import json
import random

import pytest

from discforge import ingest
from discforge.ingest import (
    MineReport,
    RawIssueArchive,
    extract_commit_links,
    fetch_issues,
    mine_projects,
    normalize_issue,
    project_dirname,
)
from discforge.records import RecordError


def raw_issue(number, created="2014-05-01T10:00:00Z", title=None, body="the body", comments=(), **extra):
    d = {
        "number": number,
        "title": f"Issue {number}" if title is None else title,
        "body": body,
        "user": {"login": "alice"},
        "created_at": created,
        "comments": list(comments),
    }
    d.update(extra)
    return d


def write_archive(root, project, issues):
    pdir = root / project_dirname(project)
    pdir.mkdir(parents=True, exist_ok=True)
    for issue in issues:
        (pdir / f"{issue['number']}.json").write_text(
            json.dumps(issue), encoding="utf-8"
        )


class TestArchive:
    def test_iteration_order(self, tmp_path):
        write_archive(tmp_path, "b/b", [raw_issue(2), raw_issue(10), raw_issue(1)])
        arc = RawIssueArchive(tmp_path)
        numbers = [i["number"] for i in arc.iter_issues("b/b")]
        assert numbers == [1, 2, 10]

    def test_missing_project_yields_nothing(self, tmp_path):
        arc = RawIssueArchive(tmp_path)
        assert list(arc.iter_issues("no/pe")) == []

    def test_bad_root(self, tmp_path):
        with pytest.raises(RecordError, match="archive root"):
            RawIssueArchive(tmp_path / "missing")


class TestFetchIssuesArchive:
    def _fetch(self, tmp_path, issues, since="2014-05-01T00:00:00Z", until="2014-06-01T00:00:00Z"):
        write_archive(tmp_path, "p/q", issues)
        report = MineReport()
        got = list(
            fetch_issues("p/q", since, until, archive=RawIssueArchive(tmp_path), report=report)
        )
        return got, report

    def test_window_is_half_open(self, tmp_path):
        issues = [
            raw_issue(1, created="2014-04-30T23:59:59Z"),
            raw_issue(2, created="2014-05-01T00:00:00Z"),
            raw_issue(3, created="2014-05-31T23:59:59Z"),
            raw_issue(4, created="2014-06-01T00:00:00Z"),
        ]
        got, report = self._fetch(tmp_path, issues)
        assert [i["number"] for i in got] == [2, 3]
        assert report.issues_fetched == 4
        assert report.issues_in_window == 2

    def test_pull_requests_excluded(self, tmp_path):
        issues = [raw_issue(1), raw_issue(2, pull_request={"url": "x"})]
        got, report = self._fetch(tmp_path, issues)
        assert [i["number"] for i in got] == [1]
        assert report.pull_requests_excluded == 1

    def test_bad_created_at_is_skipped_and_tallied(self, tmp_path):
        got, report = self._fetch(tmp_path, [raw_issue(1, created="not a date")])
        assert got == []
        assert report.issues_skipped == 1
        assert report.skip_reasons[0]["issue_number"] == 1

    def test_empty_window_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty window"):
            self._fetch(tmp_path, [], since="2014-06-01T00:00:00Z", until="2014-05-01T00:00:00Z")


class FakeTransport:
    """Scripted responses: list of (status, headers, payload) or payloads."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, url, params, headers):
        self.calls.append({"url": url, "params": dict(params), "headers": dict(headers)})
        step = self.script.pop(0) if self.script else (200, {}, [])
        if isinstance(step, tuple):
            return step
        return 200, {}, step


def full_page(first):
    """A full page of issues numbered from `first`."""
    return [raw_issue(n) for n in range(first, first + ingest.PER_PAGE)]


class PagedTransport:
    """Serves each URL's item list in full pages of 100; counts requests."""

    def __init__(self, items_by_url):
        self.items_by_url = items_by_url
        self.calls = []

    def serve(self, url, page):
        return self.items_by_url.get(url, [])[(page - 1) * 100:page * 100]

    def __call__(self, url, params, headers):
        self.calls.append((url, dict(params)))
        return 200, {}, self.serve(url, params["page"])


def reference_pages_until_empty(transport, url):
    """Every item of a paged list, asking for pages until one is empty."""
    items, page = [], 1
    while True:
        batch = transport.serve(url, page)
        if not batch:
            return items
        items.extend(batch)
        page += 1


ISSUES_URL = f"{ingest.API_ROOT}/repos/p/q/issues"
COMMENTS_URL = "https://api.example/comments/1"
_PAGINATION_SIZES = [0, 99, 100, 101, 200] + random.Random(20141).sample(range(351), 20)


class TestFetchIssuesOnline:
    def test_pages_until_empty(self, tmp_path):
        transport = FakeTransport([full_page(1), full_page(101), []])
        got = list(
            fetch_issues(
                "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                transport=transport, sleep=lambda s: None,
            )
        )
        assert [i["number"] for i in got] == list(range(1, 201))
        pages = [c["params"]["page"] for c in transport.calls]
        assert pages == [1, 2, 3]

    def test_issue_pages_end_at_first_short_page(self):
        for n in _PAGINATION_SIZES:
            transport = PagedTransport({ISSUES_URL: [raw_issue(i) for i in range(1, n + 1)]})
            got = list(
                fetch_issues(
                    "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                    transport=transport, sleep=lambda s: None,
                )
            )
            assert got == reference_pages_until_empty(transport, ISSUES_URL), n
            assert len(transport.calls) == n // 100 + 1, n
            assert all(params["per_page"] == 100 for _, params in transport.calls), n

    def test_comment_pages_end_at_first_short_page(self):
        for n in _PAGINATION_SIZES:
            issue = raw_issue(1, comments_url=COMMENTS_URL)
            del issue["comments"]
            comments = [
                {"body": f"c{i}", "user": {"login": "bob"}, "created_at": "2014-05-02T10:00:00Z"}
                for i in range(n)
            ]
            transport = PagedTransport({ISSUES_URL: [issue], COMMENTS_URL: comments})
            got = list(
                fetch_issues(
                    "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                    transport=transport, sleep=lambda s: None,
                )
            )
            assert got[0]["comments"] == reference_pages_until_empty(transport, COMMENTS_URL), n
            comment_calls = [params for url, params in transport.calls if url == COMMENTS_URL]
            assert len(comment_calls) == n // 100 + 1, n
            assert all(params["per_page"] == 100 for params in comment_calls), n

    def test_comments_fetched_when_not_embedded(self):
        issue = raw_issue(1)
        del issue["comments"]
        issue["comments_url"] = "https://api.example/comments/1"
        comment = {"body": "me too", "user": {"login": "bob"}, "created_at": "2014-05-02T10:00:00Z"}
        transport = FakeTransport([
            [issue],     # issues page 1 (short, so the last)
            [comment],   # comments page 1 (short, so the last)
        ])
        got = list(
            fetch_issues(
                "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                transport=transport, sleep=lambda s: None,
            )
        )
        assert got[0]["comments"] == [comment]
        assert [c["url"] for c in transport.calls] == [ISSUES_URL, issue["comments_url"]]

    def test_zero_comment_count_requests_no_comments(self):
        issue = raw_issue(1, comments_url=COMMENTS_URL)
        issue["comments"] = 0  # the API gives a count, not the list
        transport = PagedTransport({ISSUES_URL: [issue]})
        got = list(
            fetch_issues(
                "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                transport=transport, sleep=lambda s: None,
            )
        )
        assert got == [dict(issue, comments=[])]
        assert [url for url, _ in transport.calls] == [ISSUES_URL]

    @pytest.mark.parametrize("count", [1, 150])
    def test_positive_comment_count_pages_the_comments(self, count):
        issue = raw_issue(1, comments_url=COMMENTS_URL)
        issue["comments"] = count
        comments = [
            {"body": f"c{i}", "user": {"login": "bob"}, "created_at": "2014-05-02T10:00:00Z"}
            for i in range(count)
        ]
        transport = PagedTransport({ISSUES_URL: [issue], COMMENTS_URL: comments})
        got = list(
            fetch_issues(
                "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                transport=transport, sleep=lambda s: None,
            )
        )
        assert got[0]["comments"] == comments
        assert [url for url, _ in transport.calls] == [ISSUES_URL] + [COMMENTS_URL] * (
            count // 100 + 1
        )

    def test_backoff_on_server_errors(self):
        transport = FakeTransport([
            (500, {}, None),
            (503, {}, None),
            (200, {}, [raw_issue(1)]),
            (200, {}, []),
        ])
        slept = []
        got = list(
            fetch_issues(
                "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                transport=transport, sleep=slept.append,
            )
        )
        assert [i["number"] for i in got] == [1]
        assert slept == [1.0, 2.0]

    def test_rate_limit_sleeps_until_reset(self):
        transport = FakeTransport([
            (403, {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "0"}, None),
            (200, {}, [raw_issue(1)]),
            (200, {}, []),
        ])
        slept = []
        got = list(
            fetch_issues(
                "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                transport=transport, sleep=slept.append,
            )
        )
        assert [i["number"] for i in got] == [1]
        assert len(slept) == 1 and slept[0] >= 1.0

    def test_hard_client_error_raises(self):
        transport = FakeTransport([(404, {}, None)])
        with pytest.raises(RuntimeError, match="404"):
            list(
                fetch_issues(
                    "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                    transport=transport, sleep=lambda s: None,
                )
            )

    def test_cursor_resume_skips_finished_pages(self, tmp_path):
        cursor = tmp_path / "cursor.json"
        first = FakeTransport([
            full_page(1),
            (500, {}, None), (500, {}, None), (500, {}, None),
            (500, {}, None), (500, {}, None), (500, {}, None),
        ])
        with pytest.raises(RuntimeError):
            list(
                fetch_issues(
                    "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                    transport=first, cursor_path=str(cursor), sleep=lambda s: None,
                )
            )
        # page 1 done; a rerun resumes at page 2, whose short page is the last
        second = FakeTransport([full_page(101), [raw_issue(201)]])
        got = list(
            fetch_issues(
                "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                transport=second, cursor_path=str(cursor), sleep=lambda s: None,
            )
        )
        assert [i["number"] for i in got] == list(range(101, 202))
        assert [c["params"]["page"] for c in second.calls] == [2, 3]
        assert json.loads(cursor.read_text()) == {
            "p/q|2014-05-01T00:00:00Z|2014-06-01T00:00:00Z": {"done": True}
        }
        # the finished window is not re-mined at all
        third = FakeTransport([[raw_issue(9)]])
        assert list(
            fetch_issues(
                "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                transport=third, cursor_path=str(cursor), sleep=lambda s: None,
            )
        ) == []
        assert third.calls == []

    def test_token_env_indirection(self, monkeypatch):
        monkeypatch.setenv("MY_TOKEN", "sekret")
        transport = FakeTransport([[], []])
        list(
            fetch_issues(
                "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                transport=transport, token_env="MY_TOKEN", sleep=lambda s: None,
            )
        )
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer sekret"

    def test_unset_token_variable_is_a_config_error(self, monkeypatch):
        monkeypatch.delenv("NOPE", raising=False)
        with pytest.raises(ValueError, match="NOPE"):
            list(
                fetch_issues(
                    "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                    transport=FakeTransport([]), token_env="NOPE", sleep=lambda s: None,
                )
            )


class TestNormalizeIssue:
    def test_body_becomes_utterance_zero(self):
        d = normalize_issue(raw_issue(18), "p/q")
        assert d.id == "p/q#18"
        assert d.issue_number == 18
        assert d.utterances[0].index == 0
        assert d.utterances[0].body_raw == "the body"
        assert d.utterances[0].author == "alice"

    def test_blank_body_means_comments_start_at_zero(self):
        issue = raw_issue(
            1, body="  ",
            comments=[{"body": "c", "user": {"login": "bob"}, "created_at": "2014-05-02T10:00:00Z"}],
        )
        d = normalize_issue(issue, "p/q")
        assert len(d.utterances) == 1
        assert d.utterances[0].body_raw == "c"
        assert d.utterances[0].index == 0

    def test_comments_resorted_ascending(self):
        issue = raw_issue(
            1,
            comments=[
                {"body": "later", "user": {"login": "b"}, "created_at": "2014-05-03T10:00:00Z"},
                {"body": "earlier", "user": {"login": "c"}, "created_at": "2014-05-02T10:00:00Z"},
            ],
        )
        d = normalize_issue(issue, "p/q")
        assert [u.body_raw for u in d.utterances] == ["the body", "earlier", "later"]
        assert [u.index for u in d.utterances] == [0, 1, 2]

    def test_blank_comments_dropped(self):
        issue = raw_issue(1, comments=[{"body": "", "created_at": "2014-05-02T10:00:00Z"}])
        assert len(normalize_issue(issue, "p/q").utterances) == 1

    def test_missing_title_rejected(self):
        with pytest.raises(RecordError, match="title"):
            normalize_issue(raw_issue(1, title=""), "p/q")

    def test_missing_number_rejected(self):
        with pytest.raises(RecordError, match="number"):
            normalize_issue({"title": "x", "created_at": "2014-05-01T10:00:00Z"}, "p/q")

    def test_bad_comment_timestamp_rejects_issue(self):
        issue = raw_issue(1, comments=[{"body": "c", "created_at": "garbage"}])
        with pytest.raises(RecordError):
            normalize_issue(issue, "p/q")


SHA1 = "1234567890abcdef1234567890abcdef12345678"
SHA2 = "feedface00feedface00feedface00feedface00"


class TestExtractCommitLinks:
    def test_hash_reference_links_same_project(self):
        commits = [{"sha": SHA1, "message": "Fix crash. Closes #18", "timestamp": "2014-05-10T12:00:00Z"}]
        links = extract_commit_links("p/q", commits)
        assert len(links) == 1
        assert links[0].issue_number == 18
        assert links[0].commit_sha == SHA1
        assert links[0].link_source == "message_reference"
        assert links[0].linked_at == "2014-05-10T12:00:00Z"

    def test_word_adjacent_hash_is_not_a_reference(self):
        commits = [{"sha": SHA1, "message": "see ticket abc#12 and path/#13", "timestamp": "2014-05-10T12:00:00Z"}]
        assert extract_commit_links("p/q", commits) == []

    def test_full_url_reference_can_cross_projects(self):
        msg = "Removed trailing newlines. Fixes https://github.com/other/proj/issues/7"
        commits = [{"sha": SHA1, "message": msg, "timestamp": "2014-05-10T12:00:00Z"}]
        links = extract_commit_links("p/q", commits)
        assert len(links) == 1
        assert links[0].project == "other/proj"
        assert links[0].issue_number == 7

    def test_missing_commit_timestamp_falls_back_to_issue_created(self):
        commits = [{"sha": SHA1, "message": "fixes #1"}]
        links = extract_commit_links("p/q", commits, [raw_issue(1, created="2014-05-05T00:00:00Z")])
        assert links[0].linked_at == "2014-05-05T00:00:00Z"

    def test_unresolvable_timestamp_drops_the_link(self):
        commits = [{"sha": SHA1, "message": "fixes #99"}]
        assert extract_commit_links("p/q", commits, [raw_issue(1)]) == []

    def test_timeline_events(self):
        issue = raw_issue(
            3,
            timeline=[
                {"event": "closed", "commit_id": SHA2, "created_at": "2014-05-09T00:00:00Z"},
                {"event": "labeled", "commit_id": SHA1},
                {"event": "referenced", "commit_id": None},
            ],
        )
        links = extract_commit_links("p/q", [], [issue])
        assert len(links) == 1
        assert links[0].link_source == "timeline_event"
        assert links[0].commit_sha == SHA2
        assert links[0].linked_at == "2014-05-09T00:00:00Z"

    def test_duplicates_collapse_per_source(self):
        commits = [{"sha": SHA1, "message": "fixes #2, really fixes #2", "timestamp": "2014-05-10T12:00:00Z"}]
        issue = raw_issue(2, timeline=[{"event": "referenced", "commit_id": SHA1, "created_at": "2014-05-09T00:00:00Z"}])
        links = extract_commit_links("p/q", commits, [issue])
        assert len(links) == 2
        assert {ln.link_source for ln in links} == {"message_reference", "timeline_event"}

    def test_mapping_form_of_commits(self):
        links = extract_commit_links(
            "p/q",
            {SHA1: {"message": "fixes #4", "timestamp": "2014-05-10T12:00:00Z"}},
        )
        assert links[0].issue_number == 4


class TestMineProjects:
    def test_end_to_end_archive(self, tmp_path):
        issue = raw_issue(18, body="Breaks on newlines")
        write_archive(tmp_path / "arc", "mw/toml", [issue, raw_issue(19, title="")])
        out = tmp_path / "out"
        report = mine_projects(
            ["mw/toml"],
            "2014-05-01T00:00:00Z",
            "2014-06-01T00:00:00Z",
            str(out),
            archive_root=str(tmp_path / "arc"),
            commits_by_project={"mw/toml": [{"sha": SHA1, "message": "fixes #18", "timestamp": "2014-05-10T12:00:00Z"}]},
        )
        assert report.issues_in_window == 2
        assert report.issues_skipped == 1  # the title-less one
        assert report.links_found == 1
        disc_file = out / "discussions" / "mw__toml.jsonl"
        assert disc_file.exists()
        rows = [json.loads(l) for l in disc_file.read_text().splitlines()]
        assert rows[0]["id"] == "mw/toml#18"
        links = (out / "links.jsonl").read_text().splitlines()
        assert len(links) == 1
        assert json.loads((out / "mine-report.json").read_text())["links_found"] == 1
