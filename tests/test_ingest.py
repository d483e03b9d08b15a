"""Mining: archives, the online transport loop, normalization, link extraction."""

import json
import os
import random
import re
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from discforge import ingest
from discforge.cli import main
from discforge.ingest import (
    API_ROOT,
    MineReport,
    RawIssueArchive,
    _auth_headers,
    _pages,
    default_transport,
    extract_commit_links,
    fetch_issues,
    mine_projects,
    normalize_commits,
    normalize_issue,
    project_dirname,
)
from discforge.records import CommitLinkEvent, Discussion, RecordError, normalize_timestamp

TOML4J_ARCHIVE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "toml4j", "archive")


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

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"{oops", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
    )
    def test_unparseable_issue_file_names_itself(self, tmp_path, data, message):
        write_archive(tmp_path, "b/b", [raw_issue(1)])
        path = tmp_path / "b__b" / "2.json"
        path.write_bytes(data)
        issues = RawIssueArchive(tmp_path).iter_issues("b/b")
        assert next(issues)["number"] == 1
        with pytest.raises(RecordError) as exc:
            next(issues)
        assert str(exc.value) == f"{path}: {message}"
        assert (exc.value.path, exc.value.line, exc.value.field) == (str(path), None, None)


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
    """Serves each URL's item list in full pages of ingest.PER_PAGE; counts requests."""

    def __init__(self, items_by_url):
        self.items_by_url = items_by_url
        self.calls = []

    def serve(self, url, page):
        per = ingest.PER_PAGE
        return self.items_by_url.get(url, [])[(page - 1) * per:page * per]

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
SINCE, UNTIL = "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z"
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

    def test_item_that_is_not_an_object_is_a_skipped_issue(self):
        report = MineReport()
        got = list(
            fetch_issues(
                "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                transport=FakeTransport([[raw_issue(1), [1, 2], "x"]]), report=report, sleep=lambda s: None,
            )
        )
        assert [i["number"] for i in got] == [1]
        assert report.skip_reasons == [
            {"project": "p/q", "issue_number": None, "reason": "expected a JSON object, got list"},
            {"project": "p/q", "issue_number": None, "reason": "expected a JSON object, got str"},
        ]

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

    @pytest.mark.parametrize("remaining, reset", [
        ("X-RateLimit-Remaining", "X-RateLimit-Reset"), ("x-ratelimit-remaining", "x-ratelimit-reset"),
    ])
    def test_rate_limit_sleeps_until_reset(self, remaining, reset):
        transport = FakeTransport([
            (403, {remaining: "0", reset: "0"}, None),
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

    @pytest.mark.parametrize("reset", ["soon", "inf", "-inf", "nan", "1e300", "1e12", ""])
    def test_unparsable_rate_limit_reset_waits_60_seconds(self, reset):
        """A reset that is no finite time within a day (time.sleep overflows on inf or 1e12 s)."""
        transport = FakeTransport([
            (429, {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": reset}, None),
            (200, {}, [raw_issue(1)]),
        ])
        slept = []
        got = list(fetch_issues("p/q", SINCE, UNTIL, transport=transport, sleep=slept.append))
        assert [i["number"] for i in got] == [1]
        assert slept == [60.0]

    def test_hard_client_error_raises(self):
        transport = FakeTransport([(404, {}, None)])
        with pytest.raises(RuntimeError, match="404"):
            list(
                fetch_issues(
                    "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                    transport=transport, sleep=lambda s: None,
                )
            )

    NOT_FOUND = {"message": "Not Found", "documentation_url": "x"}

    @pytest.mark.parametrize("payload", [NOT_FOUND, "Not Found", 3, None], ids=["object", "string", "number", "null"])
    def test_issues_page_that_is_not_a_list_fails(self, payload):
        transport = FakeTransport([payload])
        with pytest.raises(OSError, match=re.escape(f"{ISSUES_URL} page 1: expected a JSON list, got {type(payload).__name__}")):
            list(
                fetch_issues(
                    "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                    transport=transport, sleep=lambda s: None,
                )
            )
        assert len(transport.calls) == 1

    def test_comments_page_that_is_not_a_list_fails(self):
        issue = raw_issue(1, comments_url=COMMENTS_URL)
        issue["comments"] = 2
        transport = FakeTransport([[issue], self.NOT_FOUND])
        with pytest.raises(OSError, match=re.escape(f"{COMMENTS_URL} page 1: expected a JSON list, got dict")):
            list(
                fetch_issues(
                    "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                    transport=transport, sleep=lambda s: None,
                )
            )
        assert [c["url"] for c in transport.calls] == [ISSUES_URL, COMMENTS_URL]

    def test_an_empty_list_still_ends_paging(self):
        transport = FakeTransport([[raw_issue(n) for n in range(1, 101)], []])
        got = list(
            fetch_issues(
                "p/q", "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z",
                transport=transport, sleep=lambda s: None,
            )
        )
        assert len(got) == 100 and len(transport.calls) == 2

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


# fetch_issues as it was when archive and tracker issues each had their own
# loop, kept verbatim (but for its name) as the oracle for the one-loop version.
def reference_fetch_issues(
    project: str,
    since: str,
    until: str,
    *,
    archive: RawIssueArchive | None = None,
    token_env: str | None = None,
    transport=None,
    report: MineReport | None = None,
    sleep=time.sleep,
):
    """Yield raw issue dicts for one project, created in [since, until).

    Archive mode walks the dump; online mode pages the issues endpoint,
    oldest first, always from page 1: no state carries over between calls.
    Pull requests masquerading as issues are excluded. The window is
    half-open: an issue created exactly at `until` is out.
    """
    since = normalize_timestamp(since)
    until = normalize_timestamp(until)
    if until <= since:
        raise ValueError(f"empty window: since={since} until={until}")
    report = report if report is not None else MineReport()

    def in_window(raw):
        report.issues_fetched += 1
        if not isinstance(raw, dict):
            report.record_skip(project, None, f"expected a JSON object, got {type(raw).__name__}")
            return False
        if raw.get("pull_request") is not None:
            report.pull_requests_excluded += 1
            return False
        try:
            created = normalize_timestamp(raw.get("created_at"))
        except RecordError:
            report.record_skip(project, raw.get("number"), "bad created_at")
            return False
        if since <= created < until:
            report.issues_in_window += 1
            return True
        return False

    if archive is not None:
        for raw in archive.iter_issues(project):
            if in_window(raw):
                yield raw
        return

    transport = transport or default_transport
    headers = _auth_headers(token_env)
    url = f"{API_ROOT}/repos/{project}/issues"
    params = {"state": "all", "sort": "created", "direction": "asc", "since": since}
    for payload in _pages(transport, url, params, headers, sleep=sleep):
        past_window = False
        for raw in payload:
            try:
                created = normalize_timestamp(raw.get("created_at") if isinstance(raw, dict) else None)
            except RecordError:
                created = None
            if created is not None and created >= until:
                past_window = True
                continue
            if not in_window(raw):
                continue
            comments = raw.get("comments")
            if type(comments) is int and comments == 0:
                # the API's comment count: there is no list to fetch
                raw = dict(raw, comments=[])
            elif not isinstance(comments, list):
                comments_url = raw.get("comments_url")
                comment_pages = (
                    _pages(transport, comments_url, {}, headers, sleep=sleep)
                    if comments_url
                    else ()
                )
                raw = dict(raw, comments=[c for items in comment_pages for c in items])
            yield raw
        if past_window:
            break


# created_at values by where they fall; "at until" spells `until` two ways.
CREATED = {
    "in window": [SINCE, "2014-05-15T12:00:00Z", "2014-05-31T23:59:59Z", "2014-05-20T10:00:00+02:00"],
    "before since": ["2014-04-30T23:59:59Z", "2013-01-01T00:00:00Z"],
    "at until": ["2014-06-01T00:00:00Z", "2014-06-01T02:00:00+02:00"],
    "past until": ["2014-06-01T00:00:01Z", "2015-01-01T00:00:00Z"],
    "unparsable": ["not a date", "", 5, None],
}


def random_issues(rng, comment_pages):
    """A shuffled mix of every kind of item a page or an archive can hold.

    Each comments_url given is entered in comment_pages with its own random comments.
    """
    items = []
    for number in range(1, rng.randint(0, 12) + 1):
        if rng.random() < 0.1:
            items.append(rng.choice([[1, 2], "x", 3, None]))
            continue
        raw = raw_issue(number)
        kind = rng.choice([*CREATED, "absent"])
        if kind == "absent":
            del raw["created_at"]
        else:
            raw["created_at"] = rng.choice(CREATED[kind])
        if rng.random() < 0.2:
            raw["pull_request"] = rng.choice([{"url": "x"}, None])
        comments = rng.choice(["absent", "0", "n", "list", "not a count"])
        if comments == "absent":
            del raw["comments"]
        else:
            raw["comments"] = {
                "0": 0,
                "n": rng.randint(1, 9),
                "list": [{"body": "embedded", "created_at": SINCE}],
                "not a count": rng.choice([False, 0.0, "2"]),
            }[comments]
        if rng.random() < 0.6:
            raw["comments_url"] = f"https://api.example/comments/{number}"
            comment_pages[raw["comments_url"]] = [{"body": f"c{i}"} for i in range(rng.randint(0, 9))]
        items.append(raw)
    rng.shuffle(items)
    return items


class ListArchive:
    """Stands in for RawIssueArchive, yielding the given items as if read from its files."""

    def __init__(self, items):
        self.items = items

    def iter_issues(self, project):
        yield from self.items


class LoggingTransport(PagedTransport):
    """PagedTransport that enters each request's (url, page) in a shared event log."""

    def __init__(self, items_by_url, events):
        super().__init__(items_by_url)
        self.events = events

    def __call__(self, url, params, headers):
        self.events.append(("request", url, params["page"]))
        return super().__call__(url, params, headers)


def run_fetch(fetch, items, comment_pages, online):
    """Each request and each yielded issue in order, and the report, of one fetch over these inputs."""
    events, report = [], MineReport()
    source = (
        {"transport": LoggingTransport({ISSUES_URL: items, **comment_pages}, events)}
        if online else {"archive": ListArchive(items)}
    )
    for raw in fetch("p/q", SINCE, UNTIL, report=report, sleep=lambda s: None, **source):
        events.append(("yield", raw))
    return events, report.to_dict()


class TestFetchIssuesOracle:
    @pytest.mark.parametrize("online", [False, True], ids=["archive", "tracker"])
    def test_matches_the_two_loop_version_on_random_inputs(self, monkeypatch, online):
        monkeypatch.setattr(ingest, "PER_PAGE", 3)
        for seed in range(300):
            rng = random.Random(seed)
            comment_pages = {}
            items = random_issues(rng, comment_pages)
            got = run_fetch(fetch_issues, items, comment_pages, online)
            assert got == run_fetch(reference_fetch_issues, items, comment_pages, online), seed


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

    def test_author_string_stands_in_for_a_missing_user(self):
        comments = [
            {"author": "dave", "body": "hi", "created_at": "2014-05-02T10:00:00Z"},
            {"user": {"login": ""}, "body": "anonymous", "created_at": "2014-05-03T10:00:00Z"},
        ]
        d = normalize_issue(raw_issue(1, user=None, author="carol", comments=comments), "p/q")
        assert [u.author for u in d.utterances] == ["carol", "dave", ""]

    def test_missing_title_rejected(self):
        with pytest.raises(RecordError, match="title"):
            normalize_issue(raw_issue(1, title=""), "p/q")

    def test_missing_number_rejected(self):
        with pytest.raises(RecordError, match="number"):
            normalize_issue({"title": "x", "created_at": "2014-05-01T10:00:00Z"}, "p/q")

    def test_boolean_number_rejected(self):
        with pytest.raises(RecordError, match="number must be an integer, got True") as exc:
            normalize_issue(raw_issue(True), "p/q")
        assert exc.value.field == "number"

    def test_bad_comment_timestamp_rejects_issue(self):
        issue = raw_issue(1, comments=[{"body": "c", "created_at": "garbage"}])
        with pytest.raises(RecordError):
            normalize_issue(issue, "p/q")


SHA1 = "1234567890abcdef1234567890abcdef12345678"
SHA2 = "feedface00feedface00feedface00feedface00"


def commit_links(project, commits, raw_issues=()):
    """extract_commit_links on commits in the form a --commits file holds them."""
    return extract_commit_links(project, normalize_commits(commits), raw_issues)


class TestExtractCommitLinks:
    def test_hash_reference_links_same_project(self):
        commits = [{"sha": SHA1, "message": "Fix crash. Closes #18", "timestamp": "2014-05-10T12:00:00Z"}]
        links = commit_links("p/q", commits)
        assert len(links) == 1
        assert links[0].issue_number == 18
        assert links[0].commit_sha == SHA1
        assert links[0].link_source == "message_reference"
        assert links[0].linked_at == "2014-05-10T12:00:00Z"

    def test_word_adjacent_hash_is_not_a_reference(self):
        commits = [{"sha": SHA1, "message": "see ticket abc#12 and path/#13", "timestamp": "2014-05-10T12:00:00Z"}]
        assert commit_links("p/q", commits) == []

    def test_full_url_reference_can_cross_projects(self):
        msg = "Removed trailing newlines. Fixes https://github.com/other/proj/issues/7"
        commits = [{"sha": SHA1, "message": msg, "timestamp": "2014-05-10T12:00:00Z"}]
        links = commit_links("p/q", commits)
        assert len(links) == 1
        assert links[0].project == "other/proj"
        assert links[0].issue_number == 7

    def test_missing_commit_timestamp_falls_back_to_issue_created(self):
        commits = [{"sha": SHA1, "message": "fixes #1"}]
        links = commit_links("p/q", commits, [raw_issue(1, created="2014-05-05T00:00:00Z")])
        assert links[0].linked_at == "2014-05-05T00:00:00Z"

    def test_unresolvable_timestamp_drops_the_link(self):
        commits = [{"sha": SHA1, "message": "fixes #99"}]
        assert commit_links("p/q", commits, [raw_issue(1)]) == []

    @pytest.mark.parametrize("message, event, want", [
        ("fixes #1", None, [("p/q", "message_reference")]),
        ("fixes https://github.com/p/q/issues/1", None, [("p/q", "message_reference")]),
        ("fixes https://github.com/o/r/issues/1", None, []),
        ("", {"event": "closed", "commit_id": SHA2}, [("p/q", "timeline_event")]),
        ("", {"event": "closed", "commit_id": SHA2, "created_at": "nope"}, [("p/q", "timeline_event")]),
    ])
    def test_evidence_without_its_own_time_takes_this_projects_issue_creation(self, message, event, want):
        """One rule for every kind of evidence; a link to another project's issue has no fallback."""
        issue = raw_issue(1, created="2014-05-05T00:00:00Z", timeline=[event] if event else [])
        links = commit_links("p/q", [{"sha": SHA1, "message": message}], [issue])
        assert [(ln.project, ln.link_source) for ln in links] == want
        assert all(ln.linked_at == "2014-05-05T00:00:00Z" for ln in links)

    def test_boolean_issue_number_lends_no_timestamp_or_timeline(self):
        # true == 1 as a dict key, so it must not stand in for issue 1.
        issue = raw_issue(True, timeline=[{"event": "closed", "commit_id": SHA2}])
        assert commit_links("p/q", [{"sha": SHA1, "message": "fixes #1"}], [issue]) == []

    def test_timeline_events(self):
        issue = raw_issue(
            3,
            timeline=[
                {"event": "closed", "commit_id": SHA2, "created_at": "2014-05-09T00:00:00Z"},
                {"event": "labeled", "commit_id": SHA1},
                {"event": "referenced", "commit_id": None},
            ],
        )
        links = commit_links("p/q", [], [issue])
        assert len(links) == 1
        assert links[0].link_source == "timeline_event"
        assert links[0].commit_sha == SHA2
        assert links[0].linked_at == "2014-05-09T00:00:00Z"

    def test_duplicates_collapse_per_source(self):
        commits = [{"sha": SHA1, "message": "fixes #2, really fixes #2", "timestamp": "2014-05-10T12:00:00Z"}]
        issue = raw_issue(2, timeline=[{"event": "referenced", "commit_id": SHA1, "created_at": "2014-05-09T00:00:00Z"}])
        links = commit_links("p/q", commits, [issue])
        assert len(links) == 2
        assert {ln.link_source for ln in links} == {"message_reference", "timeline_event"}

    @pytest.mark.parametrize(
        "commit, timeline, warning",
        [
            ({"sha": SHA1, "message": "see #0", "timestamp": SINCE}, [],
             f"dropping malformed link p/q#0 -> {SHA1}"),
            (
                {"sha": SHA1, "message": "no reference", "timestamp": SINCE},
                [{"event": "closed", "commit_id": "not-hex!", "created_at": SINCE}],
                "dropping malformed link p/q#1 -> not-hex!",
            ),
        ],
        ids=["issue-0", "non-hex-commit-id"],
    )
    def test_malformed_link_is_dropped_with_a_warning(self, caplog, commit, timeline, warning):
        with caplog.at_level("WARNING", logger="discforge.ingest"):
            links = commit_links("p/q", [commit], [raw_issue(1, timeline=timeline)])
        assert links == []
        assert any(r.getMessage().startswith(warning) for r in caplog.records)

    def test_mapping_form_of_commits(self):
        links = commit_links(
            "p/q",
            {SHA1: {"message": "fixes #4", "timestamp": "2014-05-10T12:00:00Z"}},
        )
        assert links[0].issue_number == 4


# Each case: raw_issue fields holding a lone surrogate, which JSON can spell ("\ud83d") but UTF-8 cannot
# encode, and the field that the skip reason names.
_COMMENT = {"body": "a comment", "user": {"login": "bob"}, "created_at": "2014-05-02T10:00:00Z"}
LONE_SURROGATE = {
    "title": ({"title": "crash \ud83d"}, "title"),
    "body": ({"body": "see \ud83d"}, "body"),
    "user.login": ({"user": {"login": "al\ud83dce"}}, "user.login"),
    "author": ({"user": None, "author": "\ud83d"}, "author"),
    "comment body": ({"comments": [_COMMENT, dict(_COMMENT, body="x \ud83d")]}, "comments[1].body"),
    "comment author": ({"comments": [dict(_COMMENT, user={"login": "\ud83d"})]}, "comments[0].user.login"),
}


class TestLoneSurrogate:
    """An issue whose text UTF-8 cannot encode is a skipped issue, from either source; the others are written."""

    @pytest.mark.parametrize("source", ["archive", "tracker"])
    @pytest.mark.parametrize("case", list(LONE_SURROGATE))
    def test_is_a_skipped_issue(self, tmp_path, capsys, monkeypatch, source, case):
        extra, field = LONE_SURROGATE[case]
        issues = [raw_issue(1), raw_issue(2, **extra), raw_issue(3)]
        (tmp_path / "projects.txt").write_text("p/q\n", encoding="utf-8")
        if source == "archive":
            write_archive(tmp_path / "arc", "p/q", issues)  # json.dumps writes the surrogate as \ud83d
            flag = ["--archive", str(tmp_path / "arc")]
        else:
            monkeypatch.setenv("MINE_TOKEN", "t")
            flag = ["--token-env", "MINE_TOKEN"]
        out = tmp_path / "out"
        argv = ["mine", "--projects", str(tmp_path / "projects.txt"), "--since", SINCE, "--until", UNTIL,
                *flag, "--out", str(out)]
        for threshold, code in ((0, 1), (1, 0)):
            monkeypatch.setattr(ingest, "default_transport", FakeTransport([issues]))
            assert main([*argv, "--fail-threshold", str(threshold)]) == code
            assert capsys.readouterr().out == "mined 3 issues from 1 projects (1 skipped, 0 links)\n"
            rows = (out / "discussions" / "p__q.jsonl").read_text(encoding="utf-8").splitlines()
            assert [json.loads(r)["id"] for r in rows] == ["p/q#1", "p/q#3"]
            (skip,) = json.loads((out / "mine-report.json").read_text(encoding="utf-8"))["skip_reasons"]
            assert (skip["project"], skip["issue_number"]) == ("p/q", 2)
            assert skip["reason"].startswith(f"field '{field}': 'utf-8' codec can't encode character '\\ud83d'")


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

    def test_bad_commit_raises_before_any_write(self, tmp_path):
        """The commits of every project are parsed before the first file is written."""
        commits = {
            "mwanji/toml4j": [{"sha": SHA1, "message": "fixes #18", "timestamp": "nope"}],
        }
        out = tmp_path / "out"
        with pytest.raises(ingest.CommitsError, match="^project mwanji/toml4j: entry 0: field 'timestamp': "):
            mine_projects(
                ["mwanji/toml4j"],
                "2014-01-01T00:00:00Z",
                "2015-01-01T00:00:00Z",
                str(out),
                archive_root=TOML4J_ARCHIVE,
                commits_by_project=commits,
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "projects, window, token_env, error, message",
        [
            (["p/q", "o/a", "p/q"], (SINCE, UNTIL), None, RecordError,
             "projects 'p/q' and 'p/q' both write discussions/p__q.jsonl"),
            (["a__b/c", "a/b__c"], (SINCE, UNTIL), None, RecordError,
             "projects 'a__b/c' and 'a/b__c' both write discussions/a__b__c.jsonl"),
            (["p/q"], ("nope", UNTIL), None, RecordError, "unparseable timestamp: 'nope'"),
            (["p/q"], (UNTIL, SINCE), None, ValueError, f"empty window: since={UNTIL} until={SINCE}"),
            (["p/q"], (SINCE, UNTIL), "NOPE", ValueError, "--token-env names 'NOPE' but that variable is unset"),
        ],
        ids=["same-name-twice", "shared-discussions-file", "bad-since", "empty-window", "unset-token"],
    )
    def test_bad_run_raises_before_any_request_or_write(
        self, tmp_path, monkeypatch, projects, window, token_env, error, message
    ):
        monkeypatch.delenv("NOPE", raising=False)
        transport, out = FakeTransport([]), tmp_path / "out"
        with pytest.raises(error) as exc:
            mine_projects(projects, *window, str(out), token_env=token_env, transport=transport, sleep=lambda s: None)
        assert str(exc.value) == message
        assert transport.calls == [] and not out.exists()


MAY_1 = datetime(2014, 5, 1, 10, tzinfo=timezone.utc)


class SeededTracker:
    """A paged issues API over two seeded random projects.

    Issues come oldest first, some before or after the mining window,
    with comment counts, comment pages, timeline links and an occasional
    title-less issue. From request `fail_at` on (1-based) every request
    raises: the tracker is down for good.
    """

    PROJECTS = ("o/a", "o/b")
    SINCE, UNTIL = "2014-05-01T00:00:00Z", "2014-06-01T00:00:00Z"

    def __init__(self, seed, fail_at=None):
        rng = random.Random(seed)
        self.fail_at = fail_at
        self.requests = 0
        self.items = {}
        self.commits = {}
        for project in self.PROJECTS:
            url = f"{ingest.API_ROOT}/repos/{project}/issues"
            days = sorted(rng.randrange(-5, 36) for _ in range(rng.randint(0, 10)))
            issues, commits = [], []
            for number, day in enumerate(days, start=1):
                created = (MAY_1 + timedelta(days=day)).strftime("%Y-%m-%dT%H:%M:%SZ")
                issue = raw_issue(number, created=created, title="" if rng.random() < 0.1 else None,
                                  comments_url=f"{url}/{number}/comments")
                comments = [
                    {"body": f"comment {c}", "user": {"login": "bob"}, "created_at": created}
                    for c in range(rng.choice((0, 0, 1, 2, 4, 7)))
                ]
                issue["comments"] = len(comments)
                self.items[issue["comments_url"]] = comments
                sha = f"{seed:08x}{number:08x}".ljust(40, "0")
                if rng.random() < 0.3:
                    issue["timeline"] = [{"event": "closed", "commit_id": sha, "created_at": created}]
                if rng.random() < 0.5:
                    commits.append({"sha": sha[::-1], "message": f"fixes #{number}"})
                issues.append(issue)
            self.items[url] = issues
            self.commits[project] = commits

    def __call__(self, url, params, headers):
        self.requests += 1
        if self.fail_at is not None and self.requests >= self.fail_at:
            raise ConnectionError("tracker down")
        first = (params["page"] - 1) * params["per_page"]
        return 200, {}, self.items.get(url, [])[first:first + params["per_page"]]

    def mine(self, out):
        return mine_projects(
            self.PROJECTS, self.SINCE, self.UNTIL, str(out),
            commits_by_project=self.commits, transport=self, sleep=lambda s: None,
        )


def read_tree(top):
    """Every file under `top`, as bytes keyed by relative path."""
    return {str(p.relative_to(top)): p.read_bytes() for p in sorted(top.rglob("*")) if p.is_file()}


class TestInterruptedMining:
    @pytest.fixture(autouse=True)
    def small_pages(self, monkeypatch):
        # three items a page, so a few issues span several pages
        monkeypatch.setattr(ingest, "PER_PAGE", 3)

    def test_tracker_failing_at_a_random_request_loses_nothing(self, tmp_path):
        for seed in range(60):
            complete = SeededTracker(seed)
            complete.mine(tmp_path / f"{seed}-clean")
            want = read_tree(tmp_path / f"{seed}-clean")
            fail_at = random.Random(f"fail/{seed}").randint(1, complete.requests)

            earlier, fresh = tmp_path / f"{seed}-earlier", tmp_path / f"{seed}-fresh"
            SeededTracker(seed).mine(earlier)
            for out in (earlier, fresh):
                with pytest.raises(OSError, match="tracker down"):
                    SeededTracker(seed, fail_at).mine(out)
            # The earlier run's files are untouched, and no temp file is left.
            assert read_tree(earlier) == want, seed
            # Into an empty directory: only whole files, each as a complete run writes it.
            partial = read_tree(fresh)
            assert {name: want.get(name) for name in partial} == partial, seed
            for out in (earlier, fresh):
                SeededTracker(seed).mine(out)
                assert read_tree(out) == want, seed

    def test_rerun_after_a_complete_run_changes_no_byte(self, tmp_path):
        for seed in range(10):
            first = SeededTracker(seed)
            first.mine(tmp_path / str(seed))
            want = read_tree(tmp_path / str(seed))
            rerun = SeededTracker(seed)
            rerun.mine(tmp_path / str(seed))
            assert read_tree(tmp_path / str(seed)) == want, seed
            # the whole window is mined again, every request of it
            assert rerun.requests == first.requests, seed

    @pytest.mark.parametrize("record", [Discussion, CommitLinkEvent])
    def test_write_raising_halfway_leaves_the_previous_file(self, tmp_path, monkeypatch, record):
        issues = [raw_issue(n, timeline=[{"event": "closed", "commit_id": SHA1}]) for n in (1, 2, 3)]
        write_archive(tmp_path / "arc", "o/a", issues)
        out = tmp_path / "out"

        def mine():
            mine_projects(["o/a"], SeededTracker.SINCE, SeededTracker.UNTIL, str(out),
                          archive_root=str(tmp_path / "arc"))

        mine()
        want = read_tree(out)
        written = []
        real = record.to_dict

        def to_dict(self):
            if written:
                raise OSError("disk full")
            written.append(self)
            return real(self)

        monkeypatch.setattr(record, "to_dict", to_dict)
        with pytest.raises(OSError, match="disk full"):
            mine()
        assert written, "the write never started"
        assert read_tree(out) == want


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each GET with the next (status, headers, body) of its server's script."""

    def do_GET(self):
        self.server.requests.append((self.path, {k.lower(): v for k, v in self.headers.items()}))
        status, headers, body = self.server.script.pop(0)
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    """A tracker API on 127.0.0.1 that ingest.API_ROOT points at, with the requests package blocked."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.script, server.requests = [], []
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    monkeypatch.setattr(ingest, "API_ROOT", f"http://127.0.0.1:{server.server_port}")
    monkeypatch.setitem(sys.modules, "requests", None)
    monkeypatch.setenv("no_proxy", "*")  # the lowercase name wins over any NO_PROXY
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def json_or_none(body):
    try:
        return json.loads(body)
    except ValueError:
        return None


class TestDefaultTransport:
    """default_transport over real HTTP: mine writes what the same payloads write through FakeTransport."""

    def _mine(self, tmp_path, monkeypatch, out):
        (tmp_path / "projects.txt").write_text("demo/proj\n", encoding="utf-8")
        monkeypatch.setenv("MINE_TOKEN", "sekret")
        slept = []
        monkeypatch.setitem(ingest.mine_projects.__kwdefaults__, "sleep", slept.append)
        code = main([
            "mine", "--projects", str(tmp_path / "projects.txt"), "--since", SINCE, "--until", UNTIL,
            "--token-env", "MINE_TOKEN", "--out", str(tmp_path / out),
        ])
        return code, read_tree(tmp_path / out), slept

    def _same_through_both_transports(self, tmp_path, monkeypatch, capsys, loopback, script):
        """Mine over loopback, then through FakeTransport; both give one exit code, tree, sleeps and stderr."""
        loopback.script = list(script)
        got = self._mine(tmp_path, monkeypatch, "http") + (capsys.readouterr().err,)
        assert loopback.script == []
        fake = FakeTransport([(status, headers, json_or_none(body)) for status, headers, body in script])
        monkeypatch.setattr(ingest, "default_transport", fake)
        assert self._mine(tmp_path, monkeypatch, "fake") + (capsys.readouterr().err,) == got
        return got

    def test_mines_pages_comments_rate_limit_and_retry(self, tmp_path, monkeypatch, capsys, loopback):
        root = ingest.API_ROOT
        first = [raw_issue(n) for n in range(1, ingest.PER_PAGE + 1)]
        first[1].update(comments=1, comments_url=f"{root}/comments/2")
        comment = {"body": "me too", "user": {"login": "bob"}, "created_at": "2014-05-02T10:00:00Z"}
        limited = {"x-ratelimit-remaining": "0", "x-ratelimit-reset": "0"}
        script = [
            (403, limited, b'{"message": "API rate limit exceeded"}'),
            (200, {}, json.dumps(first).encode()),
            (500, {}, b"{}"),
            (200, {}, json.dumps([comment]).encode()),
            (200, {}, json.dumps([raw_issue(101), raw_issue(102)]).encode()),
        ]
        code, tree, slept, err = self._same_through_both_transports(tmp_path, monkeypatch, capsys, loopback, script)
        assert (code, slept, err) == (0, [1.0, 1.0], "")
        rows = [json.loads(line) for line in tree["discussions/demo__proj.jsonl"].splitlines()]
        assert [r["id"] for r in rows] == [f"demo/proj#{n}" for n in range(1, 103)]
        assert [u["body_raw"] for u in rows[1]["utterances"]] == ["the body", "me too"]
        issues = "/repos/demo/proj/issues?state=all&sort=created&direction=asc&since=2014-05-01T00%3A00%3A00Z"
        comments = "/comments/2?per_page=100&page=1"
        assert [path for path, _ in loopback.requests] == [
            f"{issues}&per_page=100&page=1", f"{issues}&per_page=100&page=1", comments, comments,
            f"{issues}&per_page=100&page=2",
        ]
        for _, headers in loopback.requests:
            assert headers["authorization"] == "Bearer sekret"
            assert headers["accept"] == "application/vnd.github+json"
            assert headers["user-agent"]  # GitHub's API refuses a request without one

    def test_body_that_is_not_json_fails_the_page(self, tmp_path, monkeypatch, capsys, loopback):
        script = [(200, {"Content-Type": "text/html"}, b"<html>maintenance</html>")]
        code, tree, slept, err = self._same_through_both_transports(tmp_path, monkeypatch, capsys, loopback, script)
        assert code == 2 and slept == []
        assert err == f"error: {ingest.API_ROOT}/repos/demo/proj/issues page 1: expected a JSON list, got NoneType\n"
