"""Mining issue discussions from an archive dump or a live tracker API.

Two sources, one shape: an on-disk archive (one JSON document per issue,
laid out ``<root>/<owner>__<name>/<number>.json``) or an HTTP transport
paging a GitHub-style issues API. Both yield raw issue dicts that
normalize_issue turns into Discussion records; commit links come from
commit messages and issue timeline events.

No state carries over between runs: each run fetches its whole window
again, and mine_projects replaces each output file whole, so a rerun
writes the same bytes and an interrupted run leaves earlier files intact.

The transport is injectable for tests: any callable
``(url, params, headers) -> (status, headers, payload)``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import re
import time

from .records import (
    CommitLinkEvent,
    Discussion,
    RecordError,
    Utterance,
    _check_int,
    normalize_timestamp,
)
from .storage import TEMP_SUFFIX, _iter_json, save_discussions, save_links, save_report

log = logging.getLogger(__name__)

API_ROOT = "https://api.github.com"
PER_PAGE = 100
MAX_RETRIES = 5  # retries of a failed request, with exponential backoff, before it fails for good

# "#123" style references: not preceded by a word char or '/', so
# "PR#12", "issue #12" match while "abc#12" in a URL path does not.
_ISSUE_REF = re.compile(r"(?<![\w/])#(\d+)\b")
_ISSUE_URL = re.compile(r"https?://github\.com/([\w.-]+/[\w.-]+)/issues/(\d+)\b")

# A project as GitHub spells one: owner/name, each of ASCII letters, digits, '_', '.' and '-'.
_PROJECT = re.compile(r"[A-Za-z0-9_.-]+/[A-Za-z0-9_.-]+")

# Timeline event types that carry a commit_id worth linking.
_LINKING_EVENTS = frozenset({"referenced", "cross-referenced", "closed"})

# What mine_projects writes under its out_dir: one <owner>__<name>.jsonl per project in _DISCUSSIONS.
_LINKS, _REPORT, _DISCUSSIONS = "links.jsonl", "mine-report.json", "discussions"


@dataclasses.dataclass
class MineReport:
    """Counters accumulated over one mining run."""

    issues_fetched: int = 0
    issues_in_window: int = 0
    pull_requests_excluded: int = 0
    issues_skipped: int = 0
    links_found: int = 0
    skip_reasons: list = dataclasses.field(default_factory=list)

    def record_skip(self, project, number, reason):
        self.issues_skipped += 1
        self.skip_reasons.append(
            {"project": project, "issue_number": number, "reason": str(reason)}
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _replaces(out_dir, path) -> bool:
    """True for a resolved path that mine_projects may write under the resolved out_dir.

    That is its links or report file, or any .jsonl file in its discussions
    directory, which a discussions loader would read, or the temp file
    (storage.TEMP_SUFFIX) of one of these.
    """
    rel = os.path.relpath(path, out_dir).removesuffix(TEMP_SUFFIX)
    return rel in (_LINKS, _REPORT) or (os.path.dirname(rel) == _DISCUSSIONS and rel.endswith(".jsonl"))


def project_dirname(project: str) -> str:
    if not _PROJECT.fullmatch(project):
        raise RecordError(f"project must look like owner/name, got {project!r}")
    return project.replace("/", "__")


class RawIssueArchive:
    """Read-only view over an issue dump on disk."""

    def __init__(self, root):
        if not os.path.isdir(root):
            raise RecordError(f"archive root {root!r} is not a directory")
        self.root = root

    def iter_issues(self, project: str):
        """Yield raw issue dicts for a project, lowest number first."""
        pdir = os.path.join(self.root, project_dirname(project))
        if not os.path.isdir(pdir):
            return
        names = [n for n in os.listdir(pdir) if n.endswith(".json")]

        def number_key(name):
            stem = name[:-5]
            return (0, int(stem)) if stem.isdigit() else (1, stem)

        for name in sorted(names, key=number_key):
            yield from _iter_json(os.path.join(pdir, name), lambda raw: raw, json.load)


def _auth_headers(token_env) -> dict:
    headers = {"Accept": "application/vnd.github+json"}
    if token_env:
        token = os.environ.get(token_env)
        if not token:
            raise ValueError(
                f"--token-env names {token_env!r} but that variable is unset"
            )
        headers["Authorization"] = f"Bearer {token}"
    return headers


def default_transport(url, params, headers):
    """HTTP GET via urllib, returning (status, headers, parsed JSON or None); an error status is a response too."""
    from urllib.error import HTTPError
    from urllib.parse import urlencode
    from urllib.request import Request, urlopen

    try:
        resp = urlopen(Request(f"{url}?{urlencode(params)}", headers=headers), timeout=30)
    except HTTPError as exc:
        resp = exc
    with resp:
        body = resp.read()
    try:
        payload = json.loads(body)
    except ValueError:
        payload = None
    return resp.status, dict(resp.headers), payload


class _TrackerError(RuntimeError, OSError):
    """A request that failed for good: an I/O failure, so the CLI exits 2."""


def _request(transport, url, params, headers, *, sleep):
    """The payload of one logical GET, with exponential backoff and rate-limit waits."""
    attempt = 0
    while True:
        try:
            status, resp_headers, payload = transport(url, params, headers)
        except Exception as exc:
            failure, cause = f"transport kept failing for {url}: {exc}", exc
        else:
            resp_headers = {name.lower(): value for name, value in resp_headers.items()}
            if status in (403, 429) and resp_headers.get("x-ratelimit-remaining") == "0":
                try:
                    delay = float(resp_headers.get("x-ratelimit-reset")) - time.time() + 1.0
                except (TypeError, ValueError):
                    delay = math.nan
                # Limits reset within the hour: a reset that is no finite time within a day waits 60 s.
                delay = max(1.0, delay) if math.isfinite(delay) and delay <= 86400.0 else 60.0
                log.info("rate limited; sleeping %.0fs", delay)
                sleep(delay)
                continue
            if status < 400:
                return payload
            if status < 500:
                raise _TrackerError(f"{url} returned {status}")
            failure, cause = f"{url} kept returning {status}", None
        if attempt >= MAX_RETRIES:
            raise _TrackerError(failure) from cause
        sleep(min(60.0, 2.0**attempt))
        attempt += 1


def _pages(transport, url, params, headers, *, sleep):
    """Yield the items of each non-empty page of a paged endpoint.

    The list ends at an empty page or at one shorter than PER_PAGE: the
    API fills every page but the last. A page that is not a JSON list
    (an error object, or a body that is not JSON) is a failed request.
    """
    page = 1
    while True:
        items = _request(
            transport, url, {**params, "per_page": PER_PAGE, "page": page}, headers, sleep=sleep
        )
        if not isinstance(items, list):
            raise _TrackerError(f"{url} page {page}: expected a JSON list, got {type(items).__name__}")
        if not items:
            return
        yield items
        if len(items) < PER_PAGE:
            return
        page += 1


def _window(since, until):
    """The normalized (since, until); raises RecordError for a bad timestamp, ValueError for an empty window."""
    since, until = normalize_timestamp(since), normalize_timestamp(until)
    if until <= since:
        raise ValueError(f"empty window: since={since} until={until}")
    return since, until


def _stamp(value):
    """normalize_timestamp(value), or None for a value that is not a usable timestamp."""
    try:
        return normalize_timestamp(value)
    except RecordError:
        return None


def _tracker_issues(transport, project, since, until, headers, sleep):
    """Yield the items of the issues endpoint's pages, oldest first, always from page 1.

    An object created at or after `until` is dropped, and no page is
    requested after the first page that held one.
    """
    url = f"{API_ROOT}/repos/{project}/issues"
    params = {"state": "all", "sort": "created", "direction": "asc", "since": since}
    for items in _pages(transport, url, params, headers, sleep=sleep):
        kept = [raw for raw in items if not isinstance(raw, dict) or (_stamp(raw.get("created_at")) or "") < until]
        yield from kept
        if len(kept) < len(items):
            return


def _with_comments(raw, transport, headers, sleep):
    """A tracker issue with its comments as a list: an embedded list as is,
    [] for a count of 0 or no comments_url, else every page of comments_url.
    """
    comments = raw.get("comments")
    if isinstance(comments, list):
        return raw
    url = raw.get("comments_url")
    if not url or (type(comments) is int and comments == 0):
        return dict(raw, comments=[])
    pages = _pages(transport, url, {}, headers, sleep=sleep)
    return dict(raw, comments=[c for items in pages for c in items])


def fetch_issues(
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

    The sources differ only in where raw issues come from: the archive, or
    the tracker's issues pages (_tracker_issues), which drop items created
    at or after `until` uncounted. One window rule applies to both: each
    issue counts in ``issues_fetched``, a non-object or unparsable
    created_at is a skipped issue, a pull request is excluded, and an
    issue created exactly at `until` is out. An in-window tracker issue
    gets its comments before it is yielded.
    """
    since, until = _window(since, until)
    report = report if report is not None else MineReport()
    if archive is not None:
        raws, complete = archive.iter_issues(project), None
    else:
        transport = transport or default_transport
        headers = _auth_headers(token_env)
        raws = _tracker_issues(transport, project, since, until, headers, sleep)
        complete = lambda raw: _with_comments(raw, transport, headers, sleep)
    for raw in raws:
        report.issues_fetched += 1
        if not isinstance(raw, dict):
            report.record_skip(project, None, f"expected a JSON object, got {type(raw).__name__}")
        elif raw.get("pull_request") is not None:
            report.pull_requests_excluded += 1
        elif (created := _stamp(raw.get("created_at"))) is None:
            report.record_skip(project, raw.get("number"), "bad created_at")
        elif since <= created < until:
            report.issues_in_window += 1
            yield complete(raw) if complete else raw


def _utf8(text, field):
    """text, or RecordError naming `field` when it holds a lone surrogate, which UTF-8 cannot encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise RecordError(str(exc), field=field) from None
    return text


def _author_of(raw, prefix="") -> str:
    user = raw.get("user")
    if isinstance(user, dict) and user.get("login"):
        return _utf8(str(user["login"]), f"{prefix}user.login")
    if isinstance(raw.get("author"), str):
        return _utf8(raw["author"], f"{prefix}author")
    return ""


def normalize_issue(raw: dict, project: str) -> Discussion:
    """Turn one raw issue dict into a validated Discussion.

    The issue body (when non-blank) becomes utterance 0; comments follow,
    re-sorted by creation time. Raises RecordError for records that cannot
    be a discussion (missing title, missing number, broken timestamps, a
    comment that is not an object, comments predating the report, a title,
    body or author that UTF-8 cannot encode).
    """
    number = _check_int(raw.get("number"), "number", 1)
    title = raw.get("title")
    if not isinstance(title, str) or not title.strip():
        raise RecordError("missing title", field="title")
    _utf8(title, "title")
    created_at = normalize_timestamp(raw.get("created_at"))

    utterances = []
    body = raw.get("body")
    if isinstance(body, str) and body.strip():
        utterances.append((created_at, _author_of(raw), _utf8(body, "body")))
    comments = raw.get("comments")
    if isinstance(comments, list):
        parsed = []
        for i, c in enumerate(comments):
            if not isinstance(c, dict):
                raise RecordError(f"comment {i}: expected a JSON object, got {type(c).__name__}")
            cbody = c.get("body")
            if not isinstance(cbody, str) or not cbody.strip():
                continue
            at = f"comments[{i}]."
            parsed.append((normalize_timestamp(c.get("created_at")), _author_of(c, at), _utf8(cbody, f"{at}body")))
        parsed.sort(key=lambda t: t[0])
        utterances.extend(parsed)

    return Discussion(
        id=f"{project}#{number}",
        project=project,
        issue_number=number,
        title=title.strip(),
        created_at=created_at,
        utterances=tuple(
            Utterance(index=i, author=a, created_at=t, body_raw=b)
            for i, (t, a, b) in enumerate(utterances)
        ),
    )


class CommitsError(RecordError):
    """A project's commit records do not parse; mine_projects raises it before any request."""


def normalize_commits(commits):
    """Parse one project's commits into (sha, message, timestamp) triples.

    Two forms are accepted: a mapping of sha to a message string or to an
    object, and a list of objects that each carry a ``sha``. ``message``
    defaults to "" and an absent or empty ``timestamp`` to None; a given
    timestamp comes back normalized. Raises RecordError naming the entry
    (the sha, or the list index) and the field of the first bad commit.
    """
    if isinstance(commits, dict):
        entries = [
            (sha, sha, {"message": val} if isinstance(val, str) else val)
            for sha, val in commits.items()
        ]
        shape = "a message string or a JSON object"
    elif isinstance(commits, (list, tuple)):
        entries = [
            (i, rec.get("sha") if isinstance(rec, dict) else None, rec)
            for i, rec in enumerate(commits)
        ]
        shape = "a JSON object"
    else:
        raise RecordError(
            "expected a list of commits or an object keyed by sha, "
            f"got {type(commits).__name__}"
        )
    out = []
    for key, sha, rec in entries:
        if not isinstance(rec, dict):
            raise RecordError(f"entry {key}: expected {shape}, got {rec!r}")
        if sha is None:
            raise RecordError(f"entry {key}: field 'sha': missing")
        if not isinstance(sha, str) or not sha:
            raise RecordError(f"entry {key}: field 'sha': expected a non-empty string, got {sha!r}")
        message = rec.get("message", "")
        if not isinstance(message, str):
            raise RecordError(f"entry {key}: field 'message': expected a string, got {message!r}")
        ts = rec.get("timestamp")
        try:
            ts = normalize_timestamp(ts) if ts else None
        except RecordError as exc:
            raise RecordError(f"entry {key}: field 'timestamp': {exc}") from None
        out.append((sha, message, ts))
    return out


def extract_commit_links(project, commits, raw_issues=()) -> list[CommitLinkEvent]:
    """Find (issue, commit) associations for one project.

    `commits` holds the project's (sha, message, timestamp) triples as
    normalize_commits returns them. Message references: "#N" in a commit
    message links that commit to issue N of the same project; a full
    issues URL links to whatever project the URL names. Timeline evidence:
    referenced/cross-referenced/closed events on a mined issue that carry
    a commit_id. A link takes its evidence's own time (the commit's
    timestamp, the event's created_at); without one, the mined issue's
    created_at if the link names this project; else it is dropped with a
    warning. One event per (project, issue, sha, source) survives
    deduplication. An issue whose number is not an int >= 1 is ignored, as
    is (with a warning) a timeline that is not a list or an event that is not an object.
    """
    numbered = []
    for raw in raw_issues:
        try:
            numbered.append((_check_int(raw.get("number"), "number", 1), raw))
        except RecordError:
            pass
    issue_created = {num: ts for num, raw in numbered if (ts := _stamp(raw.get("created_at")))}
    events = {}

    def add(link_project, number, sha, ts, source):
        linked_at = ts or (issue_created.get(number) if link_project == project else None)
        if linked_at is None:
            log.warning("dropping %s link %s#%s -> %s: no usable timestamp", source, link_project, number, sha)
            return
        try:
            ev = CommitLinkEvent(
                project=link_project, issue_number=number, commit_sha=sha, linked_at=linked_at, link_source=source
            )
        except RecordError as exc:
            log.warning("dropping malformed link %s#%s -> %s: %s", link_project, number, sha, exc)
            return
        events.setdefault((link_project, number, sha.lower(), source), ev)

    for sha, message, ts in commits:
        for m in _ISSUE_REF.finditer(message):
            add(project, int(m.group(1)), sha, ts, "message_reference")
        for m in _ISSUE_URL.finditer(message):
            add(m.group(1), int(m.group(2)), sha, ts, "message_reference")

    for number, raw in numbered:
        timeline = raw.get("timeline", [])
        if not isinstance(timeline, list):
            log.warning("ignoring timeline of %s#%s: not a list", project, number)
            timeline = []
        for ev in timeline:
            if not isinstance(ev, dict):
                log.warning("ignoring timeline event of %s#%s: not a JSON object", project, number)
                continue
            if ev.get("event") not in _LINKING_EVENTS:
                continue
            if ev.get("commit_id"):
                add(project, number, ev["commit_id"], _stamp(ev.get("created_at")), "timeline_event")

    return sorted(events.values(), key=lambda e: (e.project, e.issue_number, e.commit_sha, e.link_source))


def mine_projects(
    projects,
    since,
    until,
    out_dir,
    *,
    archive_root=None,
    token_env=None,
    commits_by_project=None,
    transport=None,
    cursor_path=None,
    sleep=time.sleep,
) -> MineReport:
    """Mine every project, writing discussions, links, and a report.

    Output layout under out_dir: ``discussions/<owner>__<name>.jsonl``,
    ``links.jsonl``, ``mine-report.json``. Every run mines the whole
    window again, so the same inputs give the same bytes. Each file is
    written beside its target and then moved onto it, so a run that fails
    or is killed leaves every earlier file whole. Before any request or
    write, it raises RecordError for a project name that is not
    ``owner/name`` made of ASCII letters, digits, ``_``, ``.`` and ``-``,
    for two projects that would write one discussions file (one name
    listed twice, say) or for a window bound that does not parse;
    CommitsError naming the project for commits that do not parse; and
    ValueError for an empty window or, online, an unset ``token_env``.
    ``cursor_path`` is accepted and ignored; it remains only for callers
    that still pass it.
    """
    projects_by_dirname = {}
    for project in projects:
        dirname = project_dirname(project)
        if dirname in projects_by_dirname:
            first = projects_by_dirname[dirname]
            raise RecordError(f"projects {first!r} and {project!r} both write {_DISCUSSIONS}/{dirname}.jsonl")
        projects_by_dirname[dirname] = project
    commit_records = {}
    for project, commits in (commits_by_project or {}).items():
        try:
            commit_records[project] = normalize_commits(commits)
        except RecordError as exc:
            raise CommitsError(f"project {project}: {exc}") from None
    _window(since, until)
    report = MineReport()
    archive = RawIssueArchive(archive_root) if archive_root else None
    if archive is None:
        _auth_headers(token_env)
    disc_dir = os.path.join(out_dir, _DISCUSSIONS)
    os.makedirs(disc_dir, exist_ok=True)

    all_links = []
    for dirname, project in projects_by_dirname.items():
        raws = list(
            fetch_issues(
                project,
                since,
                until,
                archive=archive,
                token_env=token_env,
                transport=transport,
                report=report,
                sleep=sleep,
            )
        )
        discussions = []
        for raw in raws:
            try:
                discussions.append(normalize_issue(raw, project))
            except RecordError as exc:
                report.record_skip(project, raw.get("number"), exc)
        save_discussions(os.path.join(disc_dir, f"{dirname}.jsonl"), discussions)
        links = extract_commit_links(project, commit_records.get(project, []), raws)
        report.links_found += len(links)
        all_links.extend(links)

    save_links(os.path.join(out_dir, _LINKS), all_links)
    save_report(os.path.join(out_dir, _REPORT), report.to_dict())
    return report
