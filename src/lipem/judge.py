"""Live judge plumbing: prompts, transport, replay cache, telemetry.

The statistical core never needs a network.  This module holds the
best-effort glue for asking a hosted language model to pick the most
relevant candidate from a subgroup: prompt assembly from per-source
summaries, an HTTP JSON transport with bounded rate-limit retries, an
append-only replay log so completed queries are never re-asked, and a
telemetry counter block.  Malformed replies raise and are dropped by the
driver (counted, never coerced into a choice).

Any callable ``prompt -> str`` works as a transport, which is how tests
script the judge without a network.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    InvalidConfigurationError,
    MalformedJudgeResponseError,
    ParseError,
    RateLimitedError,
    TransportError,
)
from .lip import ChoiceRecord, sample_subgroups

__all__ = [
    "TransportConfig",
    "HttpTransport",
    "ReplayLog",
    "JudgeTelemetry",
    "build_prompt",
    "parse_choice",
    "llm_judge",
    "elicit_records",
    "summarize_dataset",
]

API_KEY_ENV = "LIPEM_API_KEY"
API_URL_ENV = "LIPEM_API_URL"
# a rate-limited query is retried this many times, this many seconds apart
MAX_RETRIES = 3
RETRY_WAIT = 1.0


@dataclass
class TransportConfig:
    """Connection settings; the API key is only ever read from the
    environment, never from configuration files."""

    base_url: str = ""
    model: str = ""
    temperature: float = 0.0
    timeout: float = 60.0

    def resolved_url(self) -> str:
        url = os.environ.get(API_URL_ENV, "") or self.base_url
        if not url:
            raise InvalidConfigurationError(
                f"no endpoint configured; set {API_URL_ENV} or base_url", key=API_URL_ENV
            )
        return url


class HttpTransport:
    """POSTs a chat-style JSON payload and returns the reply text."""

    def __init__(self, config: TransportConfig):
        self.config = config

    def __call__(self, prompt: str) -> str:
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        data = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        request = urllib.request.Request(
            self.config.resolved_url(), data=data, headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self.config.timeout) as resp:
                body = json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 429:
                raise RateLimitedError("judge endpoint returned 429") from exc
            raise TransportError(f"judge endpoint returned HTTP {exc.code}") from exc
        except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as exc:
            raise TransportError(f"judge request failed: {exc}") from exc
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError("judge response missing message content") from exc


class ReplayLog:
    """Append-only JSONL cache keyed by a digest of the full prompt.

    Replaying means a completed (context, subgroup, summaries) query is
    answered from disk with no transport at all; appends are serialized
    under a lock so concurrent judges cannot interleave partial lines.

    A crash during an append can leave the last line cut off, or whole
    but without its newline.  Loading skips a malformed last line and
    counts it in ``truncated``; the next append first cuts it from the
    file, or ends the unterminated line, so the log stays valid JSONL.
    A malformed line anywhere else raises ``ParseError``.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self.truncated = 0
        # (byte offset to cut the file at, text to write there) before
        # the next append, when the last line needs mending
        self._mend: tuple[int, str] | None = None
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        if data and not data.endswith(b"\n"):
            self._mend = (len(data), "\n")
        lines = data.splitlines(keepends=True)
        last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
        offset = 0
        for index, line in enumerate(lines):
            start, offset = offset, offset + len(line)
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                self._entries[entry["key"]] = entry
            except (ValueError, KeyError, TypeError) as exc:
                if index != last:
                    raise ParseError(
                        f"{self.path}: line {index + 1}: malformed replay entry: {exc}",
                        line_number=index + 1,
                    ) from exc
                self.truncated += 1
                self._mend = (start, "")

    def get(self, key: str) -> dict | None:
        return self._entries.get(key)

    def put(self, key: str, record: dict) -> None:
        entry = {"key": key, **record}
        with self._lock:
            self._entries[key] = entry
            with self.path.open("a", encoding="utf-8") as fh:
                if self._mend is not None:
                    cut_at, text = self._mend
                    fh.truncate(cut_at)
                    fh.write(text)
                    self._mend = None
                fh.write(json.dumps(entry, sort_keys=True) + "\n")


@dataclass
class JudgeTelemetry:
    """Counters accumulated over an elicitation run."""

    queries: int = 0
    cache_hits: int = 0
    retries: int = 0
    malformed: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, counter: str, by: int = 1) -> None:
        # increments may come from several judge threads at once
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)


def summarize_dataset(data, max_bytes: int = 2000) -> str:
    """Compact text sketch of a dataset: shape, first/last rows, and
    per-column summary statistics, truncated to a byte budget."""
    pts = np.asarray(data.points, dtype=float)
    with np.printoptions(precision=4, suppress=True):
        parts = [
            f"rows={pts.shape[0]} cols={pts.shape[1]}",
            f"first={pts[0].tolist() if pts.shape[0] else []}",
            f"last={pts[-1].tolist() if pts.shape[0] else []}",
            f"mean={np.round(pts.mean(axis=0), 4).tolist() if pts.shape[0] else []}",
            f"std={np.round(pts.std(axis=0), 4).tolist() if pts.shape[0] else []}",
            f"min={np.round(pts.min(axis=0), 4).tolist() if pts.shape[0] else []}",
            f"max={np.round(pts.max(axis=0), 4).tolist() if pts.shape[0] else []}",
        ]
    text = "; ".join(parts)
    encoded = text.encode("utf-8")
    if len(encoded) > max_bytes:
        text = encoded[:max_bytes].decode("utf-8", errors="ignore")
    return text


def build_prompt(context: str, subgroup: Sequence[int], summaries: Mapping[int, str]) -> str:
    """Assemble the multiple-choice question shown to the judge."""
    members = sorted(int(i) for i in subgroup)
    missing = [i for i in members if i not in summaries]
    if missing:
        raise InvalidConfigurationError(f"no summaries for subgroup members {missing}")
    lines = [
        context.strip(),
        "",
        "Candidate data sources:",
    ]
    for i in members:
        lines.append(f"Option {i}: {summaries[i]}")
    lines.append("Option 0: none of the candidates is relevant.")
    lines.append("")
    lines.append(
        "Pick the single most relevant option. "
        'Reply with exactly one JSON object, e.g. {"choice": 3}.'
    )
    return "\n".join(lines)


def _prompt_key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


_INT_PATTERN = re.compile(r"-?\d+")


def parse_choice(text: str, subgroup: Sequence[int]) -> int:
    """Parse a constrained judge reply into a valid option index.

    Accepts a JSON object with a ``choice`` field, or a reply containing
    exactly one integer token.  Anything else, or an index outside the
    subgroup plus null, raises MalformedJudgeResponseError.
    """
    allowed = {0} | {int(i) for i in subgroup}
    candidate = None
    try:
        obj = json.loads(text)
        if isinstance(obj, dict) and isinstance(obj.get("choice"), int):
            candidate = obj["choice"]
        elif isinstance(obj, int):
            candidate = obj
    except (json.JSONDecodeError, TypeError):
        pass
    if candidate is None:
        tokens = _INT_PATTERN.findall(text or "")
        if len(tokens) == 1:
            candidate = int(tokens[0])
    if candidate is None:
        raise MalformedJudgeResponseError(f"could not parse a choice from {text!r}")
    if candidate not in allowed:
        raise MalformedJudgeResponseError(
            f"choice {candidate} outside subgroup {sorted(allowed - {0})} and null"
        )
    return int(candidate)


def llm_judge(
    transport: Callable[[str], str] | None,
    context: str,
    subgroup: Sequence[int],
    summaries: Mapping[int, str],
    *,
    replay: ReplayLog | None = None,
    telemetry: JudgeTelemetry | None = None,
) -> int:
    """Ask the judge to pick from one subgroup, replay-cached.

    A replay hit answers without any transport.  Rate-limit responses are
    retried up to ``MAX_RETRIES`` times (each counted in telemetry);
    other transport failures propagate.  Malformed replies raise after
    being logged to the replay file, so a rerun will not re-ask them
    either.
    """
    telemetry = telemetry if telemetry is not None else JudgeTelemetry()
    prompt = build_prompt(context, subgroup, summaries)
    key = _prompt_key(prompt)
    if replay is not None:
        hit = replay.get(key)
        if hit is not None:
            telemetry.bump("cache_hits")
            if hit.get("malformed"):
                raise MalformedJudgeResponseError(
                    f"replayed response was malformed: {hit.get('raw')!r}"
                )
            return int(hit["choice"])
    if transport is None:
        raise TransportError("no transport available and no replay entry for this query")
    telemetry.bump("queries")
    attempts = 0
    while True:
        try:
            raw = transport(prompt)
            break
        except RateLimitedError:
            attempts += 1
            telemetry.bump("retries")
            if attempts > MAX_RETRIES:
                raise
            time.sleep(RETRY_WAIT)
    try:
        choice = parse_choice(raw, subgroup)
    except MalformedJudgeResponseError:
        telemetry.bump("malformed")
        if replay is not None:
            replay.put(key, {"subgroup": sorted(subgroup), "malformed": True, "raw": raw})
        raise
    if replay is not None:
        replay.put(key, {"subgroup": sorted(subgroup), "choice": choice, "raw": raw})
    return choice


def elicit_records(
    transport: Callable[[str], str] | None,
    context: str,
    summaries: Mapping[int, str],
    n_sources: int,
    sizes: Sequence[int],
    count: int,
    rng,
    *,
    replay: ReplayLog | None = None,
    jobs: int = 1,
) -> tuple[list[ChoiceRecord], JudgeTelemetry]:
    """Drive a full elicitation round over ``count`` sampled subgroups.

    Every source 1..K needs a summary; a missing one is refused before
    any query is sent.

    Queries may run concurrently up to ``jobs`` workers; record order
    always follows the query index.  Malformed replies are dropped and
    counted rather than retried or coerced.
    """
    telemetry = JudgeTelemetry()
    subgroups = sample_subgroups(n_sources, sizes, count, rng)
    # the first source without a summary, found within len(summaries) + 1 steps
    missing = next((i for i in range(1, n_sources + 1) if i not in summaries), None)
    if missing is not None:
        raise InvalidConfigurationError(
            f"no summary for source {missing}; sources 1..{n_sources} need one each",
            key="summaries",
        )

    def ask(subgroup):
        try:
            choice = llm_judge(
                transport,
                context,
                subgroup,
                summaries,
                replay=replay,
                telemetry=telemetry,
            )
            return ChoiceRecord(subgroup, choice)
        except MalformedJudgeResponseError:
            return None

    if jobs <= 1:
        answers = [ask(s) for s in subgroups]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            answers = list(pool.map(ask, subgroups))
    return [a for a in answers if a is not None], telemetry
