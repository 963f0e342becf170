"""Tests for judge plumbing: prompts, parsing, replay, retries.

Transports are plain callables here; nothing in this file touches a
network. The HTTP client is exercised against a stubbed urlopen.
"""

import io
import json
import threading
import urllib.error

import numpy as np
import pytest

from lipem import judge
from lipem.errors import (
    InvalidConfigurationError,
    MalformedJudgeResponseError,
    ParseError,
    RateLimitedError,
    TransportError,
)
from lipem.judge import (
    API_KEY_ENV,
    API_URL_ENV,
    HttpTransport,
    JudgeTelemetry,
    ReplayLog,
    TransportConfig,
    build_prompt,
    elicit_records,
    llm_judge,
    parse_choice,
    summarize_dataset,
)
from lipem.likelihood import Dataset

SUMMARIES = {1: "steady decay", 2: "fast decay", 3: "flat trace"}
CONTEXT = "Pick the source whose trend matches the target engine."


class ScriptedTransport:
    """Returns canned replies in order and records every prompt."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []
        self._lock = threading.Lock()

    def __call__(self, prompt):
        with self._lock:
            self.prompts.append(prompt)
            reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


class TestParseChoice:
    def test_json_object_form(self):
        assert parse_choice('{"choice": 2}', (1, 2, 3)) == 2

    def test_bare_integer_form(self):
        assert parse_choice("0", (1, 2)) == 0

    def test_single_integer_inside_prose(self):
        assert parse_choice("I pick option 3.", (1, 3)) == 3

    def test_out_of_subgroup_choice_rejected(self):
        with pytest.raises(MalformedJudgeResponseError):
            parse_choice('{"choice": 5}', (1, 2))

    def test_ambiguous_reply_rejected(self):
        with pytest.raises(MalformedJudgeResponseError):
            parse_choice("either 1 or 2", (1, 2))

    def test_empty_reply_rejected(self):
        with pytest.raises(MalformedJudgeResponseError):
            parse_choice("", (1, 2))

    def test_non_integer_choice_field_rejected(self):
        with pytest.raises(MalformedJudgeResponseError):
            parse_choice('{"choice": "one"}', (1, 2))


class TestBuildPrompt:
    def test_contains_every_option_and_the_null(self):
        prompt = build_prompt(CONTEXT, (3, 1), SUMMARIES)
        assert "Option 1: steady decay" in prompt
        assert "Option 3: flat trace" in prompt
        assert "Option 0" in prompt
        assert prompt.index("Option 1") < prompt.index("Option 3")

    def test_missing_summary_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            build_prompt(CONTEXT, (1, 4), SUMMARIES)


class TestSummarizeDataset:
    def test_mentions_shape_and_stats(self):
        data = Dataset(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
        text = summarize_dataset(data)
        assert "rows=3" in text
        assert "mean=" in text

    def test_respects_byte_budget(self):
        rng = np.random.default_rng(42)
        data = Dataset(rng.normal(size=(500, 8)))
        text = summarize_dataset(data, max_bytes=120)
        assert len(text.encode("utf-8")) <= 120


class TestLlmJudge:
    def test_scripted_success(self):
        transport = ScriptedTransport(['{"choice": 2}'])
        telemetry = JudgeTelemetry()
        choice = llm_judge(transport, CONTEXT, (1, 2), SUMMARIES, telemetry=telemetry)
        assert choice == 2
        assert telemetry.queries == 1
        assert telemetry.retries == 0

    def test_rate_limited_twice_then_success(self, monkeypatch):
        monkeypatch.setattr(judge, "MAX_RETRIES", 3)
        monkeypatch.setattr(judge, "RETRY_WAIT", 0.0)
        transport = ScriptedTransport(
            [RateLimitedError("slow down"), RateLimitedError("slow down"), "1"]
        )
        telemetry = JudgeTelemetry()
        choice = llm_judge(transport, CONTEXT, (1, 2), SUMMARIES, telemetry=telemetry)
        assert choice == 1
        assert telemetry.retries == 2

    def test_rate_limit_retries_are_bounded(self, monkeypatch):
        monkeypatch.setattr(judge, "MAX_RETRIES", 2)
        monkeypatch.setattr(judge, "RETRY_WAIT", 0.0)
        transport = ScriptedTransport([RateLimitedError("slow down")] * 5)
        with pytest.raises(RateLimitedError):
            llm_judge(transport, CONTEXT, (1, 2), SUMMARIES)
        # initial call plus exactly two retries
        assert len(transport.prompts) == 3

    def test_malformed_reply_raises_and_counts(self):
        transport = ScriptedTransport(["no idea"])
        telemetry = JudgeTelemetry()
        with pytest.raises(MalformedJudgeResponseError):
            llm_judge(transport, CONTEXT, (1, 2), SUMMARIES, telemetry=telemetry)
        assert telemetry.malformed == 1

    def test_replay_hit_answers_without_transport(self, tmp_path):
        log = ReplayLog(tmp_path / "replay.jsonl")
        transport = ScriptedTransport(['{"choice": 2}'])
        first = llm_judge(transport, CONTEXT, (1, 2), SUMMARIES, replay=log)
        telemetry = JudgeTelemetry()
        second = llm_judge(None, CONTEXT, (1, 2), SUMMARIES, replay=log, telemetry=telemetry)
        assert first == second == 2
        assert telemetry.cache_hits == 1
        assert len(transport.prompts) == 1

    def test_replay_survives_reload_from_disk(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        llm_judge(ScriptedTransport(["1"]), CONTEXT, (1, 2), SUMMARIES, replay=ReplayLog(path))
        reloaded = ReplayLog(path)
        assert llm_judge(None, CONTEXT, (1, 2), SUMMARIES, replay=reloaded) == 1

    def test_malformed_reply_is_replayed_as_malformed(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        log = ReplayLog(path)
        with pytest.raises(MalformedJudgeResponseError):
            llm_judge(ScriptedTransport(["garbage"]), CONTEXT, (1, 2), SUMMARIES, replay=log)
        # a rerun answers from the log without asking again, still failing
        with pytest.raises(MalformedJudgeResponseError):
            llm_judge(None, CONTEXT, (1, 2), SUMMARIES, replay=ReplayLog(path))

    def test_truncated_last_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        llm_judge(ScriptedTransport(["1"]), CONTEXT, (1, 2), SUMMARIES, replay=ReplayLog(path))
        # a crash during the next append leaves half a line behind
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"choice": 2, "key": "ab')
        log = ReplayLog(path)
        assert log.truncated == 1
        assert llm_judge(None, CONTEXT, (1, 2), SUMMARIES, replay=log) == 1
        # the next append replaces the cut-off line, so the file reloads cleanly
        llm_judge(ScriptedTransport(["2"]), CONTEXT, (2, 3), SUMMARIES, replay=log)
        reloaded = ReplayLog(path)
        assert reloaded.truncated == 0
        assert llm_judge(None, CONTEXT, (2, 3), SUMMARIES, replay=reloaded) == 2
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_unterminated_last_entry_is_kept(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        llm_judge(ScriptedTransport(["1"]), CONTEXT, (1, 2), SUMMARIES, replay=ReplayLog(path))
        # a crash between an entry and its newline
        path.write_text(path.read_text(encoding="utf-8").rstrip("\n"), encoding="utf-8")
        log = ReplayLog(path)
        llm_judge(ScriptedTransport(["2"]), CONTEXT, (2, 3), SUMMARIES, replay=log)
        reloaded = ReplayLog(path)
        assert reloaded.truncated == 0
        assert llm_judge(None, CONTEXT, (1, 2), SUMMARIES, replay=reloaded) == 1
        assert llm_judge(None, CONTEXT, (2, 3), SUMMARIES, replay=reloaded) == 2

    def test_malformed_inner_line_raises_parse_error(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        llm_judge(ScriptedTransport(["1"]), CONTEXT, (1, 2), SUMMARIES, replay=ReplayLog(path))
        good = path.read_text(encoding="utf-8")
        path.write_text('{"choice": 2, "key": "ab\n' + good, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            ReplayLog(path)
        assert err.value.line_number == 1

    def test_no_transport_and_no_replay_entry_fails(self):
        with pytest.raises(TransportError):
            llm_judge(None, CONTEXT, (1, 2), SUMMARIES)


class TestElicitRecords:
    def test_sequential_round_collects_in_query_order(self):
        from lipem.lip import sample_subgroups

        rng = np.random.default_rng(42)
        transport = ScriptedTransport(['{"choice": 0}'] * 6)
        records, telemetry = elicit_records(
            transport, CONTEXT, SUMMARIES, 3, [2, 3], 6, rng
        )
        assert len(records) == 6
        assert telemetry.queries == 6
        assert telemetry.malformed == 0
        expected = sample_subgroups(3, [2, 3], 6, np.random.default_rng(42))
        assert [rec.subgroup for rec in records] == expected
        assert all(rec.choice == 0 for rec in records)

    def test_malformed_replies_dropped_and_counted(self):
        rng = np.random.default_rng(42)
        transport = ScriptedTransport(["1", "nonsense", "2", "also nonsense"])
        records, telemetry = elicit_records(
            transport, CONTEXT, SUMMARIES, 3, [3], 4, rng
        )
        assert len(records) == 2
        assert telemetry.malformed == 2

    def test_concurrent_round_preserves_query_order(self):
        # replies arrive shuffled across threads, but the records must be
        # ordered by query index, so both runs agree record for record
        replies = ['{"choice": 1}'] * 12
        sequential, _ = elicit_records(
            ScriptedTransport(replies), CONTEXT, SUMMARIES, 3, [2, 3], 12,
            np.random.default_rng(7),
        )
        threaded, telemetry = elicit_records(
            ScriptedTransport(replies), CONTEXT, SUMMARIES, 3, [2, 3], 12,
            np.random.default_rng(7), jobs=4,
        )
        assert [r.subgroup for r in threaded] == [r.subgroup for r in sequential]
        assert telemetry.queries == 12

    def test_replay_makes_a_rerun_transport_free(self, tmp_path):
        log_path = tmp_path / "replay.jsonl"
        rng_args = dict(context=CONTEXT, summaries=SUMMARIES)
        transport = ScriptedTransport(['{"choice": 1}'] * 8)
        first, _ = elicit_records(
            transport, CONTEXT, SUMMARIES, 3, [2], 8,
            np.random.default_rng(3), replay=ReplayLog(log_path),
        )
        second, telemetry = elicit_records(
            None, CONTEXT, SUMMARIES, 3, [2], 8,
            np.random.default_rng(3), replay=ReplayLog(log_path),
        )
        assert second == first
        assert telemetry.queries == 0
        assert telemetry.cache_hits == 8


class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestHttpTransport:
    def test_missing_endpoint_rejected(self, monkeypatch):
        monkeypatch.delenv(API_URL_ENV, raising=False)
        transport = HttpTransport(TransportConfig())
        with pytest.raises(InvalidConfigurationError):
            transport("hello")

    def test_round_trip_and_key_header(self, monkeypatch):
        captured = {}

        def fake_urlopen(request, timeout):
            captured["url"] = request.full_url
            captured["auth"] = request.get_header("Authorization")
            captured["payload"] = json.loads(request.data.decode("utf-8"))
            body = {"choices": [{"message": {"content": '{"choice": 1}'}}]}
            return _FakeResponse(json.dumps(body).encode("utf-8"))

        monkeypatch.setenv(API_URL_ENV, "https://judge.example/v1/chat")
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        transport = HttpTransport(TransportConfig(model="judge-1"))
        assert transport("prompt text") == '{"choice": 1}'
        assert captured["url"] == "https://judge.example/v1/chat"
        assert captured["auth"] == "Bearer sk-test"
        assert captured["payload"]["model"] == "judge-1"
        assert captured["payload"]["messages"][0]["content"] == "prompt text"

    def test_rate_limit_status_maps_to_rate_limited(self, monkeypatch):
        def fake_urlopen(request, timeout):
            raise urllib.error.HTTPError(
                request.full_url, 429, "Too Many Requests", {}, io.BytesIO(b"")
            )

        monkeypatch.setenv(API_URL_ENV, "https://judge.example/v1/chat")
        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        with pytest.raises(RateLimitedError):
            HttpTransport(TransportConfig())("prompt")

    def test_other_http_errors_map_to_transport_error(self, monkeypatch):
        def fake_urlopen(request, timeout):
            raise urllib.error.HTTPError(
                request.full_url, 500, "Server Error", {}, io.BytesIO(b"")
            )

        monkeypatch.setenv(API_URL_ENV, "https://judge.example/v1/chat")
        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        with pytest.raises(TransportError):
            HttpTransport(TransportConfig())("prompt")

    def test_missing_content_rejected(self, monkeypatch):
        def fake_urlopen(request, timeout):
            return _FakeResponse(json.dumps({"choices": []}).encode("utf-8"))

        monkeypatch.setenv(API_URL_ENV, "https://judge.example/v1/chat")
        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        with pytest.raises(TransportError):
            HttpTransport(TransportConfig())("prompt")


class TestTelemetryThreadSafety:
    def test_concurrent_bumps_do_not_lose_counts(self):
        telemetry = JudgeTelemetry()

        def worker():
            for _ in range(1000):
                telemetry.bump("queries")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert telemetry.queries == 8000
