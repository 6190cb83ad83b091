from __future__ import annotations

import json
import random
import string
from pathlib import Path

import pytest

from elia.core import CompanyRef, Sentence, TransactionTriple
from elia.errors import BackendError, ConfigError, ExtractionFormatError, RateLimitError
from elia.extraction import (
    FewShotExample,
    HttpCompletionBackend,
    PromptConfig,
    RecordedBackend,
    RetryPolicy,
    RuleBasedBackend,
    build_prompt,
    extract_batch,
    format_triple_line,
    load_examples,
    parse_triple_line,
)
from conftest import fixture_path

DATA29 = Path(__file__).parent / "data" / "extraction29"


def one_example():
    return FewShotExample(
        input="Amazon relies heavily on UPS for the delivery of its goods.",
        output="Buyer: Amazon, Supplier: UPS, Item: delivery services",
    )


def bundled_examples():
    return load_examples(str(fixture_path("few_shot.ndjson")))


def cfg_with(examples):
    return PromptConfig(examples=examples)


def test_prompt_contains_examples_and_ends_open():
    target = "Samsung's OLED screens are sourced mainly from LG Display."
    prompt = build_prompt(cfg_with([one_example()]), target)
    assert prompt.endswith("Output:")
    assert "Amazon relies heavily on UPS for the delivery of its goods." in prompt
    assert target in prompt


def test_prompt_with_empty_instruction_starts_with_first_example():
    cfg = PromptConfig(examples=[one_example()], instruction="")
    prompt = build_prompt(cfg, "target sentence")
    assert prompt.startswith("Input: Amazon relies heavily")


def test_prompt_marker_count_with_six_examples():
    examples = bundled_examples()
    assert len(examples) == 6
    prompt = build_prompt(cfg_with(examples), "target sentence")
    assert prompt.count("Input:") == 7


def test_prompt_is_byte_deterministic():
    cfg = cfg_with(bundled_examples())
    assert build_prompt(cfg, "x") == build_prompt(cfg, "x")


def test_parse_simple_triple():
    t = parse_triple_line("Buyer: Samsung, Supplier: LG Display, Item: OLED screens")
    assert t.buyer.raw_name == "Samsung"
    assert t.supplier.raw_name == "LG Display"
    assert t.item == "OLED screens"
    assert not t.has_placeholders


def test_parse_placeholders_preserved_and_flagged():
    t = parse_triple_line("Buyer: <Your company>, Supplier: <Italian supplier>, Item: leather")
    assert t.buyer.raw_name == "<Your company>"
    assert t.supplier.raw_name == "<Italian supplier>"
    assert t.item == "leather"
    assert t.has_placeholders
    assert t.buyer.placeholder and t.supplier.placeholder


def test_parse_null_markers():
    t = parse_triple_line("Buyer: N/A, Supplier: Maersk, Item: none")
    assert t.buyer is None
    assert t.supplier.raw_name == "Maersk"
    assert t.item is None


def test_parse_missing_key_is_null():
    t = parse_triple_line("Buyer: Apple, Item: camera modules")
    assert t.supplier is None


def test_parse_keeps_commas_inside_item():
    t = parse_triple_line("Buyer: A, Supplier: B, Item: bolts, nuts, and washers")
    assert t.item == "bolts, nuts, and washers"


def test_parse_case_insensitive_keys():
    t = parse_triple_line("buyer: A, SUPPLIER: B, item: C")
    assert (t.buyer.raw_name, t.supplier.raw_name, t.item) == ("A", "B", "C")


def test_parse_unrecognized_text_fails():
    with pytest.raises(ExtractionFormatError) as err:
        parse_triple_line("no transaction found")
    assert err.value.raw_text == "no transaction found"


def test_parse_all_null_fails():
    with pytest.raises(ExtractionFormatError):
        parse_triple_line("Buyer: N/A, Supplier: N/A, Item: N/A")


def test_parse_uses_first_nonempty_line():
    t = parse_triple_line("\n  Buyer: A, Supplier: B, Item: C\nextra prose")
    assert t.item == "C"


def test_bundled_outputs_round_trip_byte_identically():
    examples = bundled_examples()
    assert len(examples) == 6
    for ex in examples:
        triple = parse_triple_line(ex.output)
        assert format_triple_line(triple) == ex.output


def _random_value(rng: random.Random) -> str:
    alphabet = string.ascii_letters + string.digits + " -&'"
    while True:
        value = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 18))).strip()
        if value and value.lower() not in {"n/a", "none", "null"}:
            return value


def test_round_trip_1000_random_comma_free_triples():
    rng = random.Random(20201201)
    for _ in range(1000):
        triple = TransactionTriple(
            buyer=CompanyRef(_random_value(rng), role_hint="buyer"),
            supplier=CompanyRef(_random_value(rng), role_hint="supplier"),
            item=_random_value(rng),
            source_id="sX",
        )
        line = format_triple_line(triple)
        assert parse_triple_line(line, source_id="sX") == triple


def test_few_shot_example_validates_output():
    with pytest.raises(ExtractionFormatError):
        FewShotExample(input="something", output="not a triple at all")


def test_prompt_config_validation():
    with pytest.raises(ValueError):
        PromptConfig(examples=[])
    with pytest.raises(ValueError):
        PromptConfig(examples=[one_example()], temperature=3.0)


class StaticBackend:
    """Always returns the same response text."""

    def __init__(self, response):
        self.response = response
        self.calls = 0

    def complete(self, prompt, cfg):
        self.calls += 1
        return self.response


def make_sentences(*texts):
    return [Sentence(transcript_id="t", index=i, text=text) for i, text in enumerate(texts)]


def test_extract_batch_mock_determinism():
    sentences = make_sentences("Apple buys from Sony.", "Tesla buys from Panasonic.")
    responses = {
        sentences[0].text: "Buyer: Apple, Supplier: Sony, Item: sensors",
        sentences[1].text: "Buyer: Tesla, Supplier: Panasonic, Item: cells",
    }
    backend = RecordedBackend(responses)
    cfg = cfg_with([one_example()])
    triples, errors = extract_batch(sentences, cfg, backend)
    assert len(triples) == 2 and errors == []
    assert [t.source_id for t in triples] == [s.id for s in sentences]
    again, _ = extract_batch(sentences, cfg, backend)
    assert again == triples


def test_extract_batch_partial_failure():
    sentences = make_sentences("one", "two", "three")
    responses = {
        "one": "Buyer: A, Supplier: B, Item: C",
        "two": "garbage with no keys",
        "three": "Buyer: D, Supplier: E, Item: F",
    }
    backend = RecordedBackend(responses)
    triples, errors = extract_batch(sentences, cfg_with([one_example()]), backend)
    assert len(triples) == 2
    assert len(errors) == 1
    assert errors[0][0] == sentences[1].id
    assert isinstance(errors[0][1], ExtractionFormatError)
    assert len(triples) + len(errors) == len(sentences)


def test_extract_batch_count_invariant_with_missing_fixture():
    sentences = make_sentences("known", "unknown")
    backend = RecordedBackend({"known": "Buyer: A, Supplier: B, Item: C"})
    triples, errors = extract_batch(sentences, cfg_with([one_example()]), backend)
    assert len(triples) == 1 and len(errors) == 1
    assert isinstance(errors[0][1], BackendError)


def test_recorded_backend_sees_a_target_that_contains_an_input_marker():
    text = "Input: costs rose as Acme buys steel from Beta Corp."
    sentences = make_sentences(text)
    backend = RecordedBackend({text: "Buyer: Acme, Supplier: Beta Corp, Item: steel"})
    triples, errors = extract_batch(sentences, cfg_with([one_example()]), backend)
    assert errors == []
    assert [(t.buyer.raw_name, t.supplier.raw_name, t.item) for t in triples] == [
        ("Acme", "Beta Corp", "steel")
    ]


def test_extract_batch_preserves_input_order_with_concurrency():
    texts = [f"sentence number {i}" for i in range(16)]
    sentences = make_sentences(*texts)
    backend = RecordedBackend(
        {text: f"Buyer: B{i}, Supplier: S{i}, Item: I{i}" for i, text in enumerate(texts)}
    )
    triples, errors = extract_batch(sentences, cfg_with([one_example()]), backend, concurrency=8)
    assert errors == []
    assert [t.buyer.raw_name for t in triples] == [f"B{i}" for i in range(16)]


def test_recorded_fixture_29_outcomes_match_gold():
    sentences = [
        Sentence.from_dict(json.loads(line))
        for line in (DATA29 / "sentences.ndjson").read_text().splitlines()
    ]
    assert len(sentences) == 29
    backend = RecordedBackend.from_fixture(str(DATA29 / "responses.ndjson"), sentences)
    triples, errors = extract_batch(sentences, cfg_with(bundled_examples()), backend)
    assert errors == []
    assert len(triples) == 29
    gold = {
        row["source_id"]: row
        for row in map(json.loads, (DATA29 / "gold.ndjson").read_text().splitlines())
    }
    for t in triples:
        expected = gold[t.source_id]
        assert (t.buyer.raw_name if t.buyer else None) == expected["buyer"]
        assert (t.supplier.raw_name if t.supplier else None) == expected["supplier"]
        assert t.item == expected["item"]


class FlakyBackend:
    def __init__(self, failures, exc=None):
        self.remaining = failures
        self.exc = exc or BackendError("transient")
        self.calls = 0

    def complete(self, prompt, cfg):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc
        return "Buyer: A, Supplier: B, Item: C"


def test_retry_recovers_from_transient_failures():
    sleeps = []
    backend = FlakyBackend(failures=2)
    policy = RetryPolicy(max_attempts=3, base_delay=1.0, sleep=sleeps.append)
    triples, errors = extract_batch(
        make_sentences("x"), cfg_with([one_example()]), backend, retry=policy
    )
    assert len(triples) == 1 and not errors
    assert backend.calls == 3
    assert sleeps == [1.0, 2.0]  # exponential backoff from 1s


def test_retry_exhaustion_reports_error():
    backend = FlakyBackend(failures=99)
    policy = RetryPolicy(max_attempts=3, sleep=lambda _: None)
    triples, errors = extract_batch(
        make_sentences("x"), cfg_with([one_example()]), backend, retry=policy
    )
    assert triples == [] and len(errors) == 1
    assert backend.calls == 3


def test_rate_limit_delay_is_honored():
    sleeps = []
    backend = FlakyBackend(failures=1, exc=RateLimitError("slow down", retry_after=7.5))
    policy = RetryPolicy(max_attempts=3, base_delay=1.0, sleep=sleeps.append)
    extract_batch(make_sentences("x"), cfg_with([one_example()]), backend, retry=policy)
    assert sleeps == [7.5]


def test_non_retryable_errors_fail_fast():
    backend = FlakyBackend(failures=99, exc=BackendError("bad request", retryable=False))
    policy = RetryPolicy(max_attempts=3, sleep=lambda _: None)
    _, errors = extract_batch(make_sentences("x"), cfg_with([one_example()]), backend, retry=policy)
    assert len(errors) == 1
    assert backend.calls == 1


class FakeResponse:
    def __init__(self, status_code=200, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.headers = headers or {}

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, response):
        self.response = response
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append((url, json, headers))
        return self.response


def test_http_backend_posts_prompt_and_reads_choice(monkeypatch):
    monkeypatch.setenv("ELIA_API_KEY", "secret-token")
    session = FakeSession(FakeResponse(payload={"choices": [{"text": "Buyer: A, Supplier: B, Item: C"}]}))
    backend = HttpCompletionBackend("https://example.test/v1/completions", session=session)
    cfg = cfg_with([one_example()])
    out = backend.complete("PROMPT", cfg)
    assert out == "Buyer: A, Supplier: B, Item: C"
    url, body, headers = session.requests[0]
    assert url == "https://example.test/v1/completions"
    assert body == {
        "model": cfg.model_name,
        "prompt": "PROMPT",
        "temperature": 0.1,
        "max_tokens": cfg.max_tokens,
    }
    assert headers["Authorization"] == "Bearer secret-token"


def test_http_backend_missing_key_fails_before_network(monkeypatch):
    monkeypatch.delenv("ELIA_API_KEY", raising=False)
    session = FakeSession(FakeResponse())
    backend = HttpCompletionBackend("https://example.test/v1", session=session)
    with pytest.raises(ConfigError):
        backend.complete("PROMPT", cfg_with([one_example()]))
    assert session.requests == []


def test_http_backend_rate_limit(monkeypatch):
    monkeypatch.setenv("ELIA_API_KEY", "k")
    session = FakeSession(FakeResponse(status_code=429, headers={"Retry-After": "3"}))
    backend = HttpCompletionBackend("https://example.test", session=session)
    with pytest.raises(RateLimitError) as err:
        backend.complete("P", cfg_with([one_example()]))
    assert err.value.retry_after == 3.0


def test_http_backend_server_error_retryable_client_error_not(monkeypatch):
    monkeypatch.setenv("ELIA_API_KEY", "k")
    for status, retryable in ((502, True), (403, False)):
        session = FakeSession(FakeResponse(status_code=status))
        backend = HttpCompletionBackend("https://example.test", session=session)
        with pytest.raises(BackendError) as err:
            backend.complete("P", cfg_with([one_example()]))
        assert err.value.retryable is retryable


def test_rule_based_backend_patterns():
    backend = RuleBasedBackend()
    cfg = cfg_with([one_example()])
    prompt = build_prompt(cfg, "Amazon relies heavily on UPS for the delivery of its goods.")
    assert backend.complete(prompt, cfg) == (
        "Buyer: Amazon, Supplier: UPS, Item: delivery of its goods"
    )
    prompt = build_prompt(cfg, "Samsung's OLED screens are sourced mainly from LG Display.")
    assert backend.complete(prompt, cfg) == (
        "Buyer: Samsung, Supplier: LG Display, Item: OLED screens"
    )


def test_rule_based_backend_falls_back_to_mentions():
    from elia.transcripts import Gazetteer

    backend = RuleBasedBackend(Gazetteer(entries={"Apple", "Sony"}))
    cfg = cfg_with([one_example()])
    prompt = build_prompt(cfg, "Apple talked about Sony during the call.")
    assert backend.complete(prompt, cfg) == "Buyer: Apple, Supplier: Sony, Item: N/A"
