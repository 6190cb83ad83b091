"""Few-shot prompt construction, completion backends, and triple parsing.

Three backends ship with the toolkit:

* ``HttpCompletionBackend`` posts to any completions-style HTTP endpoint,
  with the bearer token taken from an environment variable.
* ``RecordedBackend`` replays responses from an ndjson fixture keyed by
  sentence id, for fully offline runs.
* ``RuleBasedBackend`` is a last-resort heuristic that templates a triple
  from detected company mentions.

The batch driver retries transport failures with exponential backoff,
honors rate-limit delays, and never lets one bad sentence abort the batch.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Protocol

from .core import CompanyRef, Sentence, TransactionTriple, read_ndjson
from .errors import (
    BackendError,
    ConfigError,
    ExtractionFormatError,
    RateLimitError,
    SchemaError,
)
from .transcripts import Gazetteer, detect_mentions

# Neutral default; callers with a curated preamble should override it.
DEFAULT_INSTRUCTION = "Extract the buyer, the supplier, and the item from the sentence."

DEFAULT_API_KEY_ENV = "ELIA_API_KEY"

_NULL_VALUES = {"", "n/a", "none", "null"}

_KEY_PATTERN = re.compile(r"(?:(?<=^)|(?<=,))\s*(buyer|supplier|item)\s*:", re.IGNORECASE)


def parse_triple_line(response: str, source_id: str = "") -> TransactionTriple:
    """Parse a completion like ``Buyer: X, Supplier: Y, Item: Z``.

    Only ``, Buyer:`` / ``, Supplier:`` / ``, Item:`` act as separators, so
    commas inside values survive. Values of N/A or None become nulls.
    Angle-bracket placeholders such as ``<Your company>`` are preserved
    verbatim (callers can check ``triple.has_placeholders``). Raises
    ExtractionFormatError when no recognized key is present or every field
    is null.
    """
    line = ""
    for candidate in response.strip().splitlines():
        if candidate.strip():
            line = candidate.strip()
            break
    matches = list(_KEY_PATTERN.finditer(line))
    if not matches:
        raise ExtractionFormatError(f"no Buyer/Supplier/Item key in response: {line!r}", response)

    values: dict[str, str | None] = {"buyer": None, "supplier": None, "item": None}
    for i, m in enumerate(matches):
        value_end = matches[i + 1].start() if i + 1 < len(matches) else len(line)
        raw_value = line[m.end() : value_end].rstrip(",").strip()
        key = m.group(1).lower()
        values[key] = None if raw_value.lower() in _NULL_VALUES else raw_value

    if all(v is None for v in values.values()):
        raise ExtractionFormatError(f"all fields null in response: {line!r}", response)

    buyer = CompanyRef(values["buyer"], role_hint="buyer") if values["buyer"] else None
    supplier = CompanyRef(values["supplier"], role_hint="supplier") if values["supplier"] else None
    return TransactionTriple(
        buyer=buyer, supplier=supplier, item=values["item"], source_id=source_id
    )


def _triple_line(buyer: str | None, supplier: str | None, item: str | None) -> str:
    """The canonical one-line form, the one writer of it; ``None`` is written ``N/A``."""
    buyer, supplier, item = ("N/A" if v is None else v for v in (buyer, supplier, item))
    return f"Buyer: {buyer}, Supplier: {supplier}, Item: {item}"


def format_triple_line(triple: TransactionTriple) -> str:
    """Serialize a triple back to the canonical one-line form."""
    return _triple_line(triple.buyer and triple.buyer.raw_name,
                        triple.supplier and triple.supplier.raw_name, triple.item)


@dataclass
class FewShotExample:
    """A paired input sentence and its canonical triple line."""

    input: str
    output: str

    def __post_init__(self):
        if not self.input.strip():
            raise ValueError("example input must be non-empty")
        parse_triple_line(self.output)  # must be well-formed


@dataclass
class PromptConfig:
    examples: list[FewShotExample]
    instruction: str = DEFAULT_INSTRUCTION
    temperature: float = 0.1
    max_tokens: ClassVar[int] = 64
    model_name: str = "text-davinci-003"

    def __post_init__(self):
        if not self.examples:
            raise ValueError("at least one few-shot example is required")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")


def load_examples(path: str) -> list[FewShotExample]:
    """Read few-shot pairs from an ndjson file of {"input", "output"} rows."""
    examples = []
    required = {"input": str, "output": str}
    for lineno, row in read_ndjson(path, SchemaError, "example row", required):
        try:
            examples.append(FewShotExample(input=row["input"], output=row["output"]))
        except (ExtractionFormatError, ValueError) as exc:
            raise SchemaError(f"{path}:{lineno}: malformed example row: {exc}") from exc
    return examples


_OUTPUT_SLOT = "\nOutput:"


def build_prompt(cfg: PromptConfig, target_sentence: str) -> str:
    """Assemble the few-shot prompt; byte-deterministic for fixed inputs."""
    parts = []
    if cfg.instruction:
        parts.append(cfg.instruction + "\n\n")
    for ex in cfg.examples:
        parts.append(f"Input: {ex.input}\nOutput: {ex.output}\n")
    parts.append(f"Input: {target_sentence}{_OUTPUT_SLOT}")
    return "".join(parts)


def target_sentence_of(prompt: str, cfg: PromptConfig) -> str:
    """The target sentence, whatever it contains, of a prompt ``build_prompt`` made from ``cfg``."""
    head = build_prompt(cfg, "")[: -len(_OUTPUT_SLOT)]
    target = prompt[len(head) :]
    if not (prompt.startswith(head) and target.endswith(_OUTPUT_SLOT)):
        raise BackendError(f"prompt not built from this config: {prompt[-80:]!r}", retryable=False)
    return target[: -len(_OUTPUT_SLOT)]


class CompletionBackend(Protocol):
    def complete(self, prompt: str, cfg: PromptConfig) -> str: ...


class HttpCompletionBackend:
    """POST prompts to a completions-style HTTP endpoint.

    The request body carries model, prompt, temperature and max_tokens; the
    bearer token is read from ``api_key_env`` at call time. A missing key is
    a configuration error raised before any network traffic.
    """

    def __init__(self, endpoint_url: str, api_key_env: str = DEFAULT_API_KEY_ENV, session=None):
        if not endpoint_url:
            raise ConfigError("endpoint_url must be set for the live backend")
        self.endpoint_url = endpoint_url
        self.api_key_env = api_key_env
        self._session = session

    def _ensure_session(self):
        if self._session is None:
            import requests

            self._session = requests.Session()
        return self._session

    def complete(self, prompt: str, cfg: PromptConfig) -> str:
        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise ConfigError(
                f"environment variable {self.api_key_env} is not set; "
                "refusing to call the live backend"
            )
        body = {
            "model": cfg.model_name,
            "prompt": prompt,
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
        }
        headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        try:
            resp = self._ensure_session().post(
                self.endpoint_url, json=body, headers=headers, timeout=60
            )
        except OSError as exc:
            raise BackendError(f"transport failure: {exc}") from exc
        if resp.status_code == 429:
            retry_after = None
            header = resp.headers.get("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
            raise RateLimitError("rate limited by completion endpoint", retry_after=retry_after)
        if resp.status_code >= 500:
            raise BackendError(f"server error {resp.status_code}")
        if resp.status_code != 200:
            raise BackendError(f"request rejected: {resp.status_code}", retryable=False)
        try:
            payload = resp.json()
            return payload["choices"][0]["text"]
        except (ValueError, KeyError, IndexError) as exc:
            raise BackendError(f"unexpected response shape: {exc}", retryable=False) from exc


class RecordedBackend:
    """Replay recorded responses, keyed by the target sentence.

    The fixture is ndjson of {"sentence_id", "response_text"}; sentences
    supply the id -> text mapping. Deterministic given (prompt, config).
    """

    def __init__(self, responses_by_text: dict[str, str]):
        self._responses = dict(responses_by_text)

    @classmethod
    def from_fixture(cls, fixture_path: str, sentences: list[Sentence]) -> "RecordedBackend":
        by_id: dict[str, str] = {}
        required = {"sentence_id": str, "response_text": str}
        for _, row in read_ndjson(fixture_path, SchemaError, "fixture row", required):
            by_id[row["sentence_id"]] = row["response_text"]
        text_of = {s.id: s.text for s in sentences}
        responses = {text_of[sid]: resp for sid, resp in by_id.items() if sid in text_of}
        return cls(responses)

    def complete(self, prompt: str, cfg: PromptConfig) -> str:
        target = target_sentence_of(prompt, cfg)
        if target not in self._responses:
            raise BackendError(f"no recorded response for: {target!r}", retryable=False)
        return self._responses[target]


# Pattern templates over the target sentence; first match wins. Each entry
# maps a regex with named groups to the triple slots it fills.
_RULE_PATTERNS = (
    re.compile(r"^(?P<buyer>.+?) relies(?: heavily)? on (?P<supplier>.+?) for (?:the )?(?P<item>.+?)[.!?]?$"),
    re.compile(r"^(?P<buyer>.+?)'s (?P<item>.+?) (?:are|is) sourced(?: mainly)? from (?P<supplier>.+?)[.!?]?$"),
    re.compile(r"^(?P<buyer>.+?) (?:buys|purchases|procures|sources) (?P<item>.+?) from (?P<supplier>.+?)[.!?]?$"),
    re.compile(r"^(?P<supplier>.+?) (?:supplies|provides|ships|delivers) (?P<item>.+?) to (?P<buyer>.+?)[.!?]?$"),
)


class RuleBasedBackend:
    """Heuristic fallback: fill the triple from surface patterns.

    When no pattern applies, the first two detected mentions become buyer
    and supplier with an unknown item. Intended for smoke tests and offline
    development, not for accuracy.
    """

    def __init__(self, gazetteer: Gazetteer | None = None):
        self.gazetteer = gazetteer or Gazetteer(entries=set())

    def complete(self, prompt: str, cfg: PromptConfig) -> str:
        sentence = target_sentence_of(prompt, cfg)
        for pattern in _RULE_PATTERNS:
            m = pattern.match(sentence)
            if m:
                return _triple_line(**m.groupdict())
        probe = detect_mentions(Sentence(transcript_id="probe", index=0, text=sentence), self.gazetteer)
        surfaces = [m.surface for m in probe.mentions]
        if len(surfaces) >= 2:
            return _triple_line(surfaces[0], surfaces[1], None)
        if len(surfaces) == 1:
            return _triple_line(None, surfaces[0], None)
        return "no transaction found"


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff, honoring rate-limit delays."""

    max_attempts: int = 3
    base_delay: float = 1.0
    sleep: Callable[[float], None] = time.sleep

    def delay_for(self, attempt: int, exc: BackendError) -> float:
        backoff = self.base_delay * (2**attempt)
        if isinstance(exc, RateLimitError) and exc.retry_after is not None:
            return max(backoff, exc.retry_after)
        return backoff


def _extract_one(
    sentence: Sentence, cfg: PromptConfig, backend: CompletionBackend, retry: RetryPolicy
) -> tuple[TransactionTriple | None, Exception | None]:
    prompt = build_prompt(cfg, sentence.text)
    last_error: Exception | None = None
    for attempt in range(retry.max_attempts):
        try:
            response = backend.complete(prompt, cfg)
        except BackendError as exc:
            last_error = exc
            if not exc.retryable or attempt + 1 >= retry.max_attempts:
                break
            retry.sleep(retry.delay_for(attempt, exc))
            continue
        try:
            return parse_triple_line(response, source_id=sentence.id), None
        except ExtractionFormatError as exc:
            return None, exc  # malformed output is not transient; no retry
    return None, last_error


def extract_batch(
    sentences: list[Sentence],
    cfg: PromptConfig,
    backend: CompletionBackend,
    concurrency: int = 4,
    retry: RetryPolicy | None = None,
) -> tuple[list[TransactionTriple], list[tuple[str, Exception]]]:
    """Run one backend call per sentence; partial results always returned.

    Returns (triples, errors) where every sentence lands in exactly one of
    the two lists. Calls run with bounded concurrency but results keep
    input order. The thread pool is imported on first use, so only
    ``extract`` pays for ``concurrent.futures``, not every CLI process.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    retry = retry or RetryPolicy()

    triples: list[TransactionTriple] = []
    errors: list[tuple[str, Exception]] = []
    if not sentences:
        return triples, errors

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        results = list(pool.map(lambda s: _extract_one(s, cfg, backend, retry), sentences))
    for sentence, (triple, error) in zip(sentences, results):
        if triple is not None:
            triples.append(triple)
        else:
            errors.append((sentence.id, error if error is not None else BackendError("unknown")))
    return triples, errors
