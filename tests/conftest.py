from __future__ import annotations

import importlib.resources
from pathlib import Path

import pytest

from elia.bol import parse_bol_file
from elia.core import replace_file


def fixture_path(*parts: str) -> Path:
    return Path(importlib.resources.files("elia")) / "fixtures" / Path(*parts)


@pytest.fixture
def sample_bol_path() -> Path:
    return fixture_path("bol_sample.csv")


@pytest.fixture
def sample_records(sample_bol_path):
    records, report = parse_bol_file(str(sample_bol_path))
    assert report.rejected == 0
    return records


def replace_file_failing_partway(path, chunks, **options):
    """``core.replace_file`` whose writer dies halfway through its first chunk."""
    def cut():
        for chunk in chunks:
            yield chunk[: len(chunk) // 2]
            raise RuntimeError("disk on fire")

    replace_file(path, cut(), **options)
