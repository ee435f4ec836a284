"""Recompute every golden case in-process and compare with its digest."""

import json

import pytest

from tests.golden.cases import CASES, digest
from tests.golden.regenerate import PATH

with open(PATH) as _handle:
    GOLDEN = json.load(_handle)


def test_corpus_covers_every_case():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert digest(name) == GOLDEN[name], (
        f"golden case {name!r} changed; if intended, rerun "
        f"`PYTHONPATH=src python -m tests.golden.regenerate` and justify "
        f"the new digest in CHANGES.md")
