#!/usr/bin/env python3
"""Rebuild the bundled demo mock responses.

Sentence ids are content hashes over (transcript id, index, text), so the
recorded-response fixture must be regenerated whenever the bundled
transcripts or the segmentation rules change. The inputs are ingested by
the same stages ``elia demo`` runs. Run from the repo root:

    python scripts/regen_demo_fixtures.py
"""

from __future__ import annotations

import json

from elia.cli import _ingest_demo_inputs, fixtures_dir
from elia.core import replace_file
from elia.store import new_store
from elia.transcripts import prefilter

# Response for each mention-bearing demo sentence, keyed by exact text.
RESPONSES = {
    "Vanguard Motor Assembly relies on Harborline Auto Parts for door panels.":
        "Buyer: Vanguard Motor Assembly, Supplier: Harborline Auto Parts, Item: door panels",
    "Apex Steelworks supplies steel sheet to Meridian Appliance Works.":
        "Buyer: Meridian Appliance Works, Supplier: Apex Steelworks, Item: steel sheet",
    "Homestead Retail Group buys washing machines from Meridian Appliance Works.":
        "Buyer: Homestead Retail Group, Supplier: Meridian Appliance Works, Item: washing machines",
    "Milanese Leather Co supplies the leather for our store displays.":
        "Buyer: <Your company>, Supplier: Milanese Leather Co, Item: leather",
}


def main() -> None:
    store = new_store()
    _ingest_demo_inputs(store)
    rows = []
    unmatched = []
    for sentence in prefilter(list(store.sentences.values())):
        response = RESPONSES.get(sentence.text)
        if response is None:
            unmatched.append(sentence.text)
            continue
        rows.append({"sentence_id": sentence.id, "response_text": response})

    if unmatched:
        raise SystemExit(
            "prefiltered sentences without a scripted response:\n  " + "\n  ".join(unmatched)
        )
    out = fixtures_dir() / "mock_responses.ndjson"
    # Through a temporary file, so an interrupted run never leaves a short fixture.
    replace_file(str(out), (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))
    print(f"wrote {len(rows)} recorded responses -> {out}")


if __name__ == "__main__":
    main()
