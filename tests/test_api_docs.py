"""docs/API.md is what tools/gen_api_docs.py generates from the code."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import gen_api_docs  # noqa: E402


def test_api_reference_is_up_to_date():
    committed = (ROOT / "docs" / "API.md").read_text()
    assert committed == gen_api_docs.render(), (
        "docs/API.md is stale; regenerate it with "
        "`python tools/gen_api_docs.py`"
    )
