"""Trajectories must match the digests committed in ``digests.json``.

Under the python and numpy versions a digest was made with, positions,
alive masks and δ series must hash identically. Under other versions
the float summary is compared with a relative tolerance instead, and a
warning says so. Regenerate with ``python tools/bless_golden.py``.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from golden_cases import CASES, FALLBACK_RTOL, digest, summary, versions

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_digest(name):
    expected = DIGESTS[name]
    traj = CASES[name]()
    if expected["versions"] == versions():
        got = digest(traj)
        if got["sha256"] != expected["sha256"]:
            changed = sorted(
                key for key in got["sha256"]
                if got["sha256"][key] != expected["sha256"][key]
            )
            pytest.fail(
                f"{name}: {', '.join(changed)} changed\n"
                f"expected summary {json.dumps(expected['summary'])}\n"
                f"got summary      {json.dumps(got['summary'])}"
            )
        return
    warnings.warn(
        f"{name}: digest made under {expected['versions']}, running under "
        f"{versions()}; comparing the summary at rtol={FALLBACK_RTOL}"
    )
    got = summary(traj)
    want = expected["summary"]
    assert got["alive_per_round"] == want["alive_per_round"]
    for key in ("deltas", "position_sum_per_round"):
        np.testing.assert_allclose(
            np.asarray(got[key]), np.asarray(want[key]),
            rtol=FALLBACK_RTOL, err_msg=f"{name}: {key}",
        )
