import json

import pytest

from fingerprints import RECORD, fingerprints, versions


def test_cli_outputs_match_fingerprints(tmp_path):
    # every output byte of the n=17 pipeline, against the record of the
    # build that wrote it; einsum's reductions and pocketfft can round
    # differently in another numpy or scipy, so those must match first
    recorded = json.loads(RECORD.read_text())
    if recorded["versions"] != versions():
        pytest.fail(f"numpy/scipy {versions()} differ from the "
                    f"{recorded['versions']} that {RECORD.name} was written "
                    "with; rewrite it with tests/fingerprints.py and check "
                    "every changed fingerprint")
    want = recorded["fingerprints"]
    got = fingerprints(tmp_path)
    differ = sorted(key for key in want.keys() | got.keys()
                    if want.get(key) != got.get(key))
    assert not differ, "fingerprints that differ: " + ", ".join(differ)
