import json

import pytest

from fingerprints import RECORD, SIZES, fingerprints, versions


def test_cli_outputs_match_fingerprints(tmp_path):
    # every output byte of the n=17 and n=33 pipelines, against the
    # record of the build that wrote it; einsum's reductions and
    # pocketfft can round differently in another numpy or scipy, so those
    # must match first
    recorded = json.loads(RECORD.read_text())
    if recorded["versions"] != versions():
        pytest.fail(f"numpy/scipy {versions()} differ from the "
                    f"{recorded['versions']} that {RECORD.name} was written "
                    "with; rewrite it with tests/fingerprints.py and check "
                    "every changed fingerprint")
    differ = []
    for n in SIZES:
        want = recorded["fingerprints"].get(n, {})
        (tmp_path / n).mkdir()
        got = fingerprints(tmp_path / n, n)
        differ += [f"n={n} {key}" for key in sorted(want.keys() | got.keys())
                   if want.get(key) != got.get(key)]
    assert not differ, "fingerprints that differ: " + ", ".join(differ)
