"""Output fingerprints of the CLI at n=17, and the script that rewrites
them.

``COMMANDS`` is a pipeline of ``hopflift`` command lines that run in one
directory, each reading what the ones before it wrote.  ``fingerprints``
runs them in process through ``cli.run`` and returns, per command, its
exit code, stdout and stderr, and the SHA-256 of every file it wrote or
changed.  ``tests/fingerprints.json`` holds that record with the numpy
and scipy versions it was made under; ``test_fingerprints.py`` compares
a fresh record against it.

A change that alters outputs on purpose rewrites the file and lists each
changed fingerprint in CHANGES.md:

    PYTHONPATH=src python tests/fingerprints.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import scipy

RECORD = Path(__file__).with_name("fingerprints.json")

N = "17"
FAM = ["--u", "fam_u.h3f", "--eta", "fam_eta.h3f"]

#: (label, argv), run in this order in one directory
COMMANDS = (
    ("gen liftfam", ["gen", "--map", "liftfam", "--n", N,
                     "--out-prefix", "fam_"]),
    ("gen hedgehog", ["gen", "--map", "hedgehog", "--n", N,
                      "--out-prefix", "hog_"]),
    ("gen planar", ["gen", "--map", "planar", "--n", N,
                    "--out-prefix", "pl_"]),
    ("pullback liftfam", ["pullback", "--in", "fam_u.h3f",
                          "--out", "fam_D.h3f"]),
    ("pullback planar", ["pullback", "--in", "pl_u.h3f", "--out", "pl_D.h3f"]),
    ("check liftfam", ["check", "--in", "fam_u.h3f",
                       "--report", "check_fam.json"]),
    ("check hedgehog", ["check", "--in", "hog_u.h3f",
                        "--report", "check_hog.json"]),
    ("lift", ["lift", *FAM, "--out", "uhat.h3f", "--report", "lift.json"]),
    ("strict lift", ["--strict", "lift", *FAM, "--out", "uhat_strict.h3f",
                     "--report", "lift_strict.json"]),
    ("lift hedgehog", ["lift", "--u", "hog_u.h3f", "--eta", "fam_eta.h3f",
                       "--out", "uhat_hog.h3f", "--report", "lift_hog.json"]),
    ("verify", ["verify", *FAM, "--uhat", "uhat.h3f",
                "--report", "verify.json"]),
    ("project", ["project", "--in", "uhat.h3f", "--out", "proj.h3f"]),
    ("gauge-of-lift", ["gauge-of-lift", "--in", "uhat.h3f",
                       "--out", "zeta.h3f"]),
    ("gauge", ["gauge", "--in", "pl_D.h3f", "--out", "gauge.h3f",
               "--report", "gauge.json"]),
    ("approx", ["approx", *FAM, "--eps", "0.25", "--out-prefix", "apx_",
                "--report", "approx.json"]),
    ("sweep", ["sweep", *FAM, "--eps", "0.25,0.1875,0.125",
               "--csv", "sweep.csv"]),
    ("selftest", ["selftest", "--n", N, "--report", "selftest.json"]),
)


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _hashes(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def fingerprints(directory):
    """Run ``COMMANDS`` in the empty ``directory``; returns a flat dict
    from "<label> <item>" to the exit code, the stdout and stderr text,
    and the SHA-256 of each file the command wrote or changed."""
    from hopflift.cli import run
    directory = Path(directory)
    record = {}
    before = _hashes(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for label, argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = run(argv)
            record[f"{label} exit"] = code
            record[f"{label} stdout"] = out.getvalue()
            record[f"{label} stderr"] = err.getvalue()
            after = _hashes(directory)
            for name, digest in after.items():
                if before.get(name) != digest:
                    record[f"{label} file {name}"] = digest
            before = after
    finally:
        os.chdir(cwd)
    return record


def main():
    with tempfile.TemporaryDirectory() as tmp:
        record = {"versions": versions(), "fingerprints": fingerprints(tmp)}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['fingerprints'])} fingerprints to {RECORD}")


if __name__ == "__main__":
    main()
