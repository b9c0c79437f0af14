"""Every output byte of the CLI against the committed manifest (see
`output_manifest.py`, which also rewrites it)."""

import json

import numpy as np

import output_manifest


def test_outputs_match_manifest(tmp_path):
    want = json.loads(output_manifest.MANIFEST.read_text())
    got = output_manifest.outputs(str(tmp_path))
    moved = sorted(k for k in want["entries"].keys() | got.keys()
                   if want["entries"].get(k) != got.get(k))
    assert not moved, (f"{len(moved)} outputs moved (manifest written under numpy "
                       f"{want['numpy']}, running {np.__version__}): {moved[:20]}")
