"""Golden output digests: cheap commands whose output files must not change.

``data/golden_digests.json`` maps each command line to the SHA-256 of the file
it writes.  Together the commands cover every command, every design scheme,
both target priors, ``--bounds``, both distance engines (the KD-tree at
d <= 10, BLAS at d = 12-20) and the three delta searches.  A change that moves
any printed byte fails here; the failure lists each command with the digest
its output has now, to be copied into the file once the change is meant.
"""

import hashlib
import json
import shlex
from pathlib import Path

from cubecover.cli import main

DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"


def test_outputs_match_golden_digests(tmp_path, capsys):
    golden = json.loads(DIGESTS.read_text())
    changed = []
    for command, digest in golden.items():
        out = tmp_path / "out.csv"
        assert main([*shlex.split(command), "--out", str(out)]) == 0, command
        new = hashlib.sha256(out.read_bytes()).hexdigest()
        if new != digest:
            changed.append(f"{command}: new digest {new}")
    capsys.readouterr()
    assert not changed, "output changed:\n" + "\n".join(changed)
