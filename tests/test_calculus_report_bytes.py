"""Pin the default report bytes of the integer layers.

The benchmark's calculus-batch scenario exercises ``check``, ``plan``,
``replay`` and ``verdict`` tasks through the CLI.  Its reports hold only
ints, strings, bools and null, so their bytes depend on neither libm nor
numpy; any change to them is a change in what the integer layers say.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import steinsurf.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

REPORTS = {
    1: (99557, "414048d15d65b7e4c4e2b693c88b88f2529ecafceab6d4572476d46c95e23b19"),
    201: (100321, "a186fdee1ee42d8955ddb5cb8a93b438f506f2d222c5195bf37843331e719851"),
}


@pytest.mark.parametrize("seed", sorted(REPORTS))
def test_calculus_batch_report_bytes_are_pinned(seed, tmp_path, capsys):
    path = tmp_path / "calculus.json"
    path.write_text(json.dumps(workloads.build("calculus-batch", seed, "tiny")))
    steinsurf.cli.main(["check", str(path)])
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == REPORTS[seed]
