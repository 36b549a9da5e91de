"""Pin the report bytes of a long plan and of a replay made of long runs.

A replay applies each run of equal consecutive steps as its first step
and one translation (``steinsurf.surgery``), yet its report lists every
step's result.  These reports hold only ints, strings, bools and null,
so any change to their bytes is a change in what the surgery layer says.
"""

import hashlib
import json

import steinsurf.cli
from steinsurf.invariants import oriented_class

PLAN = (766630, "9df4ceaca0b175066ce87e24277ec25a3738d5f6ba947ecb1c0a843b741e820a")
REPLAY = (139371, "07023c9a0f90c6c95fa08a31bf575082f38138b70b2dc9b316236687cfa47b28")


def _printed(argv, capsys):
    assert steinsurf.cli.main(argv) == 0
    out = capsys.readouterr().out.encode()
    return len(out), hashlib.sha256(out).hexdigest()


def test_long_plan_report_bytes_are_pinned(capsys):
    """10006 step records: 5006 Weinstein spheres, then 5000 resolutions."""
    assert _printed(["plan", "--degree", "3", "--genus", "5000", "--dplus", "7"], capsys) == PLAN


def test_replay_of_long_runs_report_bytes_are_pinned(tmp_path, capsys):
    other = oriented_class(1, normal_euler=2, delta_plus=1, delta_minus=2)
    steps = (
        [{"kind": "AttachTorus"}] * 300
        + [{"kind": "ResolvePositiveDP_Handle"}] * 40
        + [{"kind": "NormalizeComplexPoints"}] * 25
        + [{"kind": "ConnectedSum", "other": other.to_json()}] * 10
    )
    base = oriented_class(2, normal_euler=4, c1_pairing=2, delta_plus=45)
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"base": base.to_json(), "steps": steps}))
    assert _printed(["replay", str(path)], capsys) == REPLAY
