"""The quick behaviour digest against its committed snapshot, group by
group (see `tools/behaviour_digest.py`)."""

import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools",
                    "behaviour_digest.py")


def _tool():
    spec = importlib.util.spec_from_file_location("behaviour_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_digest_matches_the_snapshot():
    tool = _tool()
    got = tool.group_digests(tool.collect(quick=True))
    with open(tool.SNAPSHOT) as fh:
        want = json.load(fh)
    differ = sorted(group for group in want.keys() | got.keys()
                    if want.get(group) != got.get(group))
    assert not differ, (
        f"behaviour differs in {len(differ)} of {len(want)} groups: "
        f"{', '.join(differ)}; a deliberate change regenerates the snapshot "
        f"with `python3 tools/behaviour_digest.py --update-snapshot`")
