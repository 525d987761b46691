"""Golden `verify --machine` and `repro` outputs.

Each property suite, passing and failing, and both case-study tables run at
a small size; stdout and the exit code must match the stored record byte
for byte, so a refactor of the checkers that changes a draw, a count or a
counterexample fails here.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden_verify.py
"""

import json
import sys
from pathlib import Path

from caliblist.cli import main

GOLDEN = Path(__file__).with_name("golden_verify_records.json")

_LOW = ["--steps", "8", "--samples", "8"]

COMMANDS = (
    ["verify", "--suite", "axioms", "--measure", "hellinger", "--n", "60"],
    ["verify", "--suite", "axioms", "--measure", "kl-mmr-demo", "--n", "60"],
    ["verify", "--suite", "mdr", "--measure", "hellinger", "--n", "60"],
    ["verify", "--suite", "mdr", "--measure", "power:0.3", "--n", "60"],
    ["verify", "--suite", "ordered-submodular", "--n", "100"],
    ["verify", "--suite", "ordered-submodular", "--measure", "power:0.5",
     "--n", "100", "--seed", "7"],
    ["verify", "--suite", "prop41", "--measure", "hellinger", "--n", "30"],
    ["verify", "--suite", "prop41", "--measure", "power:0.5", "--n", "30"],
    ["verify", "--suite", "ratios", "--algorithm", "discrete-greedy",
     "--n", "20"],
    ["verify", "--suite", "ratios", "--algorithm", "greedy",
     "--measure", "power:0.5", "--n", "20"],
    ["verify", "--suite", "ratios", "--algorithm", "continuous", "--n", "5",
     *_LOW],
    ["repro", "appendix-b"],
    ["repro", "appendix-c"],
)


def run_commands(capture) -> list[dict]:
    """Run every command; ``capture()`` returns its stdout."""
    records = []
    for argv in COMMANDS:
        if argv[0] == "verify":
            argv = [*argv, "--machine"]
        rc = main(argv)
        records.append({"argv": argv, "rc": rc, "stdout": capture()})
    return records


def test_verify_and_repro_outputs_match_golden(capsys):
    got = run_commands(lambda: capsys.readouterr().out)
    want = json.loads(GOLDEN.read_text())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    import contextlib
    import io

    buf = io.StringIO()

    def capture() -> str:
        out = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return out

    with contextlib.redirect_stdout(buf):
        records = run_commands(capture)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
