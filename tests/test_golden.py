"""Golden `solve --machine` records for a fixed seeded corpus.

Every solver and both modes run on small `generate_instances` corpora; each
record must match the stored one byte for byte, so a refactor that changes
any list, value or gain (down to the last float bit) fails here.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

from caliblist.cli import main
from caliblist.core import Instance, Subdistribution, ordered_sum, validate_instance
from caliblist.io import save_instance
from caliblist.repro import GenParams, generate_instances

GOLDEN = Path(__file__).with_name("golden_machine_records.json")

_LOW = ["--steps", "8", "--samples", "8"]


def _missing_genres(inst: Instance) -> Instance:
    """Drop g2, g4, ... from the target and from every other item.

    Each cut distribution is renormalized. Lists of the cut items then have
    mixtures that are 0 wherever the target is 0.
    """
    drop = set(inst.genres[1::2])

    def cut(d: Subdistribution) -> Subdistribution:
        kept = {g: v for g, v in d.items() if g not in drop}
        total = ordered_sum(kept.values())
        return Subdistribution({g: v / total for g, v in kept.items()})

    items = tuple((i, cut(d) if n % 2 == 0 else d)
                  for n, (i, d) in enumerate(inst.items))
    return validate_instance(Instance(inst.genres, cut(inst.target), items,
                                      inst.weights, inst.mode))


# (mode, generator params, seed, count, solve argument lists[, instance edit])
CORPUS = (
    ("distributional", GenParams(min_items=4, max_items=7, max_k=4), 11, 4, (
        ["--algorithm", "greedy"],
        ["--algorithm", "greedy", "--measure", "power:0.5"],
        ["--algorithm", "greedy", "--allow-repeats"],
        ["--algorithm", "greedy", "--best-length"],
        ["--algorithm", "exhaustive"],
        ["--algorithm", "exhaustive", "--measure", "power:0.25"],
        ["--algorithm", "continuous", *_LOW],
        ["--algorithm", "continuous", "--measure", "power:0.5", *_LOW],
        ["--algorithm", "continuous-repeats", *_LOW],
        ["--algorithm", "continuous-repeats", "--measure", "power:0.5", *_LOW],
    )),
    ("discrete", GenParams(max_genres=4, max_k=5), 12, 3, (
        ["--algorithm", "greedy"],
        ["--algorithm", "greedy", "--measure", "power:0.5"],
        ["--algorithm", "discrete-greedy"],
        ["--algorithm", "discrete-greedy", "--best-length"],
        ["--algorithm", "exhaustive"],
        ["--algorithm", "continuous-repeats", *_LOW],
    )),
    # long lists over many genres, and one genre only
    ("distributional", GenParams(min_genres=8, max_genres=14, min_items=10,
                                 max_items=16, min_k=8, max_k=12), 13, 3, (
        ["--algorithm", "greedy"],
        ["--algorithm", "greedy", "--measure", "power:0.5"],
        ["--algorithm", "greedy", "--allow-repeats"],
        ["--algorithm", "greedy", "--k-override", "6"],
        ["--algorithm", "continuous", "--steps", "2", "--samples", "2"],
    )),
    ("distributional", GenParams(min_genres=1, max_genres=1, min_items=9,
                                 max_items=9, min_k=9, max_k=9), 14, 1, (
        ["--algorithm", "greedy"],
        ["--algorithm", "greedy", "--measure", "power:0.5"],
    )),
    ("discrete", GenParams(min_genres=6, max_genres=9, min_k=9, max_k=12),
     15, 2, (
        ["--algorithm", "greedy"],
        ["--algorithm", "greedy", "--measure", "power:0.75"],
        ["--algorithm", "discrete-greedy"],
    )),
    # targets that miss genres, and items that miss the same ones, on 8-14 genres
    ("distributional", GenParams(min_genres=8, max_genres=14, min_items=6,
                                 max_items=8, min_k=3, max_k=4), 16, 6, (
        ["--algorithm", "greedy"],
        ["--algorithm", "greedy", "--measure", "power:0.5"],
        ["--algorithm", "exhaustive"],
        ["--algorithm", "exhaustive", "--measure", "power:0.25"],
        ["--algorithm", "continuous", *_LOW],
        ["--algorithm", "continuous", "--measure", "power:0.5", *_LOW],
    ), _missing_genres),
)


def run_corpus(workdir: Path, capture, reverse: bool = False) -> list[dict]:
    """Solve every (instance, arguments) pair; ``capture()`` returns stdout.

    With ``reverse`` each instance is written with its items reversed.
    """
    records = []
    for group, (mode, params, seed, count, argvs, *edit) in enumerate(CORPUS):
        insts = generate_instances(params, mode, seed, count)
        for n, inst in enumerate(map(edit[0], insts) if edit else insts):
            if reverse:
                inst = replace(inst, items=inst.items[::-1])
            path = workdir / f"{group}-{mode}-{n}.json"
            save_instance(inst, path)
            for argv in argvs:
                rc = main(["solve", str(path), "--machine", *argv])
                records.append({"instance": path.stem, "argv": argv,
                                "rc": rc, "stdout": capture()})
    return records


def test_machine_records_match_golden(tmp_path, capsys):
    got = run_corpus(tmp_path, lambda: capsys.readouterr().out)
    want = json.loads(GOLDEN.read_text())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_reversed_catalogs_give_the_same_records(tmp_path, capsys):
    # every solver reads items in id order or by id, never by catalog position
    got = run_corpus(tmp_path, lambda: capsys.readouterr().out, reverse=True)
    assert got == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    buf = io.StringIO()

    def capture() -> str:
        out = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return out

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf):
        records = run_corpus(Path(tmp), capture)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
