"""The answer gate: ``tools/digest.txt`` holds one line per instance, stage
and report of ``tools/digest.py`` for the committed tree, so a byte change in
any of them fails here and prints the digest's own ``differs``, ``missing``
and ``extra`` lines.  A change that moves answers on purpose regenerates the
file (``python3 tools/digest.py > tools/digest.txt``), so its diff lists the
moved lines."""

import functools
from pathlib import Path

from conftest import load_script

DIGEST = load_script("tools/digest.py")
SAVED = Path(DIGEST.__file__).with_name("digest.txt").read_text(encoding="utf-8").splitlines()


@functools.cache
def digest_now():
    """The digest's lines for the tree, computed once per session."""
    return tuple(DIGEST.lines(DIGEST.digest))


def test_every_digest_line_matches_the_committed_file():
    assert DIGEST.check(SAVED, digest_now()) == 0


# three lines of the committed digest, and a saved copy with the first line's
# hash changed, the second line gone and a line of its own added
GOT = SAVED[:3]
FAULTY = [GOT[0][:-1] + "x", GOT[2], "golden gone 0"]


def test_check_prints_one_line_per_fault(capsys):
    key, _, old = FAULTY[0].rpartition(" ")
    assert DIGEST.check(FAULTY, GOT) == 3
    assert capsys.readouterr().out.splitlines() == [
        f"differs {key}: {old} -> {GOT[0].rpartition(' ')[2]}",
        f"extra {GOT[1]}",
        "missing golden gone 0",
    ]


def test_check_exits_1_on_faults_and_0_on_identical_input(tmp_path, monkeypatch, capsys):
    # main recomputes nothing: its lines are the three above
    monkeypatch.setattr(DIGEST, "lines", lambda line: iter(GOT))
    saved = tmp_path / "digest.txt"
    saved.write_text("\n".join(FAULTY) + "\n", encoding="utf-8")
    assert DIGEST.main(["--check", str(saved)]) == 1
    capsys.readouterr()
    assert DIGEST.check(GOT, GOT) == 0
    saved.write_text("\n".join(GOT) + "\n", encoding="utf-8")
    assert DIGEST.main(["--check", str(saved)]) == 0
    assert capsys.readouterr().out == ""
