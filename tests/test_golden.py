"""Golden answers, instance by instance: the ``golden`` and ``stages`` lines
of ``tools/digest.txt`` for each of the digest's nine small instances (its
``GOLDEN``); a failure prints the digest's own ``differs`` lines."""

import pytest

from test_digest import DIGEST, SAVED, digest_now


def check_prefix(prefix):
    saved, now = ([r for r in rows if r.startswith(prefix)] for rows in (SAVED, digest_now()))
    assert saved and DIGEST.check(saved, now) == 0


@pytest.mark.parametrize("name", sorted(DIGEST.GOLDEN))
def test_golden_answer(name):
    check_prefix(f"golden {name} ")


@pytest.mark.parametrize("name", sorted(DIGEST.GOLDEN))
def test_golden_stages(name):
    check_prefix(f"stages {name}/")
