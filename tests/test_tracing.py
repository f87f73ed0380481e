"""The benchmark's traced run (``twbench/run.py --trace 1``) rebinds package
functions by name, so a renamed or deleted function breaks it.  This loads
``twbench/tracing.py`` by file path, installs and uninstalls its tracer, and
checks that every name it looks up resolves and is put back."""

import sys

from twinwidth import cli, kernel, reduce, sequence, solver, structure, trigraph  # noqa: F401

from conftest import load_script


def bindings():
    """Every attribute of every loaded package module and of the classes it
    defines, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "twinwidth" or name.startswith("twinwidth."):
            for attr, value in vars(mod).items():
                out[name, attr] = value
                if isinstance(value, type) and value.__module__ == name:
                    out.update(((name, attr, a), v) for a, v in vars(value).items())
    return out


def resolve(tracing):
    """The object each of the tracer's names refers to now."""
    found = {}
    for span, (home, attr) in tracing.TARGETS.items():
        owner = sys.modules[f"twinwidth.{home}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        found[span] = owner
    for counter, attr in tracing.COUNTED.items():
        found[counter] = getattr(solver, attr)
    return found


def test_every_traced_name_resolves_and_is_restored():
    tracing = load_script("twbench/tracing.py")
    before = bindings()
    originals = resolve(tracing)
    tracer = tracing.Tracer("twinwidth").install()
    try:
        rebound = resolve(tracing)
    finally:
        tracer.uninstall()
    assert all(rebound[name] is not originals[name] for name in originals)
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
