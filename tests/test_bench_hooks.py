"""The benchmark's tracer wraps library names by attribute lookup, so a
rename in the library breaks only traced benchmark runs. Installing and
uninstalling it here makes such a rename fail the test suite instead."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_exist_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()  # AttributeError here: a wrapped name was renamed
        hooks = list(tracer._patches)
        assert hooks
        for owner, attr, original in hooks:
            assert getattr(owner, attr) is not original, f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in hooks:
        assert getattr(owner, attr) is original, f"{attr} was not restored"
