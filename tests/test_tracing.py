"""The benchmark tracer still finds every name it wraps."""

from pathlib import Path

from regcat import braiding, cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_patches_and_restores_its_targets(monkeypatch):
    # Tracer.install reads each module attribute it wraps, so a renamed or
    # deleted target makes it raise AttributeError here
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    originals = braiding._solve_branch, braiding.Pool, cli.HANDLERS
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.install_pool_probe()
        assert braiding._solve_branch is not originals[0]
    finally:
        tracer.restore()
    restored = braiding._solve_branch, braiding.Pool, cli.HANDLERS
    assert all(now is before for now, before in zip(restored, originals))
