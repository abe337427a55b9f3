import pytest


@pytest.fixture
def svor_calls(monkeypatch):
    """Record every ordinal solve the trainer makes as (lambda2, is_init),
    where the gender-blind init is the solve without an anchor."""
    import genage.train

    calls = []
    solve = genage.train.solve_svor

    def recording(ds, lambda2, anchor=None, **kw):
        calls.append((lambda2, anchor is None))
        return solve(ds, lambda2, anchor=anchor, **kw)

    monkeypatch.setattr(genage.train, "solve_svor", recording)
    return calls
