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


@pytest.fixture
def svm_calls(monkeypatch):
    """Record every classifier solve the trainer makes as (lambda3, is_first),
    where a round's first half-step is the solve without a warm start."""
    import genage.train

    calls = []
    solve = genage.train.solve_svm

    def recording(ds, lambda1, anchor=None, lambda3=0.0, warm=None, **kw):
        calls.append((lambda3, warm is None))
        return solve(ds, lambda1, anchor=anchor, lambda3=lambda3, warm=warm, **kw)

    monkeypatch.setattr(genage.train, "solve_svm", recording)
    return calls
