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
    where the first half-step is the solve anchored on the gender-blind
    init's direction (the solve of an ordinal problem without an anchor)."""
    import genage.train

    calls, init_directions = [], []
    solve, solve_ordinal = genage.train.solve_svm, genage.train.solve_svor

    def recording_ordinal(ds, lambda2, anchor=None, **kw):
        sol = solve_ordinal(ds, lambda2, anchor=anchor, **kw)
        if anchor is None:
            init_directions.append(sol.w)
        return sol

    def recording(ds, lambda1, anchor=None, lambda3=0.0, **kw):
        calls.append((lambda3, any(anchor is w for w in init_directions)))
        return solve(ds, lambda1, anchor=anchor, lambda3=lambda3, **kw)

    monkeypatch.setattr(genage.train, "solve_svor", recording_ordinal)
    monkeypatch.setattr(genage.train, "solve_svm", recording)
    return calls
