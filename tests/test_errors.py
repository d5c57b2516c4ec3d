from ellqg.errors import EllqgError, FloatRangeError, PoleError, in_order


def _evaluator(calls):
    """A batch evaluator over (value, kind) items that records each call.

    "ok" gives its value, "err" raises as an item (its PoleError ends the
    outcomes), "shared" makes a shared call of more than one item raise and
    evaluates alone, and "fatal" makes any call that holds it raise."""
    def evaluate(group):
        calls.append([x for x, _ in group])
        kinds = {kind for _, kind in group}
        if "fatal" in kinds or ("shared" in kinds and len(group) > 1):
            raise FloatRangeError(f"shared call of {calls[-1]}")
        out = []
        for x, kind in group:
            if kind == "err":
                return out + [PoleError(f"item {x}")]
            out.append(x)
        return out
    return evaluate


def _outcomes(kinds, groups):
    """(the outcomes as values or error texts, the calls made)."""
    calls = []
    out = in_order(list(enumerate(kinds)), groups, _evaluator(calls))
    return [str(r) if isinstance(r, EllqgError) else r for r in out], calls


def test_groups_out_of_item_order_give_outcomes_in_item_order():
    out, calls = _outcomes(["ok"] * 6, [[0, 3], [1, 2, 5], [4]])
    assert out == [0, 1, 2, 3, 4, 5]
    assert calls == [[0, 3], [1, 2, 5], [4]]


def test_a_failed_shared_call_is_replayed_item_by_item():
    out, calls = _outcomes(["ok", "shared", "ok", "ok"], [[0, 1, 2], [3]])
    assert out == [0, 1, 2, 3]
    assert calls == [[0, 1, 2], [0], [1], [2], [3]]
    # An item that raises alone ends the replay and the list.
    out, calls = _outcomes(["ok", "fatal", "ok", "ok"], [[0, 1, 2], [3]])
    assert out == [0, "shared call of [1]"]
    assert calls == [[0, 1, 2], [0], [1]]
    # A one-item group whose call raises is not called again.
    out, calls = _outcomes(["fatal"], [[0]])
    assert out == ["shared call of [0]"] and calls == [[0]]


def test_no_group_that_starts_after_the_first_error_is_evaluated():
    out, calls = _outcomes(["ok", "err", "ok", "ok", "ok"], [[0, 2], [1, 3], [4]])
    assert out == [0, "item 1"]
    assert calls == [[0, 2], [1, 3]]
    # A later group that starts before the error may hold an earlier one.
    out, calls = _outcomes(["ok", "ok", "err", "err"], [[0, 3], [1, 2]])
    assert out == [0, 1, "item 2"]
    assert calls == [[0, 3], [1, 2]]
    # An error after the first one does not move it.
    out, calls = _outcomes(["ok", "ok", "err", "err"], [[0, 2], [1, 3]])
    assert out == [0, 1, "item 2"]
    assert calls == [[0, 2], [1, 3]]


def test_an_empty_list_calls_nothing():
    calls = []
    assert in_order([], [], _evaluator(calls)) == [] and calls == []
