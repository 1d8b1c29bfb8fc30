"""Span nesting, self-time attribution and attribute patching."""

import threading
import types

import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock=clock)
    rec.open("outer")
    clock.now = 1.0
    rec.open("child")
    clock.now = 3.0
    rec.open("grandchild")
    clock.now = 3.5
    rec.close()
    clock.now = 4.0
    rec.close()
    clock.now = 10.0
    rec.close()
    totals = rec.totals
    assert totals["outer"].total_s == 10.0
    assert totals["outer"].self_s == 7.0  # 10 - child's 3
    assert totals["outer>child"].self_s == 2.5  # 3 - grandchild's 0.5
    assert totals["outer>grandchild"].total_s == 0.5
    assert totals["outer>grandchild"].self_s == 0.5


def test_sibling_children_add_up_and_roots_are_separate():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock=clock)
    for root in ("search", "delta"):
        rec.open(root)
        for _ in range(2):
            clock.now += 1.0
            rec.open("fetch")
            clock.now += 2.0
            rec.close()
        rec.close()
    assert rec.totals["search"].self_s == 2.0
    assert rec.totals["search>fetch"].count == 2
    assert rec.totals["delta>fetch"].total_s == 4.0


def test_threads_keep_their_own_parent_stacks():
    rec = tracing.SpanRecorder()
    barrier = threading.Barrier(2)

    def worker(name):
        with rec.span(name):
            barrier.wait(timeout=5)
            with rec.span("inner"):
                pass

    threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
        assert not t.is_alive()
    assert rec.totals["a>inner"].count == 1
    assert rec.totals["b>inner"].count == 1
    assert "inner" not in rec.totals


def test_install_patches_and_restores_attributes(monkeypatch):
    module = types.ModuleType("fake_mod")

    class Thing:
        def work(self, x):
            return helper(x) + 1

    def helper(x):
        return x * 2

    module.Thing = Thing
    module.helper = helper
    module.encode = lambda status, payload=None: payload
    monkeypatch.setitem(__import__("sys").modules, "fake_mod", module)
    rec = tracing.SpanRecorder()
    undo = tracing.install(rec, [
        ("fake_mod:Thing.work", "work", None),
        ("fake_mod:encode", "encode", tracing._is_search_payload),
    ])
    assert Thing().work(3) == 7
    module.encode(200, {"results": []})
    module.encode(200, "text")
    assert rec.totals["work"].count == 1
    assert rec.totals["encode"].count == 1  # the text body was not a search
    undo()
    assert Thing.__dict__["work"].__name__ == "work"
    assert not hasattr(Thing.__dict__["work"], "__wrapped_by_perfbench__")


def test_disabled_recorder_records_nothing():
    rec = tracing.SpanRecorder(enabled=False)
    wrapped = rec.wrap(lambda: 5, "x")
    assert wrapped() == 5
    with rec.span("y"):
        pass
    assert rec.totals == {}


def test_serve_targets_resolve_against_the_program():
    for target, _, _ in tracing.SERVE_TARGETS:
        owner, attr = tracing.resolve(target)
        assert callable(getattr(owner, attr)), target
