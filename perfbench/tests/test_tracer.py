"""Self-test of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q
"""
import hashlib
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hyperpoly as hp  # noqa: E402
import generate as gen  # noqa: E402
import queries as Q  # noqa: E402
import run  # noqa: E402
import tracer as T  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_duration_minus_child_coverage(monkeypatch):
    # root [0,10] holds a [1,4] (which holds a1 [2,3]) and b [5,7]
    monkeypatch.setattr(T, "_clock", FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    tr = T.Tracer()
    tr.enter("root")
    tr.enter("a")
    tr.enter("a1")
    tr.exit()
    tr.exit()
    tr.enter("b")
    tr.exit()
    tr.exit()
    assert dict(tr.self_s) == {"root": 5, "a": 2, "a1": 1, "b": 2}
    assert dict(tr.total_s) == {"root": 10}


def _bindings() -> dict:
    """Every attribute of every hyperpoly module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hyperpoly"
                                  or name.startswith("hyperpoly.")):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    out[(name, key, attr)] = raw
    return out


def test_wrappers_reach_every_rebinding_and_are_removed():
    before = _bindings()
    originals = {id(owner.__dict__[attr]): (owner, attr)
                 for owner, attr, _, _ in T.entry_points(hp)}
    rebound = [k for k, v in before.items() if len(k) == 2
               and id(v) in originals]
    # boxprod is imported by name into assoc, divide, tropical, the package
    boxprod_homes = {k[0] for k in rebound if k[1] == "boxprod"}
    assert {"hyperpoly", "hyperpoly.polyalg", "hyperpoly.assoc",
            "hyperpoly.divide", "hyperpoly.tropical"} <= boxprod_homes
    methods = [k for k, v in before.items() if len(k) == 3
               and id(v) in originals]
    with T.installed(T.Tracer(), hp):
        during = _bindings()
        for key in rebound:
            assert getattr(during[key], "__wrapped__", None) is before[key], key
        for key in methods:
            assert during[key] is not before[key], key
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed


def _digest(queries) -> str:
    texts = [Q.render(run.attempt(Q.execute, hp.UndecidedError, q)[0])
             for q in queries]
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def test_tracing_leaves_the_digest_unchanged(tmp_path):
    rng = random.Random(5)
    groups = gen.make_groups(rng, str(tmp_path), gen.FINITE_GROUPS)
    finite = [q for q in gen.finite_queries(rng, groups)
              if q.carrier != "GF(1009)"][:60]
    continuous = gen.continuous_queries(rng)[:60]
    scans = [q for q in gen.scan_queries(rng, groups)
             if q.args["max_deg"] == "1"][:6]
    sample = finite + continuous + scans
    plain = _digest(sample)
    tr = T.Tracer()
    with T.installed(tr, hp):
        traced = _digest(sample)
    assert traced == plain
    calls, _ = tr.layer_totals()
    assert calls["sets"] and calls["carriers"] and calls["polyalg"]
