"""Each spec's memo holds its terms, factorials and rows once, in the
spec's own number type: ints and Fractions for a rational spec, Scalars
otherwise."""

from collections import OrderedDict
from fractions import Fraction

from hbinom import sequences
from hbinom.binomials import BinomialTable
from hbinom.cli import default_config, run_suite
from hbinom.ring import Scalar
from hbinom.sequences import SeqContext, preset, term


def _stores(obj) -> dict:
    return {name: v for name, v in vars(obj).items() if isinstance(v, (list, dict))}


def test_a_default_suite_leaves_one_store_per_concept(monkeypatch):
    monkeypatch.setattr(sequences, "_contexts", OrderedDict())
    term(preset("cigler_qfib"), 6)   # one polynomial spec beside the suite's
    assert run_suite(default_config()).all_ok
    contexts = list(sequences._contexts.values())
    tables = [ctx.table for ctx in contexts if ctx.table is not None]
    assert len(contexts) >= 10 and len(tables) >= 4
    for ctx in contexts:
        kind = (int, Fraction) if ctx.spec.is_rational else Scalar
        assert set(_stores(ctx)) == {"_values"}
        assert all(isinstance(v, kind) for v in ctx._values)
        tbl = ctx.table
        if tbl is not None:
            assert set(_stores(tbl)) == {"_fact", "_rows"}
            held = tbl._fact + [v for r in tbl._rows for v in r]
            assert all(isinstance(v, kind) for v in held)
    assert any(type(v) is Scalar for ctx in contexts for v in ctx._values)
    for name in ("native_term", "_natives"):
        assert not hasattr(SeqContext, name)
        assert not any(hasattr(ctx, name) for ctx in contexts)
    for name in ("native_binomial", "_native_factorial", "_native_fact", "_native_cells",
                 "own_binomial", "_cells"):
        assert not hasattr(BinomialTable, name)
        assert not any(hasattr(tbl, name) for tbl in tables)
