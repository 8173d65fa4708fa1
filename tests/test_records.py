"""Result records: immutable named tuples that import without generated code."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import lucasprod
from lucasprod import (
    BinetTriple,
    FactorCache,
    ProductEquation,
    QualityReport,
    admissible_indices,
    class_of,
    factorize,
    obstruction_filter,
    primitive_divisors,
    rank_of_apparition,
    validate_params,
    verify_solution,
)

RECORDS = (
    "BinetTriple QualityReport Factorization LucasParams RankOfApparition "
    "PrimitiveEntry PrimitiveReport ObstructionVerdict ProductEquation AdmissibleSet "
    "SolutionCertificate"
).split()


def test_import_leaves_dataclasses_unloaded():
    # -S keeps site hooks from importing anything first; the source tree comes in by PYTHONPATH.
    src = os.path.dirname(os.path.dirname(lucasprod.__file__))
    code = "import sys, lucasprod.cli; print('dataclasses' in sys.modules, lucasprod.cli.__file__)"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, path = proc.stdout.split()
    assert loaded == "False"
    assert path.startswith(src)


def test_no_module_level_object_exceeds_64_kib():
    # Tables that grow with an input are built per call: a process that
    # imports the package again keeps the old modules' tables until a
    # collection, so a large import-time table costs its memory several times.
    for info in pkgutil.iter_modules(lucasprod.__path__, "lucasprod."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            size = sys.getsizeof(value)
            assert size <= 64 * 1024, f"{info.name}.{name}"


def _one_of_each():
    fib = validate_params(1, 1)
    eq = ProductEquation(fib, 5, 2, 12, 2)
    report = primitive_divisors(fib, 12)
    return [
        BinetTriple(3, 2, 1, 2),
        QualityReport(1.5, 2.0, 0.75, 0.25, 0.5),
        factorize(-360),
        fib,
        rank_of_apparition(fib, 7),
        report.entries[0],
        report,
        obstruction_filter(5, report),
        eq,
        admissible_indices(eq),
        verify_solution(eq, (5, 12)),
    ]


def test_records_are_immutable_with_field_reprs():
    records = _one_of_each()
    assert [type(r).__name__ for r in records] == RECORDS
    for record in records:
        assert getattr(lucasprod, type(record).__name__) is type(record)
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
        assert repr(record) == f"{type(record).__name__}({fields})"
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert repr(factorize(-360)) == "Factorization(sign=-1, factors={2: 3, 3: 2, 5: 1}, cofactor=1)"
    assert class_of(-18).value() == -2


def test_cache_records_read_equal_and_corrupt_ones_always_raise(tmp_path):
    path = tmp_path / "records.cache"
    # A file holds only |N| >= 10^10: the record of 8 is never read.
    path.write_text("120000000000 1 2^12 3^1 5^10\n10000000000 1 10000000000^1\n8 1 8^1\n", encoding="ascii")
    cache = FactorCache(str(path))
    # The first read parses the line; the second must take the parsed record, not parse it again.
    first, second = cache.get(12 * 10 ** 10), cache.get(12 * 10 ** 10)
    assert first == second == factorize(12 * 10 ** 10)
    assert first.factors is not second.factors
    for _ in range(3):
        with pytest.raises(ValueError, match="records.cache:2: base 10000000000 is not prime"):
            cache.get(10 ** 10)
    assert cache.get(8) is None
