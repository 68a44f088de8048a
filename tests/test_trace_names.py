"""Every function the benchmark traces by name must exist in senvr.

``bench/tracing.py`` finds each function it times (``SPANS``) or counts
(``COUNTED``) by module and name, and the counted ones are caches whose
hit ratios it reads.  A renamed or deleted function is not traced and
reads ``null`` only at the end of a long benchmark run; these tests name
it at once.  The tracing module is read from its file, not edited.
"""

import importlib.util
from pathlib import Path

import pytest

import senvr.cli  # noqa: F401  (imports every module the benchmark traces)
from senvr import sen_condition

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_senvr(tracing):
    for name, (module, attr) in {**tracing.SPANS, **tracing.COUNTED}.items():
        assert callable(tracing.lookup(module, attr)), name


def test_every_counted_function_is_a_cache(tracing):
    for name, (module, attr) in tracing.COUNTED.items():
        fn = tracing.lookup(module, attr)
        assert hasattr(fn, "cache_info") and hasattr(fn, "cache_clear"), name


def test_cold_sen_condition_consults_every_counted_cache(tracing, example2):
    # the benchmark clears every senvr cache before each call; a cache that
    # such a call never consults has no hit ratio
    counted = {name: tracing.lookup(*where) for name, where in tracing.COUNTED.items()}
    for fn in counted.values():
        fn.cache_clear()
    senvr.condition._shape_table.cache_clear()
    sen_condition(example2)
    for name, fn in counted.items():
        info = fn.cache_info()
        assert info.hits + info.misses > 0, name
