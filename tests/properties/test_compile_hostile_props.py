"""Hostile query text never hangs or crashes the compile path.

Arbitrary, truncated and bit-flipped corpus texts go through
``compile_query`` on the cold path (empty plan cache) and on the template
path (the corpus text's skeleton cached first).  Each call returns a plan
or raises an :class:`AIQLError` within a fixed time bound — the slot scan
runs on every exact-text miss, so this also guards its regex against
catastrophic backtracking — and both paths agree.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import PLAN_CACHE, compile_query
from repro.lang.context import QueryContext
from repro.lang.errors import AIQLError, AIQLSyntaxError
from repro.obs import REGISTRY
from repro.workload.corpus import ALL_QUERIES
from tests.conftest import compile_text

TIME_BOUND_S = 2.0

corpus_texts = st.sampled_from([query.text for query in ALL_QUERIES])


@st.composite
def truncated(draw):
    text = draw(corpus_texts)
    return text[: draw(st.integers(min_value=0, max_value=len(text)))]


@st.composite
def bit_flipped(draw):
    data = bytearray(draw(corpus_texts).encode())
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(data) - 1))
        data[at] ^= 1 << draw(st.integers(min_value=0, max_value=7))
    return data.decode("utf-8", errors="replace")


@st.composite
def date_flipped(draw):
    """A corpus text with a character of its window date replaced: the
    same skeleton, so the template path binds it."""
    text = draw(corpus_texts)
    start = text.index('(at "') + 5
    at = draw(st.integers(min_value=start, max_value=text.index('"', start) - 1))
    char = draw(
        st.characters(blacklist_characters='"\\\'', blacklist_categories=("Cs",))
    )
    return text[:at] + char + text[at + 1:]


hostile = st.one_of(
    st.text(max_size=300), truncated(), bit_flipped(), date_flipped()
)


def timed_outcome(compile_fn, text):
    start = time.perf_counter()
    try:
        result = compile_fn(text)
        assert isinstance(result, QueryContext)
        outcome = ("plan", result)
    except AIQLError as exc:
        outcome = ("error", type(exc), str(exc))
    assert time.perf_counter() - start < TIME_BOUND_S
    return outcome


@pytest.fixture(autouse=True)
def empty_cache():
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


class TestHostileText:
    @settings(max_examples=300, deadline=None)
    @given(hostile, corpus_texts)
    def test_a_plan_or_a_typed_error_in_bounded_time(self, text, primer):
        PLAN_CACHE.clear()
        cold = timed_outcome(compile_query, text)
        assert cold == timed_outcome(compile_text, text)
        PLAN_CACHE.clear()
        compile_query(primer)
        for source in ALL_QUERIES:
            if source.text[-60:] == text[-60:]:
                compile_query(source.text)  # its skeleton, when it has one
        assert timed_outcome(compile_query, text) == cold

    def test_a_mangled_date_binds_to_the_cold_error(self):
        binds = REGISTRY.get("aiql_plan_cache_binds_total").value()
        for source in ALL_QUERIES:
            compile_query(source.text)
            mangled = source.text.replace('(at "01/', '(at "0x/', 1)
            assert timed_outcome(compile_query, mangled) == (
                timed_outcome(compile_text, mangled)
            )
        assert REGISTRY.get("aiql_plan_cache_binds_total").value() == (
            binds + len(ALL_QUERIES)
        )

    @pytest.mark.parametrize(
        "text",
        [
            "proc p[" + "(" * 5000 + "] read file f return p",
            "proc p[" + "!" * 5000 + '"x"] read file f return p',
            "proc p" + "a" * 200_000 + " read file f return p",
            '(at "' + "1" * 200_000 + '") proc p read file f return p',
            "proc p read file f as evt[amount > " + "9" * 50_000 + "] return p",
        ],
    )
    def test_deep_or_long_input(self, text):
        assert timed_outcome(compile_query, text)[0] in ("plan", "error")

    def test_nesting_past_the_stack_is_a_syntax_error(self):
        with pytest.raises(AIQLSyntaxError, match="nests too deeply"):
            compile_query("proc p[" + "(" * 5000 + "] read file f return p")
