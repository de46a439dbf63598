"""Property tests: window splitting.

``split_window`` drives the temporal parallelization (paper Sec. 5.2); it
gets the randomized treatment here.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.parallel import split_window
from repro.model.time import DAY, HOUR, MINUTE, TimeWindow

# Exactly representable floats so boundary arithmetic stays exact.
GRANULARITIES = (0.5, 1.0, MINUTE, HOUR, 97.0, DAY)

@st.composite
def window_and_granularity(draw):
    """A granularity plus a window spanning at most ~100 cells of it
    (keeps the piece count bounded for sub-second granularities)."""
    granularity = draw(st.sampled_from(GRANULARITIES))
    start = draw(
        st.floats(min_value=0.0, max_value=100 * granularity, allow_nan=False)
    )
    length = draw(
        st.floats(min_value=0.0, max_value=100 * granularity, allow_nan=False)
    )
    return TimeWindow(start=start, end=start + length), granularity


@settings(max_examples=200, deadline=None)
@given(pair=window_and_granularity())
def test_split_covers_window_exactly(pair):
    window, granularity = pair
    pieces = split_window(window, granularity)
    assert pieces[0].start == window.start
    assert pieces[-1].end == window.end
    for a, b in zip(pieces, pieces[1:]):
        assert a.end == b.start


@settings(max_examples=200, deadline=None)
@given(pair=window_and_granularity())
def test_interior_boundaries_are_aligned(pair):
    window, granularity = pair
    pieces = split_window(window, granularity)
    for piece in pieces[1:]:
        assert piece.start % granularity == 0.0
    for piece in pieces[:-1]:
        assert piece.end % granularity == 0.0
    # No piece may be longer than the granularity.
    for piece in pieces:
        assert piece.end - piece.start <= granularity


@settings(max_examples=100, deadline=None)
@given(
    cell=st.integers(min_value=0, max_value=1000),
    offset=st.floats(min_value=0.0, max_value=0.999),
    fraction=st.floats(min_value=0.0, max_value=0.999),
    granularity=st.sampled_from(GRANULARITIES),
)
def test_window_shorter_than_granularity_splits_at_most_once(
    cell, offset, fraction, granularity
):
    start = (cell + offset) * granularity
    window = TimeWindow(start=start, end=start + fraction * granularity)
    pieces = split_window(window, granularity)
    # A sub-granularity window overlaps one aligned cell, or straddles a
    # single boundary — never more.
    assert len(pieces) <= 2


@settings(max_examples=100, deadline=None)
@given(
    cell=st.integers(min_value=0, max_value=50),
    cells=st.integers(min_value=1, max_value=20),
    granularity=st.sampled_from(GRANULARITIES),
)
def test_boundary_aligned_window_yields_whole_cells(cell, cells, granularity):
    window = TimeWindow(
        start=cell * granularity, end=(cell + cells) * granularity
    )
    pieces = split_window(window, granularity)
    assert len(pieces) == cells
    assert all(p.end - p.start == granularity for p in pieces)
