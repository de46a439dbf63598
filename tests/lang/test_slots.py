"""Slot scanning: which literals of a canonical text a plan template binds."""

import pytest

from repro.engine import canonical_text
from repro.lang.slots import AT, FROM, NEGATIVE, NUMBER, TO, number_value, scan_slots

SWEEP = (
    '(from "01/03/2017" to "01/08/2017") '
    "proc p1 write file f1 as evt1[amount > 612345] "
    "proc p2 read file f1 as evt2[amount > 612345] "
    "with evt1 before evt2 return distinct p1, f1, p2 top 100"
)


class TestScanSlots:
    def test_a_sweep_has_two_dates_and_two_thresholds(self):
        scan = scan_slots(SWEEP)
        assert scan.literals == ("01/03/2017", "01/08/2017", "612345", "612345")
        assert scan.kinds == (FROM, TO, NUMBER, NUMBER)
        assert "".join(
            piece + literal
            for piece, literal in zip(scan.skeleton, scan.literals + ("",))
        ) == SWEEP

    def test_texts_differing_only_in_slots_share_a_skeleton(self):
        other = (
            SWEEP.replace("01/03/2017", "2017-01-02 10:30")
            .replace("612345", "7.5")
        )
        assert scan_slots(other).skeleton == scan_slots(SWEEP).skeleton
        assert scan_slots(other).literals[0] == "2017-01-02 10:30"

    @pytest.mark.parametrize(
        "text",
        [
            # agentid becomes the plan's agent_ids: global or bracketed
            'agentid = 1 proc p read file f return p',
            'proc p["%cp%", agentid = 2] read file f return p',
            'proc p[agent_id = 2] read file f return p',
            # entity strings, IN lists, top, durations, history indexes
            'proc p["%42%"] read file f["/tmp/%"] return p top 5',
            "proc p[pid in (1, 2)] read file f return p",
            "proc p read file f as e1 proc p write file g as e2 "
            "with e1 before[1-2 min] e2 return p",
            "window = 1 min, step = 10 sec proc p read file f as evt "
            "return p, count(evt.id) as n group by p having n > 2 * n[1]",
            # a global comparison is not bracketed
            "amount > 5 proc p read file f return p",
            # a number that is not the whole token
            "proc p read file f as evt[amount > 5.5.5] return p",
        ],
    )
    def test_literals_that_shape_the_plan_are_not_slots(self, text):
        assert scan_slots(text) is None

    def test_window_strings_and_bracketed_numbers_are(self):
        scan = scan_slots(
            'agentid = 3 (at "01/05/2017") proc p[pid >= -12] read file f '
            '["%x%"] as evt[amount != 4.25 || amount < 3] (at "01/06/2017") '
            "return p"
        )
        assert scan.literals == ("01/05/2017", "12", "4.25", "3", "01/06/2017")
        assert scan.kinds == (AT, NEGATIVE, NUMBER, NUMBER, AT)
        assert "agentid = 3" in scan.skeleton[0]

    def test_a_string_that_looks_like_a_slot_is_not_one(self):
        assert scan_slots('proc p["[amount > 5] (at "] read file f return p') is None

    @pytest.mark.parametrize(
        "text",
        [
            'proc p read file f as evt[amount > 5] // (at "x")\n return p',
            "proc p['x'] read file f as evt[amount > 5] return p",
            'proc p["a\\"b"] read file f as evt[amount > 5] return p',
            'proc p["a  b"] read file f as evt[amount > 5] return p',
        ],
    )
    def test_a_text_canonical_text_only_strips_is_never_templated(self, text):
        key = canonical_text(text)
        assert key == text.strip()
        assert scan_slots(key) is None

    def test_the_sign_stays_in_the_skeleton(self):
        positive = scan_slots("proc p read file f as evt[amount > 5] return p")
        negative = scan_slots("proc p read file f as evt[amount > -5] return p")
        assert positive.skeleton != negative.skeleton
        assert number_value(negative.literals[0], negative.kinds[0]) == -5

    def test_number_values_follow_the_lexer(self):
        assert type(number_value("5", NUMBER)) is int
        assert type(number_value("5.0", NUMBER)) is float
        assert number_value("007", NUMBER) == 7
        assert number_value("2.5", NEGATIVE) == -2.5

    def test_long_hostile_input_scans_in_linear_time(self):
        import time

        start = time.perf_counter()
        for text in (
            "[" + "a" * 200_000 + " >",
            "[" + "a >" * 50_000,
            '(at "' + "x" * 200_000,
            "[" + "9" * 200_000 + ".",
        ):
            scan_slots(text + '"')
            scan_slots(text)
        assert time.perf_counter() - start < 2.0
