import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sinksim.core import (
    DEFAULT_CONSTANTS,
    DUTY_CYCLE_MAX,
    DUTY_CYCLE_MIN,
    ProtocolConstants,
    duty_cycle,
    ms,
    replace_constants,
    validate_constants,
)


def test_defaults_are_consistent():
    assert validate_constants(DEFAULT_CONSTANTS) == []


def test_default_values_match_compiled_table():
    c = DEFAULT_CONSTANTS
    assert (c.d_mf, c.t_mf, c.d_cca, c.t_cca) == (512, 930, 1_442, 140_000)
    assert (c.d_ack, c.d_data) == (480, 4_000)
    assert c.d_drp == c.d_brp == c.d_rrp == 144_000
    assert (c.t_dr, c.t_brp, c.w_br, c.b_src) == (200_000, 300_000, 10_000, 1_000_000)
    assert (c.w_rr, c.b_rr, c.d_rxtx, c.mf_count) == (30_000, 500, 192, 155)
    assert c.bitrate == 250_000


def test_short_cca_period_is_flagged():
    violations = validate_constants(replace_constants(DEFAULT_CONSTANTS, t_cca=ms(1)))
    assert violations == ["T_cca = 100×D_cca"]


def test_short_source_wait_is_flagged():
    # 6 * (144 ms + 10 ms) = 924 ms, so 900 ms is too low
    violations = validate_constants(replace_constants(DEFAULT_CONSTANTS, b_src=ms(900)))
    assert violations == ["B_SRC > 6·(D_BRp+W_BR)"]


@pytest.mark.parametrize(
    "field,value,expected",
    [
        ("d_cca", 1_000, "D_cca >= D_mf + T_mf"),
        ("t_dr", 148_000, "T_DR > D_DATA + D_DRp"),
        ("t_brp", 298_000, "T_BRp > 2·D_BRp + W_BR"),
        ("d_mf", -1, "durations >= 0"),
    ],
)
def test_single_field_violations(field, value, expected):
    violations = validate_constants(replace_constants(DEFAULT_CONSTANTS, **{field: value}))
    assert expected in violations


def test_duty_cycle_hits_the_one_percent_target():
    assert DUTY_CYCLE_MIN <= duty_cycle(DEFAULT_CONSTANTS) <= DUTY_CYCLE_MAX


def test_duty_cycle_is_cca_over_period():
    assert duty_cycle(DEFAULT_CONSTANTS) == pytest.approx(0.0103, abs=2e-4)
    c = replace_constants(DEFAULT_CONSTANTS, t_cca=DEFAULT_CONSTANTS.d_cca)
    assert duty_cycle(c) == 1.0
    c = replace_constants(DEFAULT_CONSTANTS, t_cca=10 * DEFAULT_CONSTANTS.d_cca)
    assert duty_cycle(c) == pytest.approx(0.1)


def test_preamble_micro_frame_count_spans_the_preamble():
    c = DEFAULT_CONSTANTS
    assert c.mf_count * c.t_mf <= c.d_drp + c.t_mf
    assert c.mf_count * c.t_mf >= c.d_drp - c.t_mf


def test_constants_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_CONSTANTS.w_rr = 1


@given(st.integers(min_value=1, max_value=10**7))
def test_validate_never_crashes_on_perturbed_windows(w_rr):
    violations = validate_constants(replace_constants(DEFAULT_CONSTANTS, w_rr=w_rr))
    assert isinstance(violations, list)


def test_ms_helper_rounds_to_integer_microseconds():
    assert ms(10) == 10_000
    assert ms(0.5) == 500
    assert isinstance(ms(1.2), int)
