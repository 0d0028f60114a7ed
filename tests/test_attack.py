import math

import numpy as np
import pytest

from conftest import random_dc_system
from fdia_lab.attack import (AttackKind, AttackScenario, SensorSelection, active_mask,
                             inject, inject_series)
from fdia_lab.cli import parse_config
from fdia_lab.dc_estimation import objective, wls_estimate
from fdia_lab.errors import ConfigError, DataError, DimensionError


def fraction_scenario(onset=10, duration=5, fraction=0.05, sensors=(True,)):
    return AttackScenario(selection=SensorSelection(tuple(sensors)),
                          kind=AttackKind.FRACTION_SCALE,
                          onset=onset, duration=duration, fraction=fraction)


def test_inject_empty_selection_is_identity():
    scen = fraction_scenario(sensors=(False,))
    z = np.array([1.0])
    np.testing.assert_array_equal(inject(z, scen, 12), z)


def test_inject_outside_window_is_identity():
    scen = fraction_scenario(onset=10, duration=5)
    z = np.array([100.0])
    np.testing.assert_array_equal(inject(z, scen, 9), z)
    np.testing.assert_array_equal(inject(z, scen, 15), z)


def test_inject_five_percent():
    # +5% of the original measurement inside the window
    scen = fraction_scenario(onset=0, duration=1, fraction=0.05)
    np.testing.assert_allclose(inject(np.array([100.0]), scen, 0), [105.0])


def test_inject_dimension_mismatch():
    scen = fraction_scenario(sensors=(True, False))
    with pytest.raises(DimensionError):
        inject(np.array([1.0]), scen, 10)


def test_inject_duty_cycle():
    scen = AttackScenario(selection=SensorSelection((True,)),
                          kind=AttackKind.FRACTION_SCALE, onset=0, duration=10,
                          fraction=1.0, period=4, duty=2)
    z = np.array([1.0])
    touched = [inject(z, scen, t)[0] != 1.0 for t in range(10)]
    assert touched == [True, True, False, False] * 2 + [True, True]


def test_labels_match_active_window():
    scen = fraction_scenario(onset=3, duration=4)
    np.testing.assert_array_equal(active_mask(scen, np.arange(10)).astype(int),
                                  [0, 0, 0, 1, 1, 1, 1, 0, 0, 0])


SERIES_SCENARIOS = {
    "fraction": dict(kind=AttackKind.FRACTION_SCALE, fraction=0.05),
    "sinusoid": dict(kind=AttackKind.RANDOM_SINUSOID, amplitude=0.3,
                     sinusoid_omega=0.7 * 2 * np.pi / 20),
}


def per_tick_reference(z_t: float, scen: AttackScenario, t: int) -> float:
    """One tick of the attack, written out: z + delta * y on an active tick,
    with y = fraction * z or amplitude * sin(omega t)."""
    since = t - scen.onset
    if not 0 <= since < scen.duration or (scen.period and since % scen.period >= scen.duty):
        return z_t
    if scen.kind is AttackKind.FRACTION_SCALE:
        y = scen.fraction * z_t
    else:
        y = scen.amplitude * math.sin(scen.sinusoid_omega * t)
    return z_t + float(scen.selection.deltas[0]) * y


@pytest.mark.parametrize("name", SERIES_SCENARIOS)
@pytest.mark.parametrize("cycle", [{}, {"period": 7, "duty": 3}])
@pytest.mark.parametrize("selected", [True, False])
def test_inject_series_bit_identical_to_per_tick_inject(rng, name, cycle, selected):
    scen = AttackScenario(selection=SensorSelection((selected,)), onset=40,
                          duration=300, **SERIES_SCENARIOS[name], **cycle)
    ticks = np.arange(500)
    z = rng.normal(0.0, 3.0, size=len(ticks))
    z[::11] = -0.0
    attacked, active = inject_series(z, scen, ticks)
    reference = np.array([per_tick_reference(z_t, scen, t)
                          for t, z_t in zip(ticks.tolist(), z.tolist())])
    assert attacked.tobytes() == reference.tobytes()
    per_tick = np.array([inject(np.array([z_t]), scen, int(t))[0]
                         for t, z_t in zip(ticks, z)])
    assert per_tick.tobytes() == reference.tobytes()
    # the mask marks a tick only where the selected sensor was attacked
    since = ticks - 40
    window = (since >= 0) & (since < 300)
    if cycle:
        window &= since % 7 < 3
    np.testing.assert_array_equal(active, window & selected)
    np.testing.assert_array_equal(active_mask(scen, ticks) & selected, active)


def test_active_mask_duty_cycle_and_window_edges():
    scen = AttackScenario(selection=SensorSelection((True,)),
                          kind=AttackKind.FRACTION_SCALE, onset=3, duration=9,
                          fraction=1.0, period=4, duty=2)
    ticks = np.arange(15)
    # on for 2 of every 4 ticks from tick 3, and never from tick 12 on
    np.testing.assert_array_equal(active_mask(scen, ticks).astype(int),
                                  [0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0])
    assert active_mask(scen, ticks).dtype == bool


def test_inject_series_rejects_multi_sensor_scenario_and_bad_values():
    with pytest.raises(DimensionError):
        inject_series(np.ones(5), fraction_scenario(sensors=(True, False)), np.arange(5))
    with pytest.raises(DataError):
        inject_series(np.array([1.0, np.nan]), fraction_scenario(), np.arange(2))
    with pytest.raises(DimensionError):
        inject_series(np.ones(5), fraction_scenario(), np.arange(4))


def test_random_sinusoid_requires_params():
    with pytest.raises(ConfigError):
        AttackScenario(selection=SensorSelection((True,)),
                       kind=AttackKind.RANDOM_SINUSOID, onset=0, duration=1)


def test_stealthy_bias_preserves_objective(rng):
    for _ in range(50):
        sys = random_dc_system(rng, m=6, n=3)
        z = rng.normal(size=6)
        d = rng.normal(size=3)
        ac = sys.jacobian @ d
        x_hat = wls_estimate(sys, z)
        clean = objective(sys, z, x_hat)
        attacked = objective(sys, z + ac, x_hat + d)
        assert attacked == pytest.approx(clean, rel=1e-9, abs=1e-12)


def test_stealth_invisible_to_bad_data_check(rng):
    threshold = 5.0
    for _ in range(100):
        sys = random_dc_system(rng, m=8, n=4)
        z = sys.jacobian @ rng.normal(size=4) + rng.normal(0, 0.3, size=8)
        d = rng.normal(size=4)
        ac = sys.jacobian @ d
        x_hat = wls_estimate(sys, z)
        clean_flag = objective(sys, z, x_hat) > threshold
        attacked_flag = objective(sys, z + ac, x_hat + d) > threshold
        assert attacked_flag == clean_flag


def test_attacked_residual_stealth_cancellation(rng):
    # the estimate of the attacked measurement is shifted by d, and the
    # residual the bad-data check sees keeps its norm
    sys = random_dc_system(rng, m=6, n=3)
    z = rng.normal(size=6)
    d = rng.normal(size=3)
    x_hat = wls_estimate(sys, z)
    z_ac = z + sys.jacobian @ d
    x_ac = wls_estimate(sys, z_ac)
    np.testing.assert_allclose(x_ac, x_hat + d, rtol=1e-9, atol=1e-12)
    clean = np.linalg.norm(z - sys.jacobian @ x_hat)
    assert np.linalg.norm(z_ac - sys.jacobian @ x_ac) == pytest.approx(clean, rel=1e-9)


def test_injection_locality_bit_identical():
    scen = fraction_scenario(onset=50, duration=10)
    rng = np.random.default_rng(0)
    zs = rng.normal(size=(100, 1))
    for t, z in enumerate(zs):
        out = inject(z, scen, t)
        if not 50 <= t < 60:
            assert out[0] == z[0]  # bitwise identical outside the window


def scenario_from_config(attack: dict) -> AttackScenario:
    return parse_config({"outputs": "run", "signal": {"omega": 0.25, "n": 10},
                         "attack": attack}).scenario


def test_scenario_json_roundtrip():
    obj = {"kind": "random_sinusoid", "onset": 7, "duration": 30, "amplitude": 0.3,
           "sinusoid_omega": 0.2, "period": 8, "duty": 3, "sensors": [False]}
    back = scenario_from_config(obj)
    assert back.kind is AttackKind.RANDOM_SINUSOID
    assert back.selection == SensorSelection((False,))
    assert back.onset == 7 and back.duration == 30
    assert (back.amplitude, back.sinusoid_omega) == (0.3, 0.2)
    assert (back.period, back.duty) == (8, 3)
    assert back.fraction is None


def test_scenario_json_matches_declared_schema():
    scen = fraction_scenario(onset=2310, duration=944, fraction=0.05)
    obj = {"kind": "fraction_scale", "onset": 2310, "duration": 944,
           "fraction": 0.05, "sensors": [True]}
    assert scenario_from_config(obj) == scen
