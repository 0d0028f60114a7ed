import math

import numpy as np
import pytest

from fdia_lab.cli import STAGES
from fdia_lab.errors import ConfigError, DataError
from fdia_lab.io_utils import fmt_column, read_csv, write_columns
from fdia_lab.signal_model import (SignalParams, SignalState, observation_row,
                                   observation_rows, simulate)

# the headers simulate writes and detect reads
TRACE_HEADER = list(STAGES["simulate"][1]["trace.csv"])
LABELS_HEADER = list(STAGES["simulate"][1]["labels.csv"])


def test_observation_row_t0():
    np.testing.assert_allclose(observation_row(0, 0.1), [[1.0, 0.0]])


def test_observation_row_quarter_period():
    # omega*t = pi/2 -> [0, -1]
    row = observation_row(1, math.pi / 2)
    np.testing.assert_allclose(row, [[0.0, -1.0]], atol=1e-15)


def test_observation_row_third_period():
    # omega*t = pi/3 -> [cos(pi/3), -sin(pi/3)] = [0.5, -0.8660]
    row = observation_row(1, math.pi / 3)
    np.testing.assert_allclose(row, [[0.5, -0.8660254037844386]], atol=1e-12)


def test_noiseless_simulation_is_cosine():
    params = SignalParams(omega=0.25, seed=3)
    trace = simulate(params, SignalState(1.0, 0.0), 50)
    np.testing.assert_allclose(trace.z, np.cos(0.25 * np.arange(50)), atol=1e-14)


def test_noiseless_simulation_matches_trig_identity():
    # z(t) = Va*cos(omega t + psi) for initial state (Va cos psi, Va sin psi)
    va, psi, omega = 2.3, 0.7, 0.31
    params = SignalParams(omega=omega, seed=0)
    initial = SignalState(va * math.cos(psi), va * math.sin(psi))
    trace = simulate(params, initial, 100)
    expected = va * np.cos(omega * np.arange(100) + psi)
    np.testing.assert_allclose(trace.z, expected, atol=1e-12)


def test_simulation_deterministic_per_seed():
    params = SignalParams(omega=0.2, sigma_process=0.01, sigma_meas=0.05, seed=42)
    a = simulate(params, SignalState(1.0, 0.5), 200)
    b = simulate(params, SignalState(1.0, 0.5), 200)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.states, b.states)


def test_simulation_needs_positive_length():
    with pytest.raises(ConfigError):
        simulate(SignalParams(omega=0.1), SignalState(1.0, 0.0), 0)


def test_measurement_bias_is_centred():
    # mean(z - H x) over 1e5 noisy samples stays within 3*sigma/sqrt(n) of 0
    n = 100_000
    params = SignalParams(omega=0.3, sigma_process=0.0, sigma_meas=0.5, seed=9)
    trace = simulate(params, SignalState(1.0, 0.0), n)
    clean = np.cos(0.3 * np.arange(n)) * trace.states[:, 0] \
        - np.sin(0.3 * np.arange(n)) * trace.states[:, 1]
    bias = float(np.mean(trace.z - clean))
    assert abs(bias) <= 3 * params.sigma_meas / math.sqrt(n)


def test_trace_csv_roundtrip(tmp_path):
    params = SignalParams(omega=0.2, sigma_process=0.01, sigma_meas=0.02, seed=5)
    trace = simulate(params, SignalState(0.9, 0.1), 37)
    path = tmp_path / "trace.csv"
    columns = [trace.ticks, trace.states[:, 0], trace.states[:, 1], trace.z]
    write_columns(path, TRACE_HEADER, [fmt_column(c) for c in columns])
    _, ticks, x1, x2, z = read_csv(path, TRACE_HEADER)
    np.testing.assert_array_equal(ticks, trace.ticks)
    np.testing.assert_array_equal(np.column_stack([x1, x2]), trace.states)
    np.testing.assert_array_equal(z, trace.z)


def test_observation_rows_bit_equal_stacked_rows():
    ticks = np.arange(100_000)
    for omega in (0.3141592653589793, 2 * math.pi / 20, 0.25, 0.35):
        stacked = np.stack([observation_row(int(t), omega) for t in ticks])
        rows = observation_rows(ticks, omega)
        assert rows.shape == (100_000, 1, 2)
        assert rows.tobytes() == stacked.tobytes(), omega


def test_labels_csv_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    write_columns(path, LABELS_HEADER, [fmt_column(np.arange(5)),
                                        fmt_column(np.array([0, 0, 1, 1, 0]))])
    assert path.read_text() == "t,label\n0,0\n1,0\n2,1\n3,1\n4,0\n"
    _, ticks, labels = read_csv(path, LABELS_HEADER)
    np.testing.assert_array_equal(ticks, np.arange(5))
    np.testing.assert_array_equal(labels, [0, 0, 1, 1, 0])


@pytest.mark.parametrize("cell, problem", [("", "is empty"),
                                           ("abc", "is not a number: 'abc'"),
                                           ("nan", "is not finite: 'nan'"),
                                           ("-inf", "is not finite: '-inf'")])
def test_trace_reader_names_the_bad_cell(tmp_path, cell, problem):
    path = tmp_path / "trace.csv"
    path.write_text("t,x1,x2,z\n0,1.0,0.0,1.0\n1,1.0,0.0,0.9\n"
                    f"2,1.0,0.0,{cell}\n3,1.0,0.0,0.7\n")
    with pytest.raises(DataError) as err:
        read_csv(path, TRACE_HEADER)
    assert str(err.value) == f"{path}: row 3, column 'z' {problem}"


@pytest.mark.parametrize("text, where", [("t,label\n0,0\n1,\n", "row 2, column 'label'"),
                                         ("t,label\n0,0\n1.5,1\n", "row 2, column 't'"),
                                         ("t,label\n0,0\n1,2\n", "row 2, column 'label'"),
                                         ("t,label\n0,-1\n1,1\n", "row 1, column 'label'")])
def test_labels_reader_names_the_bad_cell(tmp_path, text, where):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"labels.csv: {where}"):
        read_csv(path, LABELS_HEADER)
