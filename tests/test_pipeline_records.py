"""Record kinds: the records built on every evaluation are slotted and
mutable; the inputs and the reports stay frozen."""

import dataclasses
import pickle

import numpy as np
import pytest

from snsqkd.channel import ExperimentParams, ProtocolParams, WindowRates
from snsqkd.chernoff import ChernoffDelta, EpsilonBudget, solve_deltas
from snsqkd.decoy import DecoyObservations, UntaggedStats, decoy_observations
from snsqkd.mcsim import LabeledString, StatCheck
from snsqkd.optimizer import OptimizationResult, OptimizationSpec, RestartRecord
from snsqkd.pipeline import PointResult, evaluate
from snsqkd.postproc import AoppOutcome, BferOutcome, KeyResult, OddSiftOutcome, ZWindowCounts
from snsqkd.presets import preset
from snsqkd.qubitmodel import IterationReport, PairState, make_sigma

EXP = preset("table2", 300.0)
PROTO = ProtocolParams(p_z=0.9, p_send=0.1, mu_z=0.4, decoy_intensities=(0.0, 0.02, 0.1))


def _evaluation_records():
    finite = evaluate(EXP, PROTO, "finite")
    sift = evaluate(EXP, PROTO, "oddsift").sift
    outcome = evaluate(EXP, PROTO, "aopp").aopp_outcome
    return {
        WindowRates: finite.rates,
        UntaggedStats: finite.untagged,
        DecoyObservations: decoy_observations(EXP, PROTO),
        ZWindowCounts: finite.counts,
        BferOutcome: finite.bfer,
        OddSiftOutcome: sift,
        AoppOutcome: outcome,
        KeyResult: finite.key,
        PointResult: finite,
    }


def _reports():
    return {
        ExperimentParams: EXP,
        ProtocolParams: PROTO,
        EpsilonBudget: EpsilonBudget.from_failure_prob(1e-10),
        ChernoffDelta: solve_deltas(1e6, 1e-10),
        OptimizationSpec: OptimizationSpec(variant="aopp"),
        RestartRecord: RestartRecord({}, 0.0, {}, 0.0, 0, True),
        OptimizationResult: OptimizationResult(PROTO, 0.0, 0.0, (), 0, 0),
        LabeledString: LabeledString(np.zeros(2, dtype=np.int8), np.zeros(2, dtype=bool)),
        StatCheck: StatCheck("n_t", 1.0, 1.0, 0.0, 0.0, False),
        PairState: make_sigma(0.3, 0.1, 0.0),
        IterationReport: IterationReport(1, 0.0, 0, 0.0, 0, 0.0),
    }


@pytest.mark.parametrize("cls", list(_evaluation_records()), ids=lambda cls: cls.__name__)
def test_evaluation_records_are_slotted(cls):
    record = _evaluation_records()[cls]
    assert type(record) is cls
    names = tuple(field.name for field in dataclasses.fields(cls))
    assert cls.__slots__ == names and not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, names[0] + "_misspelled", 1.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


def test_replace_still_works_on_bfer_outcome():
    bfer = evaluate(EXP, PROTO, "finite").bfer
    doubled = dataclasses.replace(bfer, n_t2=2.0 * bfer.n_t2)
    assert doubled.n_t2 == 2.0 * bfer.n_t2 and doubled.n_t1 == bfer.n_t1
    assert doubled is not bfer and bfer == evaluate(EXP, PROTO, "finite").bfer


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_point_result_survives_pickle(protocol):
    point = evaluate(EXP, PROTO, "finite")
    copy = pickle.loads(pickle.dumps(point, protocol=protocol))
    assert copy == point and type(copy.bfer) is BferOutcome
    assert copy.key.rate == point.key.rate


@pytest.mark.parametrize("cls", list(_reports()), ids=lambda cls: cls.__name__)
def test_inputs_and_reports_stay_frozen(cls):
    report = _reports()[cls]
    assert type(report) is cls
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(report, name, getattr(report, name))
