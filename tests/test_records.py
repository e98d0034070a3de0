"""Every result record is an immutable NamedTuple."""

import pytest

from phelix import (
    analyze,
    classify_quintic,
    constant_z_parameters,
    cross_norm,
    decompose_wronskian_quintic,
    frenet_frame,
    hopf_from_quaternion,
    invariants,
    is_helix,
)
from phelix.cli import _build_report
from phelix.references import reference_curve, run_checks


def _records():
    ref = reference_curve("example2")
    spec = ref.spec
    h = spec.hodograph()
    quat = spec.quaternion_form()
    report = classify_quintic(quat)
    return {
        "CrossNorm": cross_norm(h),
        "FrenetFrame": frenet_frame(analyze(h)),
        "Invariants": invariants(h),
        "HelixVerdict": is_helix(h),
        "CurveAnalysis": analyze(h),
        "CurveSpec": spec,
        "WronskianDecomposition": decompose_wronskian_quintic(hopf_from_quaternion(quat)),
        "QuinticClass": report.quintic_class,
        "DependenceSolution": report.quintic_class.dependence,
        "ConstantZParameters": constant_z_parameters(quat),
        "ClassificationReport": report,
        "ReferenceCurve": ref,
        "CheckResult": run_checks(ref)[0],
        "ReportDocument": _build_report(spec),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    assert record._fields
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
