"""The execution-plan model."""

import dataclasses

import pytest

from repro.errors import PlanningError
from repro.portal.plan import ExecutionPlan, PlanStep
from repro.sql.ast import AreaClause


def make_step(alias, *, dropout=False, count=None, attrs=()):
    return PlanStep(
        alias=alias,
        archive=f"ARCH_{alias}",
        url=f"http://{alias.lower()}/crossmatch",
        sigma_arcsec=0.5,
        dropout=dropout,
        count_star=count,
        table="objects",
        id_column="object_id",
        ra_column="ra",
        dec_column="dec",
        residual_sql="",
        attr_select=tuple(attrs),
        sql=f"SELECT ... {alias}",
    )


def make_plan():
    # Paper order: drop-out first on the list, then descending counts.
    return ExecutionPlan(
        steps=(
            make_step("D", dropout=True),
            make_step("B", count=200, attrs=(("flux", "B.flux", "double"),)),
            make_step("A", count=50, attrs=(("mag", "A.mag", "double"),)),
        ),
        threshold=3.5,
        area=AreaClause(185.0, -0.5, 900.0),
    )


def test_step_access():
    plan = make_plan()
    assert plan.step(0).alias == "D"
    assert plan.step(2).alias == "A"
    with pytest.raises(PlanningError):
        plan.step(3)
    with pytest.raises(PlanningError):
        plan.step(-1)


def test_member_aliases_in_computation_order():
    plan = make_plan()
    # Execution starts at the END of the list (A) and moves backwards.
    assert plan.member_aliases_after(0) == ["A", "B"]
    assert plan.member_aliases_after(1) == ["A", "B"]
    assert plan.member_aliases_after(2) == ["A"]


def test_dropouts_never_join_members():
    plan = make_plan()
    assert "D" not in plan.member_aliases_after(0)


def test_attr_columns_accumulate():
    plan = make_plan()
    assert plan.attr_columns_after(2) == [("A.mag", "double")]
    assert plan.attr_columns_after(0) == [("A.mag", "double"), ("B.flux", "double")]


def test_wire_roundtrip():
    plan = make_plan()
    back = ExecutionPlan.from_wire(plan.to_wire())
    assert back == plan


def test_wire_roundtrip_without_area():
    plan = ExecutionPlan(
        steps=(make_step("A", count=1),), threshold=2.0, area=None
    )
    back = ExecutionPlan.from_wire(plan.to_wire())
    assert back.area is None
    assert back == plan


def test_empty_plan_rejected():
    with pytest.raises(PlanningError):
        ExecutionPlan(steps=(), threshold=1.0, area=None)


def test_dropout_last_rejected():
    with pytest.raises(PlanningError):
        ExecutionPlan(
            steps=(make_step("A", count=1), make_step("D", dropout=True)),
            threshold=1.0,
            area=None,
        )


def test_all_dropout_rejected():
    with pytest.raises(PlanningError):
        ExecutionPlan(
            steps=(make_step("D", dropout=True),), threshold=1.0, area=None
        )


# -- fingerprint coverage: every byte-changing knob, nothing else ---------------

BASE_PROFILE = (
    ("batch_size", "2147483647"),
    ("shard_layout:SDSS", "layout-a"),
)

PROFILE_FLIPS = {
    "batch_size": "64",
    "shard_layout:SDSS": "layout-b",
}


def make_profiled_plan(profile=BASE_PROFILE):
    plan = make_plan()
    return dataclasses.replace(plan, profile=profile)


def test_fingerprint_covers_every_profile_knob():
    """Two plans differing in exactly one execution knob never share a
    cache key — the semantic cache's safety regression."""
    base = make_profiled_plan()
    for knob, flipped in PROFILE_FLIPS.items():
        profile = tuple(
            (k, flipped if k == knob else v) for k, v in BASE_PROFILE
        )
        other = make_profiled_plan(profile)
        assert other.fingerprint(0) != base.fingerprint(0), knob
        # The knob changes every suffix too (resume checkpoints).
        assert other.fingerprint(1) != base.fingerprint(1), knob


def test_fingerprint_covers_epoch_threshold_area():
    base = make_profiled_plan()
    pinned = dataclasses.replace(
        base,
        steps=base.steps[:-1]
        + (dataclasses.replace(base.steps[-1], epoch=3),),
    )
    assert pinned.fingerprint(0) != base.fingerprint(0)
    assert dataclasses.replace(base, threshold=3.6).fingerprint(0) != \
        base.fingerprint(0)
    assert dataclasses.replace(
        base, area=AreaClause(185.0, -0.5, 901.0)
    ).fingerprint(0) != base.fingerprint(0)


def test_fingerprint_ignores_placement_and_estimates():
    """URLs and count-star estimates are placement, not content:
    failover must not orphan cached state."""
    base = make_profiled_plan()
    moved = base.replace_url(1, "http://replica-b/crossmatch")
    assert moved.fingerprint(0) == base.fingerprint(0)
    assert moved.profile == base.profile
    recounted = dataclasses.replace(
        base,
        steps=(
            base.steps[0],
            dataclasses.replace(
                base.steps[1],
                count_star=999,
            ),
            base.steps[2],
        ),
    )
    assert recounted.fingerprint(0) == base.fingerprint(0)


def test_profile_stays_off_the_wire():
    """The profile keys the cache but never serializes: node-side plan
    bytes stay identical whatever the batch size or shard layout."""
    plain = make_plan()
    profiled = make_profiled_plan()
    assert profiled.to_wire() == plain.to_wire()
    assert "profile" not in profiled.to_wire()
    assert ExecutionPlan.from_wire(profiled.to_wire()).profile == ()
