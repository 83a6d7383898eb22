"""Direct tests of the sp_xmatch stored procedure."""

import random

import pytest

from repro.db.engine import Database
from repro.db.schema import Column
from repro.db.table import SpatialSpec
from repro.db.types import ColumnType
from repro.errors import QueryError
from repro.skynode.xmatch_proc import (
    PROCEDURE_NAME,
    register_xmatch_procedure,
    sp_xmatch_reference,
)
from repro.sphere.coords import radec_to_vector, vector_to_radec
from repro.sphere.random import perturb_gaussian
from repro.sphere.regions import Cap
from repro.sql.parser import parse_expression
from repro.units import arcsec_to_rad
from repro.xmatch.chi2 import Accumulator


def make_database(reference=False, extra_columns=("flux",)):
    """One archive database; ``reference`` installs the scalar loop as
    ``sp_xmatch`` through the same seam production registration uses."""
    database = Database("arch", page_size=16)
    database.create_table(
        "objects",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("ra", ColumnType.FLOAT, nullable=False),
            Column("dec", ColumnType.FLOAT, nullable=False),
        ]
        + [Column(name, ColumnType.FLOAT) for name in extra_columns],
        spatial=SpatialSpec("ra", "dec", htm_depth=12),
    )
    if reference:
        database.register_procedure(PROCEDURE_NAME, sp_xmatch_reference)
    else:
        register_xmatch_procedure(database)
    return database


@pytest.fixture()
def db():
    return make_database()


def insert_objects(db, positions, fluxes=None):
    rows = []
    for i, position in enumerate(positions, start=1):
        ra, dec = vector_to_radec(position)
        flux = fluxes[i - 1] if fluxes else 10.0
        rows.append((i, ra, dec, flux))
    db.insert("objects", rows)


def make_temp(db, accumulators):
    temp = db.create_temp_table(
        "xm",
        [
            Column("seq", ColumnType.INT, nullable=False),
            Column("a", ColumnType.FLOAT, nullable=False),
            Column("ax", ColumnType.FLOAT, nullable=False),
            Column("ay", ColumnType.FLOAT, nullable=False),
            Column("az", ColumnType.FLOAT, nullable=False),
        ],
    )
    for seq, acc in enumerate(accumulators):
        temp.insert((seq, acc.a, acc.ax, acc.ay, acc.az))
    return temp


def call_proc(db, temp, **overrides):
    params = dict(
        temp_table=temp.name,
        primary_table="objects",
        id_column="object_id",
        ra_column="ra",
        dec_column="dec",
        alias="X",
        sigma_arcsec=0.5,
        threshold=3.5,
        area=None,
        residual=None,
        attr_columns=(),
    )
    params.update(overrides)
    return db.call_procedure(PROCEDURE_NAME, **params)


def test_finds_nearby_object(db):
    rng = random.Random(1)
    true = radec_to_vector(185.0, -0.5)
    sigma = arcsec_to_rad(0.5)
    insert_objects(db, [perturb_gaussian(rng, true, sigma)])
    incoming = Accumulator.of_observation(
        perturb_gaussian(rng, true, sigma), sigma
    )
    temp = make_temp(db, [incoming])
    result = call_proc(db, temp)
    assert result.seqs.tolist() == [0]
    assert result.ids == [1]
    assert result.stats.tuples_in == 1


def test_rejects_distant_object(db):
    sigma = arcsec_to_rad(0.5)
    insert_objects(db, [radec_to_vector(185.1, -0.5)])  # 360 arcsec away
    incoming = Accumulator.of_observation(radec_to_vector(185.0, -0.5), sigma)
    temp = make_temp(db, [incoming])
    result = call_proc(db, temp)
    assert result.pairs() == []


def test_area_filters_candidates(db):
    sigma = arcsec_to_rad(0.5)
    position = radec_to_vector(185.0, -0.5)
    insert_objects(db, [position])
    incoming = Accumulator.of_observation(position, sigma)
    temp = make_temp(db, [incoming])
    far_area = Cap.from_radec(10.0, 10.0, 60.0)
    result = call_proc(db, temp, area=far_area)
    assert result.pairs() == []


def test_residual_filters_candidates(db):
    sigma = arcsec_to_rad(0.5)
    position = radec_to_vector(185.0, -0.5)
    insert_objects(db, [position], fluxes=[5.0])
    incoming = Accumulator.of_observation(position, sigma)
    temp = make_temp(db, [incoming])
    passing = call_proc(db, temp, residual=parse_expression("X.flux > 1"))
    failing = call_proc(
        db, make_temp(db, [incoming]), residual=parse_expression("X.flux > 9")
    )
    assert passing.seqs.tolist() == [0]
    assert failing.pairs() == []


def test_attr_columns_carried(db):
    sigma = arcsec_to_rad(0.5)
    position = radec_to_vector(185.0, -0.5)
    insert_objects(db, [position], fluxes=[7.5])
    temp = make_temp(db, [Accumulator.of_observation(position, sigma)])
    result = call_proc(db, temp, attr_columns=("flux",))
    assert result.attributes == {"flux": [7.5]}


def test_multiple_tuples_and_candidates(db):
    rng = random.Random(3)
    sigma = arcsec_to_rad(0.5)
    a = radec_to_vector(185.0, -0.5)
    b = radec_to_vector(185.05, -0.45)
    insert_objects(
        db,
        [perturb_gaussian(rng, a, sigma), perturb_gaussian(rng, b, sigma)],
    )
    temp = make_temp(
        db,
        [
            Accumulator.of_observation(perturb_gaussian(rng, a, sigma), sigma),
            Accumulator.of_observation(perturb_gaussian(rng, b, sigma), sigma),
        ],
    )
    result = call_proc(db, temp)
    assert result.seqs.tolist() == [0, 1]
    assert result.ids == [1, 2]


def test_requires_spatial_primary(db):
    db.create_table("flat", [Column("object_id", ColumnType.INT)])
    temp = make_temp(db, [])
    with pytest.raises(QueryError):
        call_proc(db, temp, primary_table="flat")


def test_stats_counters(db):
    rng = random.Random(4)
    sigma = arcsec_to_rad(0.5)
    true = radec_to_vector(185.0, -0.5)
    insert_objects(db, [perturb_gaussian(rng, true, sigma) for _ in range(5)])
    temp = make_temp(
        db, [Accumulator.of_observation(perturb_gaussian(rng, true, sigma), sigma)]
    )
    result = call_proc(db, temp)
    assert result.stats.tuples_in == 1
    assert result.stats.candidates_tested >= result.stats.matches_found
    assert result.stats.rows_examined >= result.stats.candidates_tested


def make_crowded(db, seed=7, n=40):
    """A crowded field plus incoming tuples over the same bodies."""
    rng = random.Random(seed)
    sigma = arcsec_to_rad(0.5)
    center = radec_to_vector(185.0, -0.5)
    from repro.sphere.random import random_in_cap

    bodies = [random_in_cap(rng, center, arcsec_to_rad(400.0)) for _ in range(n)]
    insert_objects(
        db,
        [perturb_gaussian(rng, b, sigma) for b in bodies],
        fluxes=[float(i) for i in range(n)],
    )
    incoming = [
        Accumulator.of_observation(perturb_gaussian(rng, b, sigma), sigma)
        for b in bodies
    ]
    return incoming


def snapshot(result):
    """Every pair with its sums as ``float.hex`` (bit for bit), the
    attribute names, and the cost counters."""
    return (
        [
            (*pair[:3], *map(float.hex, pair[3:7]), *pair[7:])
            for pair in result.pairs()
        ],
        list(result.attributes),
        (result.stats.tuples_in, result.stats.candidates_tested,
         result.stats.rows_examined, result.stats.matches_found),
    )


@pytest.mark.parametrize("overrides", [
    {},
    {"area": Cap.from_radec(185.0, -0.5, 300.0)},
    {"residual": parse_expression("X.flux > 10")},
    {"attr_columns": ("flux",)},
])
def test_reference_procedure_agrees_with_production(overrides):
    """The scalar loop installed via ``register_procedure`` vs the
    production body, under both engines: identical matches, stats, and
    buffer-pool traffic across all four combinations."""
    results = {}
    for engine in ("htm", "zone"):
        for reference in (True, False):
            database = make_database(reference)
            incoming = make_crowded(database)
            temp = make_temp(database, incoming)
            result = call_proc(database, temp, engine=engine, **overrides)
            stats = database.buffer.stats
            results[(engine, reference)] = (
                snapshot(result), stats.logical_reads, stats.physical_reads
            )
    baseline = results[("htm", True)]
    for combo, outcome in results.items():
        assert outcome == baseline, combo
    (pairs, _, _), _, _ = baseline
    assert pairs  # the scenario is non-trivial


def test_array_result_is_the_reference_bit_for_bit():
    """``sp_xmatch`` and ``sp_xmatch_reference`` return the same pairs,
    ids, attributes and extended sums (compared as ``float.hex``) under
    both engines, with a residual and an AREA, on two-observation tuples
    of which some find no partner — the ones a drop-out hop keeps."""
    sigma = arcsec_to_rad(0.5)
    results = {}
    for engine in ("htm", "zone"):
        for reference in (True, False):
            database = make_database(reference)
            incoming = [
                acc.with_observation(acc.best_position(), arcsec_to_rad(0.3))
                for acc in make_crowded(database)
            ] + [Accumulator.of_observation(radec_to_vector(186.0, 0.5), sigma)]
            temp = make_temp(database, incoming)
            result = call_proc(
                database, temp, engine=engine,
                area=Cap.from_radec(185.0, -0.5, 300.0),
                residual=parse_expression("X.flux > 10"),
                attr_columns=("flux",),
            )
            results[(engine, reference)] = (snapshot(result), len(incoming))
    baseline = results[("htm", True)]
    assert all(outcome == baseline for outcome in results.values())
    (pairs, names, _), n_in = baseline
    assert names == ["flux"]
    assert 0 < len({pair[0] for pair in pairs}) < n_in


def test_production_procedure_empty_temp(db):
    temp = make_temp(db, [])
    result = call_proc(db, temp)
    assert result.pairs() == [] and result.stats.tuples_in == 0


def test_kernel_is_not_a_procedure_parameter(db):
    """The body is chosen by what is registered, never by an argument."""
    temp = make_temp(db, [])
    with pytest.raises(TypeError):
        call_proc(db, temp, kernel="scalar")


def test_zone_engine_empty_temp(db):
    temp = make_temp(db, [])
    result = call_proc(db, temp, engine="zone")
    assert result.pairs() == [] and result.stats.tuples_in == 0


def test_unknown_engine_rejected(db):
    temp = make_temp(db, [])
    with pytest.raises(QueryError, match="unknown match engine"):
        call_proc(db, temp, engine="rtree")


def test_alternate_position_columns_agree_with_reference():
    """A caller naming non-spatial position columns takes the row-by-row
    fallback and still agrees with the scalar loop."""
    results = {}
    for reference in (True, False):
        database = make_database(reference, extra_columns=("ra2", "dec2"))
        rng = random.Random(11)
        sigma = arcsec_to_rad(0.5)
        center = radec_to_vector(185.0, -0.5)
        from repro.sphere.random import random_in_cap

        bodies = [random_in_cap(rng, center, arcsec_to_rad(300.0))
                  for _ in range(15)]
        rows = []
        for i, body in enumerate(bodies, start=1):
            ra, dec = vector_to_radec(perturb_gaussian(rng, body, sigma))
            rows.append((i, ra, dec, ra, dec))
        database.insert("objects", rows)
        incoming = [
            Accumulator.of_observation(perturb_gaussian(rng, b, sigma), sigma)
            for b in bodies
        ]
        temp = make_temp(database, incoming)
        result = call_proc(
            database, temp, ra_column="ra2", dec_column="dec2"
        )
        results[reference] = snapshot(result)
    assert results[False] == results[True]
