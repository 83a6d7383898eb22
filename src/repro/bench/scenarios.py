"""Shared benchmark scenarios: canned federations and the paper's queries."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.db.engine import Database
from repro.db.table import SpatialSpec
from repro.federation.builder import Federation, FederationConfig, build_federation
from repro.portal.portal import Portal
from repro.services.retry import RetryPolicy
from repro.transport.faults import FaultPlan
from repro.skynode.node import SkyNode
from repro.skynode.wrapper import ArchiveInfo
from repro.sphere.coords import vector_to_radec
from repro.sphere.random import perturb_gaussian
from repro.sphere.vector import Vec3
from repro.transport.network import SimulatedNetwork
from repro.units import arcsec_to_rad
from repro.workloads.skysim import SkyField, SurveySpec

#: The sample query of Section 5.2, adapted to the reproduction's schemas.
PAPER_QUERY = """
SELECT O.object_id, O.ra, T.obj_id
FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P
WHERE AREA(185.0, -0.5, {radius}) AND XMATCH(O, T, P) < 3.5
  AND O.type = GALAXY AND O.i_flux - T.i_flux > 2
"""

#: The drop-out variant the paper walks through (``!P``).
PAPER_QUERY_DROPOUT = """
SELECT O.object_id, O.ra, T.obj_id
FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P
WHERE AREA(185.0, -0.5, {radius}) AND XMATCH(O, T, !P) < 3.5
  AND O.type = GALAXY
"""


def paper_query(radius_arcsec: float = 900.0, dropout: bool = False) -> str:
    """The Section 5.2 query with a configurable AREA radius."""
    template = PAPER_QUERY_DROPOUT if dropout else PAPER_QUERY
    return template.format(radius=radius_arcsec)


def zipf_workload(
    n_queries: int,
    pool_size: int = 4,
    *,
    s: float = 1.1,
    seed: int = 0,
    tenants: Sequence[str] = ("default",),
    base_radius: float = 1500.0,
    step: float = 300.0,
) -> List[Dict[str, object]]:
    """A zipf-repeated multi-tenant workload over a pool of AREA queries.

    Pool rank ``r`` is the Section 5.2 query at radius
    ``base_radius - r * step`` (descending: the hottest query is the
    *widest* circle, so colder, narrower queries are spatially contained
    in it — the regime where the semantic cache's containment reuse
    pays on top of exact repeats). Rank ``r`` is drawn with probability
    proportional to ``1 / (r + 1) ** s``; job ``i`` belongs to
    ``tenants[i % len(tenants)]``. Returns job dicts consumable by
    :meth:`repro.portal.scheduler.QueryScheduler.run`.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if base_radius - (pool_size - 1) * step <= 0:
        raise ValueError("pool radii must stay positive; shrink pool/step")
    rng = random.Random(seed)
    pool = [
        paper_query(base_radius - step * rank) for rank in range(pool_size)
    ]
    weights = [1.0 / (rank + 1) ** s for rank in range(pool_size)]
    picks = rng.choices(range(pool_size), weights=weights, k=n_queries)
    return [
        {"sql": pool[pick], "tenant": tenants[i % len(tenants)]}
        for i, pick in enumerate(picks)
    ]


def build_figure2_federation() -> Tuple[Federation, Dict[str, Dict[str, int]]]:
    """The exact Figure 2 scenario as a running federation.

    Two bodies, three archives O(SDSS-like), T(TWOMASS-like),
    P(FIRST-like): body *a* is observed consistently by all three; body
    *b*'s P observation is displaced far outside the error bound. Returns
    the federation plus ``{body: {archive: object_id}}`` for assertions.
    """
    import random

    rng = random.Random(42)
    from repro.sphere.coords import radec_to_vector

    sigma = {"SDSS": 0.2, "TWOMASS": 0.6, "FIRST": 1.0}  # arcsec
    a_true = radec_to_vector(185.0, -0.5)
    b_true = radec_to_vector(185.01, -0.508)

    def obs(true: Vec3, archive: str, offset_arcsec: float = 0.0) -> Vec3:
        scattered = perturb_gaussian(
            rng, true, arcsec_to_rad(sigma[archive] * 0.5)
        )
        if offset_arcsec:
            # displace deterministically by walking north
            from repro.sphere.random import tangent_basis
            from repro.sphere.vector import add, normalize, scale

            _, north = tangent_basis(scattered)
            scattered = normalize(
                add(scattered, scale(north, arcsec_to_rad(offset_arcsec)))
            )
        return scattered

    placements = {
        "SDSS": [("a", obs(a_true, "SDSS")), ("b", obs(b_true, "SDSS"))],
        "TWOMASS": [("a", obs(a_true, "TWOMASS")), ("b", obs(b_true, "TWOMASS"))],
        # body b's P observation is ~30 sigma off: no cross match.
        "FIRST": [("a", obs(a_true, "FIRST")), ("b", obs(b_true, "FIRST", 30.0))],
    }

    network = SimulatedNetwork()
    portal = Portal()
    portal.attach(network)
    nodes: Dict[str, SkyNode] = {}
    ids: Dict[str, Dict[str, int]] = {"a": {}, "b": {}}
    from repro.db.schema import Column
    from repro.db.types import ColumnType

    for archive, entries in placements.items():
        db = Database(archive.lower(), page_size=16)
        db.create_table(
            "objects",
            [
                Column("object_id", ColumnType.INT, nullable=False),
                Column("ra", ColumnType.FLOAT, nullable=False),
                Column("dec", ColumnType.FLOAT, nullable=False),
            ],
            spatial=SpatialSpec("ra", "dec", htm_depth=12),
        )
        for object_id, (body, position) in enumerate(entries, start=1):
            ra, dec = vector_to_radec(position)
            db.insert("objects", [(object_id, ra, dec)])
            ids[body][archive] = object_id
        info = ArchiveInfo(
            archive=archive,
            sigma_arcsec=sigma[archive],
            primary_table="objects",
            object_id_column="object_id",
            ra_column="ra",
            dec_column="dec",
        )
        node = SkyNode(db, info, hostname=f"{archive.lower()}.fig2.skyquery.net")
        node.attach(network)
        node.register_with_portal(portal.service_url("registration"))
        nodes[archive] = node

    federation = Federation(
        config=FederationConfig(surveys=(), n_bodies=2, seed=42),
        network=network,
        portal=portal,
        nodes=nodes,
        bodies=[],
        truth={},
    )
    return federation, ids


def fresh_federation(
    n_bodies: int = 1500,
    radius_arcsec: float = 1800.0,
    seed: int = 1234,
    *,
    parser_memory_limit: Optional[int] = None,
    chunk_budget_bytes: Optional[int] = None,
    buffer_pages: int = 512,
    retry_policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    replicas: int = 0,
    chain_mode: str = "store-forward",
    ingest: bool = False,
    keep_epochs: Optional[int] = 8,
    scheduler=None,
    cache=None,
) -> Federation:
    """An uncached federation with experiment-specific knobs."""
    from repro.skynode.node import DEFAULT_PARSER_MEMORY_LIMIT

    return build_federation(FederationConfig(
        n_bodies=n_bodies,
        seed=seed,
        sky_field=SkyField(185.0, -0.5, radius_arcsec),
        parser_memory_limit=(
            parser_memory_limit
            if parser_memory_limit is not None
            else DEFAULT_PARSER_MEMORY_LIMIT
        ),
        chunk_budget_bytes=chunk_budget_bytes,
        buffer_pages=buffer_pages,
        retry_policy=retry_policy,
        fault_plan=fault_plan,
        replicas=replicas,
        chain_mode=chain_mode,
        ingest=ingest,
        keep_epochs=keep_epochs,
        scheduler=scheduler,
        cache=cache,
    ))


def survey_chain_federation(n_nodes: int, n_bodies: int, procedure=None, **config):
    """The scalability scenario of E11 and its descendants (E16, E17, E20):
    ``n_nodes`` single-band archives of growing positional error over one
    field; ``config`` overrides any other FederationConfig field.

    A ``procedure`` (the scalar oracle, or a body pinned to the HTM
    engine) replaces ``sp_xmatch`` on every archive through the engine's
    own seam — comparison arms, not federation options."""
    from repro.skynode.xmatch_proc import PROCEDURE_NAME

    surveys = [
        SurveySpec(
            archive=f"SURV{i}",
            sigma_arcsec=0.1 + 0.2 * i,
            detection_rate=0.9,
            primary_table="objects",
            bands=("i",),
            has_type=False,
        )
        for i in range(n_nodes)
    ]
    fed = build_federation(
        FederationConfig(
            surveys=surveys,
            n_bodies=n_bodies,
            seed=99,
            sky_field=SkyField(185.0, -0.5, 1800.0),
            **config,
        )
    )
    if procedure is not None:
        for node in fed.nodes.values():
            node.db.drop_procedure(PROCEDURE_NAME)
            node.db.register_procedure(PROCEDURE_NAME, procedure)
    return fed


def survey_chain_query(n_nodes: int) -> str:
    """The cross-match of every archive of :func:`survey_chain_federation`."""
    froms = ", ".join(f"SURV{i}:objects S{i}" for i in range(n_nodes))
    aliases = ", ".join(f"S{i}" for i in range(n_nodes))
    return (
        f"SELECT S0.object_id FROM {froms} "
        f"WHERE AREA(185.0, -0.5, 900.0) AND XMATCH({aliases}) < 3.5"
    )
