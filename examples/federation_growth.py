#!/usr/bin/env python3
"""Growing the federation: registration, discovery, and heterogeneity.

The paper's architectural pitch is that an autonomous archive can join the
federation "with minimal effort": stand up four Web services, call the
Portal's Registration service, done. This example builds a federation with
two archives, adds a third *while the federation is running*, and shows:

* the Registration -> GetSchema -> GetInfo handshake on the wire,
* a UDDI-style registry used to discover the Portal in the first place,
* WSDL fetched from a node and used to drive a call,
* dialect heterogeneity hidden by the wrappers (each archive logs the
  statements in its own SQL surface syntax).

Run:  python examples/federation_growth.py
"""

from operator import itemgetter

from repro import FederationConfig, SkyField, build_federation
from repro.db.engine import Database
from repro.db.table import SpatialSpec
from repro.federation.surveys import FIRST, SDSS, TWOMASS
from repro.services import ServiceHost, ServiceProxy, UDDIRegistry
from repro.skynode.node import SkyNode
from repro.skynode.wrapper import ArchiveInfo
from repro.workloads.skysim import generate_bodies, observe_survey


def main() -> None:
    config = FederationConfig(
        surveys=[SDSS, TWOMASS],
        n_bodies=800,
        seed=21,
        sky_field=SkyField(185.0, -0.5, 1800.0),
    )
    federation = build_federation(config)
    portal = federation.portal
    network = federation.network
    print(f"Initial federation: {portal.catalog.archives()}")

    # -- publish the Portal in a UDDI-style registry ---------------------------
    registry = UDDIRegistry()
    registry_host = ServiceHost("uddi.skyquery.net")
    registry_url = registry_host.mount("/registry", registry)
    network.add_host("uddi.skyquery.net", registry_host.handle)
    publisher = ServiceProxy(network, portal.hostname, registry_url)
    publisher.call(
        "Publish",
        name="SkyQueryPortal",
        category="portal",
        url=portal.service_url("registration"),
        description="SkyQuery federation registration endpoint",
    )
    print("Portal published to UDDI registry.")

    # -- a new archive (FIRST) prepares its SkyNode ---------------------------
    db = Database("first", dialect=FIRST.dialect, page_size=64)
    db.create_table(
        FIRST.primary_table,
        FIRST.columns(),
        spatial=SpatialSpec(FIRST.ra_column, FIRST.dec_column, htm_depth=12),
    )
    observation = observe_survey(FIRST, federation.bodies, config.seed)
    names = [column.name for column in FIRST.columns()]
    db.insert(
        FIRST.primary_table, map(itemgetter(*names), observation.rows), names
    )
    node = SkyNode(
        db,
        ArchiveInfo(
            archive=FIRST.archive,
            sigma_arcsec=FIRST.sigma_arcsec,
            primary_table=FIRST.primary_table,
            object_id_column=FIRST.object_id_column,
            ra_column=FIRST.ra_column,
            dec_column=FIRST.dec_column,
        ),
    )
    node.attach(network)

    # Discover the Portal via the registry, then register.
    found = ServiceProxy(network, node.hostname, registry_url).call(
        "Find", category="portal", name=""
    )
    registration_url = found[0]["url"]
    print(f"FIRST discovered the Portal at {registration_url}")
    reply = node.register_with_portal(registration_url)
    print(f"Registration accepted: federation size is now "
          f"{reply['federation_size']} -> {portal.catalog.archives()}")

    handshake = [
        f"{m.operation}({m.src.split('.')[0]} -> {m.dst.split('.')[0]})"
        for m in network.metrics.messages
        if m.phase == "registration" and m.kind == "request"
    ][-3:]
    print(f"Handshake on the wire: {' ; '.join(handshake)}")

    # -- WSDL-driven call against the new node ----------------------------------
    proxy = ServiceProxy(network, "client.skyquery.net",
                         node.service_url("query"))
    description = proxy.fetch_wsdl()
    print(f"\nWSDL of {description.name}: "
          f"{[op.name for op in description.operations]}")
    rowset = proxy.call(
        "ExecuteQuery",
        sql=f"SELECT count(*) FROM {FIRST.primary_table} p",
    )
    print(f"FIRST object count via its Query service: {rowset.rows[0][0]}")

    # -- the 3-archive query now works -----------------------------------------
    result = federation.client().submit(
        """
        SELECT O.object_id, T.obj_id, P.object_id
        FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T,
             FIRST:Primary_Object P
        WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5
        """
    )
    print(f"\n3-archive cross match after joining: {len(result)} rows")

    print("\nDialect heterogeneity (each wrapper logs its own SQL syntax):")
    for archive in ("SDSS", "TWOMASS"):
        wrapper = federation.node(archive).wrapper
        if wrapper.statement_log:
            print(f"  {archive:<8} [{wrapper.dialect.name:>9}] "
                  f"{wrapper.statement_log[-1][:70]}...")
    if node.wrapper.statement_log:
        print(f"  FIRST    [{node.wrapper.dialect.name:>9}] "
              f"{node.wrapper.statement_log[-1][:70]}...")


if __name__ == "__main__":
    main()
