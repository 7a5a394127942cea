#!/usr/bin/env python3
# Build an ASN-to-country database from RIR delegated-statistics data.
#
# The five RIRs publish pipe-separated files describing which country each
# AS number is delegated to.  This walkthrough writes two tiny excerpts,
# builds the database from them in one pass (watching a cross-registry
# duplicate get resolved), saves the result and reloads it as the country
# map `analyze` reads.
#
# Run:  python demos/01_build_asndb.py

import tempfile
from pathlib import Path

from ixpreach import asndb

# --- 1) Two miniature delegated files -----------------------------------
# Real files start with a version line and per-type summary lines; record
# rows are registry|cc|type|start|value|date|status.  Only `asn` rows with
# status allocated/assigned matter here; the ipv4 row is ignored, and so
# is arin's reserved row.

RIPE_DATA = """\
2|ripencc|20220219|4|19830705|20220218|+0100
ripencc|*|asn|*|3|summary
ripencc|UA|asn|25133|1|20020701|allocated
ripencc|UA|asn|12963|1|19990325|assigned
ripencc|RU|asn|12389|1|19981230|allocated
ripencc|NL|ipv4|2.56.0.0|1024|20180312|allocated
"""

ARIN_DATA = """\
2|arin|20220219|3|19700101|20220218|-0500
arin|*|asn|*|3|summary
arin|US|asn|100|5|19950101|assigned
arin|US|asn|12389|1|20150601|assigned
arin||asn|399260|2||reserved
arin|US|asn|400000|1|2015-06-01|assigned
"""

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    items = []
    for registry, text in (("ripencc", RIPE_DATA), ("arin", ARIN_DATA)):
        path = tmp / f"delegated-{registry}.txt"
        path.write_text(text)
        items.append((registry, path))

    # --- 2) Build ---------------------------------------------------------
    # build_from_files reads each file once and folds every ASN row straight
    # into one ASN -> record map.  A record is the plain tuple
    # (rank, registry, country, date) that one row gives each ASN of its
    # range, so arin's 100..104 range shares one; rank is minus the date's
    # day number, so the smaller tuple is the one kept.  AS 12389 appears
    # in both files: the row with the *latest* allocation date wins (then
    # the registry, then the country decide a tie), and the duplicate
    # counts as a conflict.  Rows that should be ASN records but do not
    # parse come back as (registry, line number, reason).

    db, skipped = asndb.build_from_files(items)
    print(f"database: {len(db)} ASNs, {db.conflicts} conflict(s) resolved")
    print("skipped rows:", skipped)
    _, registry, country, date = db.records[12389]
    print(f"AS 12389 -> {country} ({registry} {date}: arin's 2015 row beat ripencc's 1998 one)")
    print("AS 25133 -> (rank, registry, country, date) =", db.records[25133])
    assert db.records[100] is db.records[104]
    print("AS 100..104 share one record tuple:", db.records[100])

    # --- 3) Persist and reload ----------------------------------------------
    # The on-disk form is a sorted, diffable asn|country|registry|date file
    # under a header with the provenance (# source lines) and the record
    # and conflict counts.  load returns only the ASN -> country map that
    # analyze reads (one str per distinct code); of the header it reads
    # just the record count, to check the file is whole.  save also writes a
    # binary country index beside the file (<file>.idx); load takes the map
    # from it while its digest holds for the text and the index byte for
    # byte, and otherwise checks every line of the text.  Deleting the
    # index gives the same map, only slower.

    path = tmp / "asndb.txt"
    asndb.save(db, path)
    print("\npersisted form:")
    print(path.read_text())
    reloaded = asndb.load(path)
    assert reloaded == {asn: country for asn, (_, _, country, _) in db.records.items()}
    index = Path(f"{path}.idx")
    print(f"country index: {index.name}, {index.stat().st_size} bytes")
    index.unlink()
    assert asndb.load(path) == reloaded
    print("same map with the index deleted")
    print("AS 12389 ->", reloaded[12389])
    print("AS 64512 ->", reloaded.get(64512), "(never delegated, no country)")
    print("reload OK, country map preserved")
