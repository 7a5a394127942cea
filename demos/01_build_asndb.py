#!/usr/bin/env python3
# Build an ASN-to-country database from RIR delegated-statistics data.
#
# The five RIRs publish pipe-separated files describing which country each
# AS number is delegated to.  This walkthrough parses two tiny inline
# excerpts, merges them (watching a cross-registry duplicate get resolved),
# saves the result and reloads it as the country map `analyze` reads.
#
# Run:  python demos/01_build_asndb.py

import io
import tempfile
from pathlib import Path

from ixpreach import asndb

# --- 1) Two miniature delegated files -----------------------------------
# Real files start with a version line and per-type summary lines; record
# rows are registry|cc|type|start|value|date|status.  Only `asn` rows with
# status allocated/assigned matter here; the ipv4 row is ignored.

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
"""

# parse_delegated returns the records plus a log of rows that should have
# been ASN records but did not parse, as (line number, reason) pairs.

ripe, ripe_skipped = asndb.parse_delegated(io.StringIO(RIPE_DATA))
arin, _ = asndb.parse_delegated(io.StringIO(ARIN_DATA))
print(f"ripencc rows parsed: {len(ripe)} records (skipped {len(ripe_skipped)})")
print(f"arin rows parsed:    {len(arin)} records (note the 100..104 range expansion)")

# --- 2) Merge ------------------------------------------------------------
# merge takes the record lists and keeps one record per ASN.  AS 12389
# appears in both files; the record with the *latest* allocation date wins,
# deterministically, and the conflict is counted.

db = asndb.merge([ripe, arin])
print(f"\nmerged database: {len(db)} ASNs, {db.conflicts} conflict(s) resolved")
print("AS 12389 ->", db.records[12389], "(arin's 2015 record beat ripencc's 1998 one)")
print("AS 25133 ->", db.records[25133])

# --- 3) Persist and reload ------------------------------------------------
# The on-disk form is a sorted, diffable asn|country|registry|date file
# under a header with the record and conflict counts.  load checks every
# line but keeps only what analyze reads: an ASN -> country map (one str
# per distinct code), the provenance and the conflict count.

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "asndb.txt"
    asndb.save(db, path)
    print("\npersisted form:")
    print(path.read_text())
    reloaded = asndb.load(path)
    assert reloaded.countries == {asn: rec.country for asn, rec in db.records.items()}
    assert (reloaded.source_files, reloaded.conflicts) == (db.source_files, db.conflicts)
    print("AS 12389 ->", reloaded.countries.get(12389))
    print("AS 64512 ->", reloaded.countries.get(64512), "(never delegated, no country)")
    print("reload OK, country map preserved")
