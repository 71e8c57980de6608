"""Pinned execution outputs: the one-command check for changes to the
execution lane and the memory system it calls.

Every cell below runs execution-driven (with trace capture) and must
reproduce, bit for bit, the sha256 prefixes recorded before the lane's
private-LM, L1I-at-finish and flat SM demand paths were introduced: of the
captured trace's ``to_bytes()`` and of the record's simulated results (the
fields the benchmark digests: cycles, energy, phase cycles, memory and core
statistics, as canonical JSON).  A change meant to alter simulated results
re-records them; any other change must leave them alone.

    PYTHONPATH=src python -m pytest -q tests/test_execution_digests.py
"""

import dataclasses
import hashlib
import json

import pytest

from repro.harness.config import PTLSIM_CONFIG
from repro.trace import capture_workload

#: The record fields covered, as in the benchmark's op digest.
DIGEST_FIELDS = ("cycles", "energy", "phase_cycles", "memory_stats",
                 "core_stats")

#: (workload, mode, cores, clusters) at scale tiny -> (trace bytes, record)
#: sha256 prefixes.
PINNED = {
    ("CG", "hybrid", 1, 1): ("ae2e7e745dd91833", "1ed03cc5c6f56980"),
    ("CG", "hybrid", 2, 1): ("08e7b1e3f354f952", "b6dac7e53b8c3342"),
    ("CG", "hybrid", 4, 1): ("ddbede98599d85bf", "86e291d63b8c04e0"),
    ("CG", "hybrid", 4, 2): ("ddbede98599d85bf", "0abe84c908460c83"),
    ("CG", "hybrid-oracle", 1, 1): ("b083fb304099068a", "65a4afc6cb8f3138"),
    ("CG", "hybrid-oracle", 2, 1): ("dbf9349881ed8bd2", "7fe2eaf2ed77d891"),
    ("CG", "hybrid-oracle", 4, 1): ("af52e72302520eb5", "1596503270be95a5"),
    ("CG", "hybrid-oracle", 4, 2): ("af52e72302520eb5", "2c132c15df123205"),
    ("CG", "cache", 1, 1): ("cd0e84009655d2d5", "65203f298b82cf7a"),
    ("CG", "cache", 2, 1): ("4a90829067f44dc9", "9b0a9306884f38ae"),
    ("CG", "cache", 4, 1): ("a2fff35aacd24775", "daf663944afa34bd"),
    ("CG", "cache", 4, 2): ("a2fff35aacd24775", "67df75b647d9ce12"),
    ("IS", "hybrid", 1, 1): ("e1fe1b232d81b374", "e7c6c4ca1a1a8482"),
    ("IS", "hybrid", 2, 1): ("b09c9112af52b3ff", "423390a2a29d6004"),
    ("IS", "hybrid", 4, 1): ("4f307b72b7f8342b", "2281efa0895f209c"),
    ("IS", "hybrid", 4, 2): ("4f307b72b7f8342b", "6c782622719bdf12"),
    ("IS", "hybrid-oracle", 1, 1): ("09958681faccc05f", "46236e9dd0db7f71"),
    ("IS", "hybrid-oracle", 2, 1): ("b7c31feba746c74e", "074d5c4866e45d10"),
    ("IS", "hybrid-oracle", 4, 1): ("67b937102905465e", "1e44895a600ebfbe"),
    ("IS", "hybrid-oracle", 4, 2): ("67b937102905465e", "b503a050fe811e96"),
    ("IS", "cache", 1, 1): ("277dacc4fa008c32", "d7844a40a5d13ff8"),
    ("IS", "cache", 2, 1): ("1dba3aa2cc70417d", "85bb337b315fdc9f"),
    ("IS", "cache", 4, 1): ("1184a03a9340108b", "3e393b446c71252e"),
    ("IS", "cache", 4, 2): ("1184a03a9340108b", "39b5c82886cc8582"),
    ("FT", "hybrid", 1, 1): ("8ec856d85e648faa", "d0544fe56649da2c"),
    ("FT", "hybrid", 2, 1): ("fe29a40ac33e6f23", "5bc458d1355aba05"),
    ("FT", "hybrid", 4, 1): ("ec06fcdefde2e47c", "d313b7d64439a8ba"),
    ("FT", "hybrid", 4, 2): ("ec06fcdefde2e47c", "2d5b298cd51679e1"),
    ("FT", "hybrid-oracle", 1, 1): ("44f40b4fe6136b31", "b8ac760702bd8232"),
    ("FT", "hybrid-oracle", 2, 1): ("1cfc5cc4b626efe7", "7f922ca0f3d3f5b8"),
    ("FT", "hybrid-oracle", 4, 1): ("60babcc0b9487bce", "83585247db95dac7"),
    ("FT", "hybrid-oracle", 4, 2): ("60babcc0b9487bce", "da965fcb79fea69d"),
    ("FT", "cache", 1, 1): ("2352fc290ab6c6e6", "8d1dfc2c26a7609e"),
    ("FT", "cache", 2, 1): ("d1c9f7ff4050906a", "bbbdbc4c7b0f680e"),
    ("FT", "cache", 4, 1): ("11dba1ea87e9ad85", "0966727024aff4b4"),
    ("FT", "cache", 4, 2): ("11dba1ea87e9ad85", "ddfffdd56a353b6d"),
    ("MG", "hybrid", 1, 1): ("372cf95802d8e5e4", "23cd490ab815cc5f"),
    ("MG", "hybrid", 2, 1): ("ba55fc6a12af108f", "7953a69870e70fde"),
    ("MG", "hybrid", 4, 1): ("a9ba5bb786079622", "aff779acdfd6a77c"),
    ("MG", "hybrid", 4, 2): ("a9ba5bb786079622", "f8b8e111a09c2d4d"),
    ("MG", "hybrid-oracle", 1, 1): ("e4dd887d9f767c87", "8cd816f80ea6585e"),
    ("MG", "hybrid-oracle", 2, 1): ("4c68c18b21672155", "c86d16c63ef96fa2"),
    ("MG", "hybrid-oracle", 4, 1): ("99f374caac1c54ec", "709a13ed93961980"),
    ("MG", "hybrid-oracle", 4, 2): ("99f374caac1c54ec", "561af98cbceae43a"),
    ("MG", "cache", 1, 1): ("f74985ad684c4347", "7b18dedf80528638"),
    ("MG", "cache", 2, 1): ("ef24ae8e6b48d6a3", "269dd188ad61a19f"),
    ("MG", "cache", 4, 1): ("ff090ca966a13ac9", "b22051060a9cb1b5"),
    ("MG", "cache", 4, 2): ("ff090ca966a13ac9", "cdec44df4276277f"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("cell", list(PINNED),
                         ids=lambda cell: "-".join(map(str, cell)))
def test_execution_matches_pinned_digests(cell):
    workload, mode, cores, clusters = cell
    machine = dataclasses.replace(PTLSIM_CONFIG, num_cores=cores,
                                  num_clusters=clusters)
    result, trace = capture_workload(workload, mode, "tiny", machine=machine)
    record = result.to_record().as_dict()
    blob = json.dumps({name: record[name] for name in DIGEST_FIELDS},
                      sort_keys=True, separators=(",", ":"))
    assert (_sha(trace.to_bytes()), _sha(blob.encode())) == PINNED[cell]
