"""The inputs and CLI operations of the three workloads.

Every operation is one ``hamloc`` command line.  Building a workload
writes its input JSON files and validates every input, which is the
set-up the ``setup_s`` metric times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from hamloc import instances as inst
from hamloc.fincat import disjoint_union, validate_category, wide_subcategory_violations
from hamloc.jsonio import write_canonical
from hamloc.relcat import RelativeCategory, validate_relative
from hamloc.scat import (
    RelativeSimplicialCategory,
    promote,
    relscat_to_json,
    sub_from_morphisms,
    validate_relscat,
    validate_scat,
)

WORKLOADS = ("roundtrip", "materialize", "certify")
ORACLE_MAX_LEN = 8


@dataclass
class Op:
    """One CLI call: ``command`` names its metric stem, ``subject`` holds
    the input as hamloc objects so checks and the traced rebuild need not
    parse the file again."""

    command: str
    label: str
    argv: list
    subject: object
    truncation: int = 1
    width: int = 4

    @property
    def name(self):
        return f"{self.command} {self.label}"


def _ids(c):
    return sorted(c.identity.values())


def neglectable_relscats():
    """The six neglectable instances of acceptance criterion 5."""
    iso = inst.walking_iso()
    two_isos = disjoint_union(inst.walking_iso(), inst.walking_iso())
    z2 = inst.group_z2()
    chain = inst.chain3()
    p = promote(iso, 1)
    p2 = promote(two_isos, 1)
    p3 = promote(z2, 1)
    p4 = promote(chain, 1)
    z2s = inst.z2_nerve_scat(1)
    full_sub = {("o", "o"): tuple(frozenset(z2s.homs[("o", "o")].level(k)) for k in range(2))}
    return [
        ("walking-iso-both-arrows",
         RelativeSimplicialCategory(p, sub_from_morphisms(p, iso, iso.morphisms))),
        ("walking-iso-one-arrow",
         RelativeSimplicialCategory(p, sub_from_morphisms(p, iso, ["idX", "idY", "u"]))),
        ("two-walking-isos",
         RelativeSimplicialCategory(p2, sub_from_morphisms(p2, two_isos, two_isos.morphisms))),
        ("involution-group",
         RelativeSimplicialCategory(p3, sub_from_morphisms(p3, z2, z2.morphisms))),
        ("chain-identities",
         RelativeSimplicialCategory(p4, sub_from_morphisms(p4, chain, _ids(chain)))),
        ("involution-nerve-category", RelativeSimplicialCategory(z2s, full_sub)),
    ]


def spans_24i():
    """The four spans (category, u, v) of the 2.4i tests; ``chain3-f``
    puts the non-invertible f into v."""
    chain, iso, retract = inst.chain3(), inst.walking_iso(), inst.retract_weq().cat
    return [
        ("chain3-ids", (chain, _ids(chain), _ids(chain))),
        ("walking-iso-inverse-pair", (iso, _ids(iso), _ids(iso) + ["u", "v"])),
        ("chain3-f", (chain, _ids(chain), _ids(chain) + ["f"])),
        ("retract-ids", (retract, _ids(retract), _ids(retract))),
    ]


def random_discrete(seed: int) -> RelativeCategory:
    """A free category on a random DAG, drawn from the seed, with only the
    identities marked: its localization is the category itself."""
    c = inst.random_dag_category(random.Random(seed))
    return RelativeCategory(c, c.identity.values())


class _Inputs:
    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def write(self, name, payload, violations):
        if violations:
            raise RuntimeError(f"invalid benchmark input {name}: {violations[0]}")
        path = self.directory / f"{name}.json"
        write_canonical(path, payload)
        return str(path)

    def relcat(self, name, r):
        return self.write(name, r.to_json(), validate_category(r.cat) + validate_relative(r))


def build(workload: str, seed: int, directory: Path) -> list:
    """Write and validate the inputs of ``workload``; return its operations
    in the order one pass runs them."""
    files = _Inputs(directory)
    suite = inst.oracle_suite()
    ops = []
    if workload == "roundtrip":
        for label, width in (("terminal", 4), ("walking-arrow-ids", 4),
                             ("parallel-ids", 4), ("walking-weq", 3)):
            r = dict(suite)[label]
            path = files.relcat(label, r)
            ops.append(Op("verify_3.1", label,
                          ["verify", "3.1", path, "--truncation", "1", "--width", str(width)],
                          r, 1, width))
    elif workload == "materialize":
        relcats = suite + [("random-dag", random_discrete(seed))]
        paths = {label: files.relcat(label, r) for label, r in relcats}
        for label in ("walking-weq", "span-one-leg", "chain-head-weq", "retract",
                      "walking-iso-one-arrow", "chain-weq", "random-dag"):
            # chain-weq at width 4 takes 20 s a pass, too long for the runs
            width = 3 if label == "chain-weq" else 4
            ops.append(Op("localize", label,
                          ["localize", paths[label], "--truncation", "2", "--width", str(width)],
                          dict(relcats)[label], 2, width))
        for label, r in relcats:
            ops.append(Op("ho", label,
                          ["ho", paths[label], "--truncation", "1", "--width", "4"], r, 1, 4))
        for label, r in relcats:
            ops.append(Op("oracle-ho", label,
                          ["oracle-ho", paths[label], "--max-len", str(ORACLE_MAX_LEN)], r))
    elif workload == "certify":
        for label, r in suite:
            # at width 4 the DK certificate of chain-weq runs over 10 min
            width = 3 if label in ("chain-weq", "z2-groupoid") else 4
            path = files.relcat(label, r)
            ops.append(Op("verify_3.2", label,
                          ["verify", "3.2", path, "--truncation", "1", "--width", str(width)],
                          r, 1, width))
        for label, rs in neglectable_relscats():
            path = files.write(f"24ii-{label}", relscat_to_json(rs),
                               validate_scat(rs.ambient) + validate_relscat(rs))
            ops.append(Op("verify_2.4ii", label,
                          ["verify", "2.4ii", path, "--truncation", "1", "--width", "4"], rs))
        for label, (c, u, v) in spans_24i():
            path = files.write(f"24i-{label}", {"category": c.to_json(), "u": u, "v": v},
                               validate_category(c) + wide_subcategory_violations(c, u)
                               + wide_subcategory_violations(c, v))
            ops.append(Op("verify_2.4i", label,
                          ["verify", "2.4i", path, "--truncation", "1", "--width", "4"],
                          (c, u, v)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
