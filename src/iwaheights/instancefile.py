"""Strict JSON instance files.

Versioned, human-writable, diffable.  All integers are base-10 JSON
numbers; coefficient sequences are little-endian in the T-degree.

`parse_instance` first walks the whole document against `SCHEMA`, before
it builds anything.  Every value must be an object, a list, an integer,
JSON true/false or one of the allowed strings, as the schema says;
unknown fields are rejected by name and missing ones are named, so a typo
cannot silently change a run.  Any mismatch is a `SchemaError` (exit 2).
Only the cross-field checks run after the walk: the ring, relation rows
of the generator count, a nonempty block list, `rank == len(l_z)`,
nonnegative levels and `[size, mult]` J-blocks.  A `ring.cap` or J-block
size above `lambdamod.MAX_CAP`, or a modulus p^k above
`lambdamod.MAX_MODULUS_BITS` bits, is refused as a resource cap (exit 3);
since the walk runs first, a document that also has a type error exits 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from iwaheights.errors import EnumerationCapError, SchemaError
from iwaheights.heights import BlockSpec
from iwaheights.iwalg import RingSpec
from iwaheights.lambdamod import MAX_CAP, check_modulus

CURRENT_VERSION = 1

# A schema is `int`, `bool` (JSON true/false only), a tuple of the allowed
# strings, `[item]` (a list of items), a dict of fields (a trailing "?"
# marks an optional one), or a function that picks the schema from the
# value.
SEQ = [int]  # a coefficient sequence
LFUN_EXPLICIT = {  # the class data itself
    "rank": int, "l_z": [SEQ], "local_levels": [int], "z0": SEQ, "strict": ("all", "zero"),
    "duality": lambda v: [[SEQ]] if isinstance(v, list) else ("canonical",),
}
LFUN_BUILDER = {"seed": int, "target_ord": int, "global_levels?": [int]}  # generation parameters
SCHEMA = {
    "version": int,
    "ring": {"p": int, "k": int, "cap": int, "level": int},
    "module?": {"generators": int, "relations": [[SEQ]]},
    "pairing?": {
        "kind": ("block",),
        "blocks": [{"level": int, "unit?": int, "swapped?": bool, "dead?": bool}],
    },
    "lfun?": lambda v: LFUN_EXPLICIT if isinstance(v, dict) and "l_z" in v else LFUN_BUILDER,
    "shape?": {"e_infinity": int, "j_blocks": [[int]], "coprime?": [SEQ]},
}


def _walk(value, schema, path: str) -> None:
    """Raise a `SchemaError` at the first part of `value` that `schema`
    does not admit.  The recursion follows the schema, so it is never
    deeper than the schema, however deep the document nests."""
    if schema is int or schema is bool:
        if type(value) is not schema:
            kind = "an integer" if schema is int else "true or false"
            raise SchemaError(f"{path}: expected {kind}")
    elif isinstance(schema, tuple):
        if value not in schema:
            raise SchemaError(f"{path}: expected {' or '.join(map(repr, schema))}")
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise SchemaError(f"{path}: expected a list")
        for i, item in enumerate(value):
            _walk(item, schema[0], f"{path}[{i}]")
    elif isinstance(schema, dict):
        if not isinstance(value, dict):
            raise SchemaError(f"{path}: expected an object")
        names = {key.rstrip("?") for key in schema}
        for key in value:
            if key not in names:
                raise SchemaError(f"unknown field '{path}.{key}'")
        for key, sub in schema.items():
            name = key.rstrip("?")
            if name in value:
                _walk(value[name], sub, f"{path}.{name}")
            elif name == key:
                raise SchemaError(f"missing field '{path}.{name}'")
    else:
        _walk(value, schema(value), path)


@dataclass
class InstanceFile:
    version: int
    ring: RingSpec
    level: int
    module: Optional[dict] = None
    pairing: Optional[dict] = None
    lfun: Optional[dict] = None
    shape: Optional[dict] = None


def parse_instance(text: str) -> InstanceFile:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        # RecursionError: nesting deeper than the decoder's stack
        raise SchemaError(f"not valid JSON: {e}") from None
    _walk(data, SCHEMA, "$")
    if data["version"] != CURRENT_VERSION:
        raise SchemaError(f"unsupported version {data['version']}")

    ring = data["ring"]
    check_modulus(ring["p"], ring["k"])
    try:
        spec = RingSpec(ring["p"], ring["k"], ring["cap"])
    except ValueError as e:
        raise SchemaError(f"$.ring: {e}") from None
    if spec.cap > MAX_CAP:
        raise EnumerationCapError(f"$.ring.cap: {spec.cap} is above the cap {MAX_CAP}")
    if ring["level"] < 0:
        raise SchemaError("$.ring.level: must be >= 0")
    out = InstanceFile(version=CURRENT_VERSION, ring=spec, level=ring["level"])

    if "module" in data:
        g = data["module"]["generators"]
        if g < 1:
            raise SchemaError("$.module.generators: must be >= 1")
        for i, row in enumerate(data["module"]["relations"]):
            if len(row) != g:
                raise SchemaError(f"$.module.relations[{i}]: expected {g} coefficient sequences")
        out.module = data["module"]

    if "pairing" in data:
        blocks = data["pairing"]["blocks"]
        if not blocks:
            raise SchemaError("$.pairing.blocks: expected a nonempty list")
        out.pairing = {"kind": "block", "blocks": [BlockSpec(**b) for b in blocks]}

    if "lfun" in data:
        lf = data["lfun"]
        if "l_z" in lf:
            if len(lf["l_z"]) != lf["rank"]:
                raise SchemaError(f"$.lfun.l_z: expected {lf['rank']} coefficient sequences")
            for i, n in enumerate(lf["local_levels"]):
                if n < 0:
                    raise SchemaError(f"$.lfun.local_levels[{i}]: must be >= 0")
        out.lfun = {"form": "explicit" if "l_z" in lf else "builder", **lf}

    if "shape" in data:
        sh = data["shape"]
        for i, pair in enumerate(sh["j_blocks"]):
            if len(pair) != 2:
                raise SchemaError(f"$.shape.j_blocks[{i}]: expected [size, mult]")
            if pair[0] > MAX_CAP:
                # the invariants report walks one degree per block size
                raise EnumerationCapError(
                    f"$.shape.j_blocks[{i}]: block size {pair[0]} is above the cap {MAX_CAP}"
                )
        out.shape = {
            "e_infinity": sh["e_infinity"],
            "j_blocks": tuple(map(tuple, sh["j_blocks"])),
            "coprime": tuple(map(tuple, sh.get("coprime", []))),
        }

    return out


def render_generated(inst) -> str:
    """Self-contained instance-file JSON for a built synthetic instance.

    Emits the explicit lfun form (the actual class coordinates, dual-module
    layout, distinguished element, and strict marker) so the file can be
    checked, diffed, and tampered with independently of the builder.
    """
    meta = inst.meta
    M = inst.global_module
    doc = {
        "version": CURRENT_VERSION,
        "ring": {
            "p": inst.spec.p,
            "k": inst.spec.k,
            "cap": inst.spec.cap,
            "level": M.level,
        },
        "pairing": {
            "kind": "block",
            "blocks": [
                {"level": n, "unit": u, "swapped": False, "dead": False}
                for n, u in zip(meta["global_levels"], meta["block_units"])
            ],
        },
        "lfun": {
            "rank": len(inst.L_z),
            "l_z": [list(x.coeffs) for x in inst.L_z],
            "duality": "canonical",
            "local_levels": [meta["local_level"]],
            "z0": list(inst.z0),
            "strict": inst.strict,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
