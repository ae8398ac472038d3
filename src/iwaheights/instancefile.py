"""Strict JSON instance files.

Versioned, human-writable, diffable.  All integers are base-10 JSON
numbers; coefficient sequences are little-endian in the T-degree.  Unknown
fields are rejected by name, so a typo cannot silently change a run.
A `ring.cap` above `lambdamod.MAX_CAP`, or a modulus p^k above
`lambdamod.MAX_MODULUS_BITS` bits, is refused as a resource cap.
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


def _require_keys(obj: dict, allowed: dict, path: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown field '{path}.{key}'")
    for key, required in allowed.items():
        if required and key not in obj:
            raise SchemaError(f"missing field '{path}.{key}'")


def _int(obj, path) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(f"{path}: expected an integer")
    return obj


def _bool(obj, path) -> bool:
    if not isinstance(obj, bool):
        raise SchemaError(f"{path}: expected true or false")
    return obj


def _int_list(obj, path) -> list[int]:
    if not isinstance(obj, list):
        raise SchemaError(f"{path}: expected a list of integers")
    return [_int(x, f"{path}[{i}]") for i, x in enumerate(obj)]


@dataclass
class InstanceFile:
    version: int
    ring: RingSpec
    level: int
    module: Optional[dict] = None
    pairing: Optional[dict] = None
    lfun: Optional[dict] = None
    shape: Optional[dict] = None
    scenario: Optional[dict] = None


def parse_instance(text: str) -> InstanceFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    _require_keys(
        data,
        {
            "version": True,
            "ring": True,
            "module": False,
            "pairing": False,
            "lfun": False,
            "shape": False,
            "scenario": False,
        },
        "$",
    )
    if _int(data["version"], "$.version") != CURRENT_VERSION:
        raise SchemaError(f"unsupported version {data['version']}")
    for key, record in data.items():
        if key != "version" and not isinstance(record, dict):
            raise SchemaError(f"$.{key}: expected an object")

    ring = data["ring"]
    _require_keys(ring, {"p": True, "k": True, "cap": True, "level": True}, "$.ring")
    p, k = _int(ring["p"], "$.ring.p"), _int(ring["k"], "$.ring.k")
    check_modulus(p, k)
    try:
        spec = RingSpec(p, k, _int(ring["cap"], "$.ring.cap"))
    except ValueError as e:
        raise SchemaError(f"$.ring: {e}") from None
    if spec.cap > MAX_CAP:
        raise EnumerationCapError(f"$.ring.cap: {spec.cap} is above the cap {MAX_CAP}")
    level = _int(ring["level"], "$.ring.level")
    if level < 0:
        raise SchemaError("$.ring.level: must be >= 0")

    out = InstanceFile(version=CURRENT_VERSION, ring=spec, level=level)

    if "module" in data:
        mod = data["module"]
        _require_keys(mod, {"generators": True, "relations": True}, "$.module")
        g = _int(mod["generators"], "$.module.generators")
        if g < 1:
            raise SchemaError("$.module.generators: must be >= 1")
        rels = mod["relations"]
        if not isinstance(rels, list):
            raise SchemaError("$.module.relations: expected a list")
        parsed_rels = []
        for i, row in enumerate(rels):
            if not isinstance(row, list) or len(row) != g:
                raise SchemaError(
                    f"$.module.relations[{i}]: expected {g} coefficient sequences"
                )
            parsed_rels.append(
                [_int_list(c, f"$.module.relations[{i}][{j}]") for j, c in enumerate(row)]
            )
        out.module = {"generators": g, "relations": parsed_rels}

    if "pairing" in data:
        pr = data["pairing"]
        _require_keys(pr, {"kind": True, "blocks": False}, "$.pairing")
        if pr["kind"] != "block":
            raise SchemaError("$.pairing.kind: only 'block' pairings are file-backed")
        blocks = pr.get("blocks")
        if not isinstance(blocks, list) or not blocks:
            raise SchemaError("$.pairing.blocks: expected a nonempty list")
        parsed = []
        for i, b in enumerate(blocks):
            _require_keys(
                b,
                {"level": True, "unit": False, "swapped": False, "dead": False},
                f"$.pairing.blocks[{i}]",
            )
            parsed.append(
                BlockSpec(
                    level=_int(b["level"], f"$.pairing.blocks[{i}].level"),
                    unit=_int(b.get("unit", 1), f"$.pairing.blocks[{i}].unit"),
                    swapped=_bool(b.get("swapped", False), f"$.pairing.blocks[{i}].swapped"),
                    dead=_bool(b.get("dead", False), f"$.pairing.blocks[{i}].dead"),
                )
            )
        out.pairing = {"kind": "block", "blocks": parsed}

    if "lfun" in data:
        lf = data["lfun"]
        if "l_z" in lf:
            # explicit form: the class data itself
            _require_keys(
                lf,
                {
                    "rank": True,
                    "l_z": True,
                    "duality": True,
                    "local_levels": True,
                    "z0": True,
                    "strict": True,
                },
                "$.lfun",
            )
            rank = _int(lf["rank"], "$.lfun.rank")
            lz = lf["l_z"]
            if not isinstance(lz, list) or len(lz) != rank:
                raise SchemaError(f"$.lfun.l_z: expected {rank} coefficient sequences")
            lz = [_int_list(c, f"$.lfun.l_z[{i}]") for i, c in enumerate(lz)]
            duality = lf["duality"]
            if duality != "canonical":
                if not isinstance(duality, list):
                    raise SchemaError(
                        "$.lfun.duality: expected 'canonical' or a table"
                    )
                duality = [
                    [
                        _int_list(row, f"$.lfun.duality[{i}][{j}]")
                        for j, row in enumerate(coord)
                    ]
                    for i, coord in enumerate(duality)
                ]
            strict = lf["strict"]
            if strict not in ("all", "zero"):
                raise SchemaError("$.lfun.strict: expected 'all' or 'zero'")
            local_levels = _int_list(lf["local_levels"], "$.lfun.local_levels")
            for i, n in enumerate(local_levels):
                if n < 0:
                    raise SchemaError(f"$.lfun.local_levels[{i}]: must be >= 0")
            out.lfun = {
                "form": "explicit",
                "rank": rank,
                "l_z": lz,
                "duality": duality,
                "local_levels": local_levels,
                "z0": _int_list(lf["z0"], "$.lfun.z0"),
                "strict": strict,
            }
        else:
            # builder form: deterministic generation parameters
            _require_keys(
                lf,
                {"seed": True, "target_ord": True, "global_levels": False},
                "$.lfun",
            )
            rec = {
                "form": "builder",
                "seed": _int(lf["seed"], "$.lfun.seed"),
                "target_ord": _int(lf["target_ord"], "$.lfun.target_ord"),
            }
            if "global_levels" in lf:
                rec["global_levels"] = _int_list(
                    lf["global_levels"], "$.lfun.global_levels"
                )
            out.lfun = rec

    if "shape" in data:
        sh = data["shape"]
        _require_keys(
            sh, {"e_infinity": True, "j_blocks": True, "coprime": False}, "$.shape"
        )
        jb = sh["j_blocks"]
        if not isinstance(jb, list):
            raise SchemaError("$.shape.j_blocks: expected a list of [size, mult] pairs")
        blocks = []
        for i, pair in enumerate(jb):
            pair = _int_list(pair, f"$.shape.j_blocks[{i}]")
            if len(pair) != 2:
                raise SchemaError(f"$.shape.j_blocks[{i}]: expected [size, mult]")
            if pair[0] > MAX_CAP:
                # the invariants report walks one degree per block size
                raise EnumerationCapError(
                    f"$.shape.j_blocks[{i}]: block size {pair[0]} is above the cap {MAX_CAP}"
                )
            blocks.append((pair[0], pair[1]))
        cp = sh.get("coprime", [])
        if not isinstance(cp, list):
            raise SchemaError("$.shape.coprime: expected a list of coefficient sequences")
        coprime = []
        for i, f in enumerate(cp):
            coprime.append(tuple(_int_list(f, f"$.shape.coprime[{i}]")))
        out.shape = {
            "e_infinity": _int(sh["e_infinity"], "$.shape.e_infinity"),
            "j_blocks": tuple(blocks),
            "coprime": tuple(coprime),
        }

    if "scenario" in data:
        sc = data["scenario"]
        _require_keys(
            sc,
            {"s_plus": True, "s_minus": True, "e_infinity_expected": False},
            "$.scenario",
        )
        out.scenario = {
            "s_plus": _int(sc["s_plus"], "$.scenario.s_plus"),
            "s_minus": _int(sc["s_minus"], "$.scenario.s_minus"),
            "e_infinity_expected": _int(
                sc.get("e_infinity_expected", 1), "$.scenario.e_infinity_expected"
            ),
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
            "strict": "zero" if meta["target_ord"] == 0 else "all",
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
