"""Command-line front end.

Subcommands: invariants, heights, lfun-check, generate, oracle.
Reports are deterministic (byte-identical for identical inputs and seeds)
and every verdict line carries the algebraic identity it checked plus a
witness.  Exit codes: 0 all-pass, 1 check failure, 2 validation or schema
error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from iwaheights.errors import (
    EnumerationCapError,
    InstanceInvalidError,
    IwaheightsError,
    PrecisionError,
    SchemaError,
)
from iwaheights.heights import BlockPairing, DerivedHeightPairing, HeightPairing
from iwaheights.instancefile import InstanceFile, parse_instance, render_generated
from iwaheights.lambdamod import (
    DEFAULT_ENUM_CAP,
    MAX_R,
    ElementaryShape,
    FiniteLevelModule,
    infer_invariants,
    log_p,
    odd_even_multiplicities,
    shape_dims,
)
from iwaheights.lfun import build_synthetic, instance_from_data, main_theorem_check, order_of_vanishing
from iwaheights.poles import norm_class
from iwaheights.reports import Report

ANCHOR_DIMS = "dim^(r) = e_r + e_(r+1) + ... + e_inf"
ANCHOR_E = "e_r = dim(S^(r)/S^(r+1)); e_inf = dim S^(inf)"
ANCHOR_PARITY = "e_r = 0 mod 2 for even r (polarized)"
ANCHOR_KERNEL = "ker h^(r) = Y^(r+1) on both sides"
ANCHOR_WELLDEF = "h computed at gamma and gamma^2 agree"
ANCHOR_SIGNS = "h^(r)(x,y) = (-1)^(r+parity) h^(r)(y,x)"
ANCHOR_GLOBAL_KERNEL = "ker h = universal norms"
ANCHOR_ORACLE = "enumeration oracle agrees with the fast path"


def _load(args) -> InstanceFile:
    if not args.input:
        raise SchemaError("--input PATH is required for this command")
    try:
        text = Path(args.input).read_text()
    except OSError as e:
        raise SchemaError(f"cannot read {args.input}: {e.strerror or e}") from None
    return parse_instance(text)


def _build_module(inst: InstanceFile, max_size: int) -> FiniteLevelModule:
    mod = inst.module
    return FiniteLevelModule(
        inst.ring,
        inst.level,
        mod["generators"],
        mod["relations"],
        enum_cap=max_size,
    )


def _build_pairing(inst: InstanceFile, max_size: int) -> BlockPairing:
    blocks = inst.pairing["blocks"]
    level = max([inst.level] + [b.level for b in blocks])
    return BlockPairing(inst.ring, blocks, enum_cap=max_size, level=level)


# the builder flags' documented defaults; argparse leaves an unset flag None,
# so a flag given beside --input is seen and refused (`_refuse_beside_input`)
BUILDER_DEFAULTS = {"seed": 0, "ord": 1, "p": 3, "k": 1}


def _build_from_flags(args):
    """The synthetic instance of --seed/--ord/--p/--k, an unset flag taking
    its value from BUILDER_DEFAULTS (`lfun-check` without --input, `generate`)."""
    v = {
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in BUILDER_DEFAULTS.items()
    }
    return build_synthetic(v["seed"], p=v["p"], k=v["k"], target_ord=v["ord"], enum_cap=args.max_size)


def _refuse_beside_input(args, names) -> None:
    """--input reads these values from the file, so a flag among `names`
    given beside it would be ignored: refuse it as bad input (exit 2)."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise SchemaError(f"--input ignores {' '.join(given)}; give the flags or the file, not both")


def _dims_from_module(M: FiniteLevelModule, r_max: int) -> list[int]:
    return [log_p(M.filtration_stage(r).order(), M.spec.p) for r in range(1, r_max + 1)]


def cmd_invariants(args) -> Report:
    inst = _load(args)
    rep = Report("invariants")
    if inst.shape is None and inst.module is None:
        raise SchemaError("invariants needs a shape or module record")
    if inst.shape is not None:
        sh = inst.shape
        for f in sh["coprime"]:
            if not f or f[0] % inst.ring.p == 0:
                raise SchemaError(
                    "coprime shape entries need a unit constant coefficient"
                )
        shape = ElementaryShape(sh["e_infinity"], sh["j_blocks"], sh["coprime"])
        r_max = max(args.max_r, shape.max_block() + 2)
        dims = shape_dims(shape, r_max)
        prof = infer_invariants(dims)
        rep.add("dimension sequence", ANCHOR_DIMS, True, {"dims": dims})
        rep.add(
            "invariant extraction",
            ANCHOR_E,
            all(
                prof.multiplicity(i) == shape.multiplicity(i)
                for i in range(1, r_max)
            )
            and prof.e_infinity == shape.e_infinity,
            {"e": list(prof.e), "e_infinity": prof.e_infinity},
        )
        flagged = odd_even_multiplicities([shape.multiplicity(i) for i in range(1, r_max + 1)])
        rep.add(
            "parity of even multiplicities",
            ANCHOR_PARITY,
            not flagged,
            {"flagged": list(flagged)},
        )
    if inst.module is not None:
        M = _build_module(inst, args.max_size)
        dims = _dims_from_module(M, args.max_r)
        rep.add(
            "module stage dimensions",
            ANCHOR_DIMS,
            True,
            {"log_p_stage_orders": dims},
        )
        if len(dims) >= 2 and dims[-1] == dims[-2]:
            prof = infer_invariants(dims)
            rep.add(
                "module invariants",
                ANCHOR_E,
                True,
                {"e": list(prof.e), "e_infinity": prof.e_infinity},
            )
    return rep


def _kernel_chain(h: HeightPairing, r: int):
    """h^(r), its left kernel, and whether both kernels are Y^(r+1)."""
    d = DerivedHeightPairing(h, r)
    stage_next = set(h.module.filtration_stage(r + 1).elements())
    left = d.left_kernel_elements()
    return d, left, left == stage_next and d.right_kernel_elements() == stage_next


def cmd_heights(args) -> Report:
    inst = _load(args)
    if inst.pairing is None:
        raise SchemaError("heights needs a pairing record")
    pairing = _build_pairing(inst, args.max_size)
    pairing.validate()
    h1 = HeightPairing(pairing, u=1)
    h2 = HeightPairing(pairing, u=2)
    M = h1.module
    rep = Report(
        "heights",
        meta={
            "blocks": [
                {"level": b.level, "unit": b.unit, "swapped": b.swapped, "dead": b.dead}
                for b in pairing.blocks
            ],
            "symmetry": pairing.declared_symmetry(),
        },
    )

    rep.add("generator independence", ANCHOR_WELLDEF, h1.gram == h2.gram, None)

    sym = pairing.declared_symmetry()
    parity = {"iota_antisymmetric": 1, "zero": 1, "iota_symmetric": 0}.get(sym)

    for r in range(1, args.max_r + 1):
        d, left, ok = _kernel_chain(h1, r)
        gens = d.stage.gens()
        matrix = [[d.value(x, y).coeff for y in gens] for x in gens]
        rep.add(
            f"kernel chain r={r}",
            ANCHOR_KERNEL,
            ok,
            {
                "stage_order": d.stage.order(),
                "kernel_order": len(left),
                "height_matrix": matrix,
            },
        )
        if parity is not None:
            sign = (-1) ** (r + parity)
            ok = all(
                v == sign * matrix[j][i] % M.spec.modulus
                for i, row in enumerate(matrix)
                for j, v in enumerate(row)
            )
            rep.add(f"sign law r={r}", ANCHOR_SIGNS, ok, {"parity": parity})

    left_kernel = h1.left_kernel()
    norms = M.universal_norms()
    rep.add(
        "global kernel",
        ANCHOR_GLOBAL_KERNEL,
        left_kernel == norms and h1.right_kernel() == norms,
        {"kernel_order": left_kernel.order()},
    )
    return rep


def _instance_from_file(inst_file: InstanceFile, max_size: int):
    rec = inst_file.lfun
    if rec["form"] == "builder":
        built = build_synthetic(
            rec["seed"],
            p=inst_file.ring.p,
            k=inst_file.ring.k,
            global_levels=rec.get("global_levels"),
            target_ord=rec["target_ord"],
            enum_cap=max_size,
        )
        # the builder chooses the cap and the level; a file stating others is refused
        for field, given, chosen in (
            ("cap", inst_file.ring.cap, built.spec.cap),
            ("level", inst_file.level, built.D_loc.level),
        ):
            if given != chosen:
                raise SchemaError(f"$.ring.{field}: {given} differs from the builder's {chosen}")
        return built
    if inst_file.pairing is None:
        raise SchemaError("an explicit lfun record needs a pairing record")
    duality = rec["duality"]
    return instance_from_data(
        inst_file.ring,
        inst_file.level,
        inst_file.pairing["blocks"],
        rec["local_levels"],
        rec["l_z"],
        rec["z0"],
        rec["strict"],
        duality_table=None if duality == "canonical" else duality,
        enum_cap=max_size,
    )


def cmd_lfun_check(args) -> Report:
    if args.input:
        _refuse_beside_input(args, BUILDER_DEFAULTS)
        inst_file = _load(args)
        if inst_file.lfun is None:
            raise SchemaError("lfun-check needs an lfun record or --seed/--ord")
        if inst_file.lfun["form"] == "builder" and inst_file.pairing is not None:
            raise SchemaError("$.pairing: a builder-form lfun record builds its own pairing")
        built = _instance_from_file(inst_file, args.max_size)
    else:
        built = _build_from_flags(args)
    ordv = order_of_vanishing(built)
    rep = Report(
        "lfun-check",
        meta={
            "ord": "inf(>=cap)" if ordv is math.inf else int(ordv),
            "params": {k: v for k, v in sorted(built.meta.items())},
        },
    )
    rep.checks += main_theorem_check(built, args.max_r)
    return rep


def cmd_generate(args) -> int:
    text = render_generated(_build_from_flags(args))
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as e:
            raise SchemaError(f"cannot write {args.output}: {e.strerror or e}") from None
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle(args) -> Report:
    inst = _load(args)
    if inst.module is None and inst.pairing is None and inst.lfun is None:
        raise SchemaError("oracle needs a module, pairing, or lfun record")
    rep = Report("oracle")

    if inst.module is not None:
        M = _build_module(inst, args.max_size)
        els = M.elements()
        tcl = M.T_class()
        fast = set(M.torsion(tcl).elements())
        brute = {v for v in els if not any(M.act(tcl, v))}
        rep.add("torsion vs enumeration", ANCHOR_ORACLE, fast == brute, {"order": len(brute)})

        norms_fast = set(M.universal_norms().elements())
        inter = set(els)
        # the images only shrink and all contain 0, so stop at {0}
        zero = {M.zero()}
        n = 1
        while n <= M.level + M.spec.k + 2 and inter != zero:
            nu = norm_class(M.spec, n, M.level)
            img = {M.act(nu, v) for v in els}
            inter &= img
            n += 1
        rep.add(
            "universal norms vs enumeration",
            ANCHOR_ORACLE,
            norms_fast == inter,
            {"order": len(inter)},
        )

    if inst.pairing is not None:
        pairing = _build_pairing(inst, args.max_size)
        if pairing.module.size > args.max_size:
            raise EnumerationCapError(
                f"pairing module has {pairing.module.size} elements, above --max-size"
            )
        pairing.validate()
        h = HeightPairing(pairing, u=1)
        for r in range(1, args.max_r + 1):
            rep.add(f"h^({r}) kernels vs filtration", ANCHOR_ORACLE, _kernel_chain(h, r)[2], None)
        rep.add(
            "global kernel vs universal norms",
            ANCHOR_ORACLE,
            h.left_kernel() == h.module.universal_norms(),
            None,
        )

    if inst.lfun is not None:
        built = _instance_from_file(inst, args.max_size)
        rep.checks += main_theorem_check(built, args.max_r)
    return rep


def positive_int(text: str) -> int:
    """The argparse type of --max-size and --max-r: an int of at least 1,
    so a cap or degree below 1 exits 2 before any work (a --max-r above
    lambdamod.MAX_R exits 3 in `main`, like the other resource caps)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# each flag's add_argument spec, declared once
FLAGS = {
    "--input": dict(help="instance file (strict JSON)"),
    "--format": dict(choices=("text", "json"), default="text", help="report format"),
    "--seed": dict(type=int, default=None, help=f"deterministic seed (default {BUILDER_DEFAULTS['seed']})"),
    "--max-size": dict(type=positive_int, default=DEFAULT_ENUM_CAP, help="element cap for enumeration"),
    "--max-r": dict(type=positive_int, default=4, help="largest derived degree to check"),
    "--ord": dict(type=int, default=None, help=f"target order of vanishing (default {BUILDER_DEFAULTS['ord']})"),
    "--p": dict(type=int, default=None, help=f"odd prime p of the ring Z/p^k (default {BUILDER_DEFAULTS['p']})"),
    "--k": dict(type=int, default=None, help=f"exponent k of the ring Z/p^k (default {BUILDER_DEFAULTS['k']})"),
    "--output": dict(help="write to a file instead of stdout"),
}

REPORT_FLAGS = ("--input", "--format", "--max-size", "--max-r")
BUILDER_FLAGS = ("--seed", "--ord", "--p", "--k")

# subcommand -> (function, help, the flags it reads); a flag it does not
# read is refused by argparse (exit 2)
COMMANDS = {
    "invariants": (cmd_invariants, "shape/module invariants", REPORT_FLAGS),
    "heights": (cmd_heights, "derived-height suite", REPORT_FLAGS),
    "lfun-check": (cmd_lfun_check, "L-function consistency", REPORT_FLAGS + BUILDER_FLAGS),
    "generate": (cmd_generate, "emit a synthetic instance file", BUILDER_FLAGS + ("--max-size", "--output")),
    "oracle": (cmd_oracle, "oracle vs fast-path comparison", REPORT_FLAGS),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.

    Sharing is safe because parsing never changes a parser: each
    `parse_args` fills a new Namespace (a subcommand parses into its own
    new one), every default is immutable, help and error text build their
    formatter when they print, and `prog` is fixed rather than read from
    sys.argv.
    """
    parser = argparse.ArgumentParser(
        prog="iwaheights",
        description="Exact height-pairing and L-function consistency checks "
        "over Z/p^k coefficient rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag in flags:
            cmd.add_argument(flag, **FLAGS[flag])
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # only the subcommands that read --max-r have it
        if getattr(args, "max_r", 0) > MAX_R:
            raise EnumerationCapError(f"--max-r {args.max_r} is above the cap {MAX_R}")
        out = args.func(args)
    except (EnumerationCapError, PrecisionError) as e:
        sys.stderr.write(f"resource cap: {e}\n")
        return 3
    except (SchemaError, InstanceInvalidError, ValueError) as e:
        sys.stderr.write(f"invalid input: {e}\n")
        return 2
    except IwaheightsError as e:
        sys.stderr.write(f"validation error: {e}\n")
        return 2
    if isinstance(out, int):
        return out
    sys.stdout.write(out.render(args.format) + "\n")
    return out.exit_code


if __name__ == "__main__":
    sys.exit(main())
