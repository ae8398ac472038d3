"""CLI behaviour: subcommands, strict schema, exit codes, determinism."""

import functools
import hashlib
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from iwaheights import cli
from iwaheights.cli import COMMANDS, _instance_from_file, main
from iwaheights.instancefile import parse_instance
from iwaheights.errors import EnumerationCapError, SchemaError
from iwaheights.lambdamod import DEFAULT_ENUM_CAP, MAX_R
from tests.conftest import monomial_table, run_cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "instances").glob("*.json"))


def test_cli_import_reaches_every_module():
    # every module of the package must be loaded by the command line front
    # end; one that is not is reachable from tests only
    package = ROOT / "src" / "iwaheights"
    want = sorted("iwaheights" if f.stem == "__init__" else f"iwaheights.{f.stem}" for f in package.glob("*.py"))
    code = "import sys, iwaheights.cli; print(*sorted(m for m in sys.modules if m.startswith('iwaheights')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert sorted(set(want) - set(out.split())) == []


# every single-point edit of a shipped file: each of these values at every
# JSON path (and 1 and n + 1 in place of an integer n), and each key dropped
# or one unknown key added in every object
MUTANTS = [None, True, "x", -1, 0, 10**6, [], {}, 1.5, [1], [[1]]]
# the records each subcommand reads besides the ring and level
COMMAND_RECORDS = {
    "invariants": ("module", "shape"),
    "heights": ("pairing",),
    "lfun-check": ("lfun", "pairing"),
    "oracle": ("module", "pairing", "lfun"),
}


def single_edits(node):
    yield from MUTANTS
    if isinstance(node, int):
        yield from (1, node + 1)
    if isinstance(node, dict):
        for key in node:
            yield {k: v for k, v in node.items() if k != key}
            for sub in single_edits(node[key]):
                yield {**node, key: sub}
        yield {**node, "zz_unknown": 0}
    elif isinstance(node, list):
        for i, item in enumerate(node):
            for sub in single_edits(item):
                yield node[:i] + [sub] + node[i + 1 :]


def multi_edit(rng, node):
    """Several random edits at once: unknown keys added and keys dropped
    together with integers changed, some to valid values."""
    if isinstance(node, dict):
        node = {k: multi_edit(rng, v) for k, v in node.items()}
        roll = rng.random()
        if roll < 0.25:
            node["zz_" + str(rng.randrange(10))] = rng.randrange(5)
        elif roll < 0.4 and node:
            node.pop(rng.choice(sorted(node)))
        return node
    if isinstance(node, list):
        return [multi_edit(rng, v) for v in node]
    if isinstance(node, int) and rng.random() < 0.2:
        return rng.choice([-1, 0, 1, node + 1, "x", None])
    return node


def sweep_argv(cmd, target):
    """`cmd` on the edited file, given each sweep flag that the CLI's table
    says it reads, so a subcommand is swept with its own flags."""
    values = {"--input": str(target), "--max-size": "2000"}
    return [cmd] + [a for flag, value in values.items() if flag in COMMANDS[cmd][2] for a in (flag, value)]


class CallTimeout(Exception):
    """Raised by the sweep's alarm; not an OSError (TimeoutError is one),
    which `cli._load` would turn into exit 2."""


def _raise_timeout(signum, frame):
    raise CallTimeout


@functools.cache
def parseable_edits():
    """Every single edit of a shipped file, and 360 seeded multi-edits, that
    parse, as JSON text and the subcommands to run on it: each subcommand
    runs once per distinct ring, level and records it reads. Any exception
    from `parse_instance` other than the schema and cap errors escapes."""
    docs = [json.loads(path.read_text()) for path in CORPUS]
    rng = random.Random(99)
    edits = [e for doc in docs for e in single_edits(doc)]
    edits += [multi_edit(rng, rng.choice(docs)) for _ in range(360)]
    seen = set()
    runs = []
    for doc in edits:
        text = json.dumps(doc)
        try:
            inst = parse_instance(text)
        except (SchemaError, EnumerationCapError):
            continue
        cmds = []
        for cmd, records in COMMAND_RECORDS.items():
            key = repr((cmd, inst.ring, inst.level) + tuple(getattr(inst, r) for r in records))
            if key not in seen:
                seen.add(key)
                cmds.append(cmd)
        runs.append((text, tuple(cmds)))
    return tuple(runs)


class TestSchema:
    def test_unknown_field_named(self):
        with pytest.raises(SchemaError, match="bogus"):
            parse_instance(
                '{"version": 1, "ring": {"p": 3, "k": 1, "cap": 9, "level": 1}, "bogus": 1}'
            )

    def test_nested_unknown_field(self):
        with pytest.raises(SchemaError, match=r"ring\.x"):
            parse_instance(
                '{"version": 1, "ring": {"p": 3, "k": 1, "cap": 9, "level": 1, "x": 0}}'
            )

    def test_bad_version(self):
        with pytest.raises(SchemaError, match="version"):
            parse_instance('{"version": 2, "ring": {"p": 3, "k": 1, "cap": 9, "level": 1}}')

    def test_non_integer_rejected(self):
        with pytest.raises(SchemaError):
            parse_instance(
                '{"version": 1, "ring": {"p": "3", "k": 1, "cap": 9, "level": 1}}'
            )

    def test_invalid_ring(self):
        with pytest.raises(SchemaError):
            parse_instance('{"version": 1, "ring": {"p": 4, "k": 1, "cap": 9, "level": 1}}')

    def test_valid_corpus_parses(self):
        for path in CORPUS:
            parse_instance(path.read_text())

    def test_fuzzed_documents_fail_cleanly(self):
        # every single edit of a shipped file, and every multi-edit, parses
        # or raises the schema or cap error; nothing else may escape
        assert len(parseable_edits()) > 500


class TestCommandFuzz:
    def test_commands_never_crash_on_mutations(self, tmp_path, capsys):
        # in-process, so the sweep stays fast; each call is bounded by an
        # alarm, and an exit code outside the contract, an escaped
        # exception or a hang is a failure
        target = tmp_path / "edit.json"
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        try:
            for text, cmds in parseable_edits():
                target.write_text(text)
                for cmd in cmds:
                    signal.alarm(10)
                    try:
                        code = main(sweep_argv(cmd, target))
                    except Exception as e:
                        pytest.fail(f"{cmd} raised {e!r} on {text}")
                    finally:
                        signal.alarm(0)
                    assert code in (0, 1, 2, 3), (cmd, text)
                capsys.readouterr()
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_sampled_commands_stay_under_memory_bound(self, tmp_path):
        # a seeded sample of the sweep, each call in a child process whose
        # address space is capped at 1 GB (a cap on this process would
        # bound the whole test run); running out must still end in an
        # exit code of the contract, never in a traceback
        runs = [(text, cmd) for text, cmds in parseable_edits() for cmd in cmds]
        target = tmp_path / "edit.json"
        for text, cmd in random.Random(17).sample(runs, 20):
            target.write_text(text)
            code, _, err = run_cli(*sweep_argv(cmd, target), timeout=30, max_memory=10**9)
            assert code in (0, 1, 2, 3), (cmd, text, err)
            assert "Traceback" not in err and "MemoryError" not in err, (cmd, text, err)


# the flags each subcommand reads; it refuses every other flag of the CLI
REPORT_FLAGS = {"--input", "--format", "--max-size", "--max-r"}
READS = {
    "invariants": REPORT_FLAGS,
    "heights": REPORT_FLAGS,
    "oracle": REPORT_FLAGS,
    "lfun-check": REPORT_FLAGS | {"--seed", "--ord", "--p", "--k"},
    "generate": {"--seed", "--max-size", "--ord", "--p", "--k", "--output"},
}
# no subcommand reads the sign-twisted scenario's --s-plus and --s-minus
UNREAD = [(cmd, flag) for cmd in READS for flag in sorted(set().union(*READS.values(), {"--s-minus", "--s-plus"}) - READS[cmd])]


class TestFlags:
    @pytest.mark.parametrize("cmd", sorted(READS))
    def test_help_lists_exactly_the_flags_read(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) == READS[cmd] | {"--help"}

    def test_every_flag_is_described(self):
        # an unset builder flag takes its value from BUILDER_DEFAULTS, so
        # its help states that value
        assert [flag for flag, spec in cli.FLAGS.items() if not spec.get("help")] == []
        for name, default in cli.BUILDER_DEFAULTS.items():
            assert cli.FLAGS[f"--{name}"]["help"].endswith(f"(default {default})"), name

    @pytest.mark.parametrize("cmd, flag", UNREAD, ids=[f"{cmd}{flag}" for cmd, flag in UNREAD])
    def test_unread_flag_is_two(self, cmd, flag, capsys):
        # bad input (exit 2), not a flag that is accepted and ignored
        with pytest.raises(SystemExit) as exc:
            main([cmd, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestNoScenario:
    """The sign-twisted scenario predictions are not part of the checker:
    no subcommand or instance record accepts them (nor any flag, see
    `UNREAD`)."""

    def test_scenario_subcommand_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--s-plus", "1", "--s-minus", "0"])
        assert exc.value.code == 2
        assert "invalid choice: 'scenario'" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["invariants", "heights", "lfun-check", "oracle"])
    def test_scenario_record_is_two(self, tmp_path, capsys, cmd):
        edit = lambda doc: doc.update(scenario={"s_plus": 3, "s_minus": 0})
        path = edited_instance(tmp_path, "shape_demo.json", edit)
        assert main([cmd, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown field '$.scenario'" in captured.err


# flags that --input would ignore, each given beside a file the subcommand reads
IGNORED_BESIDE_INPUT = [("lfun-check", "lfun_seed0_ord1.json", flag) for flag in ("--seed", "--ord", "--p", "--k")]


class TestInputRefusal:
    @pytest.mark.parametrize(
        "cmd, name, flag", IGNORED_BESIDE_INPUT, ids=[f"{cmd}{flag}" for cmd, _, flag in IGNORED_BESIDE_INPUT]
    )
    def test_flag_beside_input_is_two(self, cmd, name, flag, capsys):
        # refused whatever the value, a default (--ord 1, --k 1) included: the
        # file would override it
        argv = [cmd, "--input", f"instances/{name}", flag, "1"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invalid input: ") and flag in err
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "" and flag in err

    def test_message_names_every_ignored_flag(self, capsys):
        argv = ["lfun-check", "--input", "instances/lfun_seed0_ord1.json", "--ord", "3", "--p", "5"]
        assert main(argv) == 2
        assert "--ord --p" in capsys.readouterr().err


# one process running these in turn must print what a fresh process prints
# for each: a run that fails to parse or prints help must leave the shared
# parser as it found it (at --ord 3 the report shows --max-r, which it caps
# at the order of vanishing)
REUSE_SEQUENCE = [
    ["lfun-check", "--ord", "3", "--max-r", "2"],
    ["lfun-check", "--ord", "3"],
    ["lfun-check"],
    ["generate", "--max-r", "1"],
    ["heights", "--help"],
    ["generate", "--seed", "1"],
    ["heights", "--input", "instances/single_block_f3.json"],
    ["invariants", "--input", "instances/shape_demo.json", "--format", "json"],
]


def in_process(argv, capsys):
    """(exit code, stdout, stderr) of `cli.main(argv)`, a SystemExit taken
    as its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_matches_fresh_processes(self, capsys, monkeypatch):
        # help is wrapped to $COLUMNS in both processes
        monkeypatch.setenv("COLUMNS", "100")
        runs = [in_process(argv, capsys) for argv in REUSE_SEQUENCE]
        assert [code for code, _, _ in runs] == [0, 0, 0, 2, 0, 0, 0, 0]
        for argv, run in zip(REUSE_SEQUENCE, runs):
            assert run == run_cli(*argv, timeout=60), argv

    def test_used_parser_prints_the_help_of_a_fresh_one(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        for argv in REUSE_SEQUENCE:
            in_process(argv, capsys)
        for argv in [["--help"]] + [[cmd, "--help"] for cmd in COMMANDS]:
            helps = []
            for parser in (cli.build_parser(), cli.build_parser.__wrapped__()):
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)
                helps.append(capsys.readouterr().out)
            assert helps[0] == helps[1] and helps[0].startswith("usage: iwaheights"), argv


class TestExitCodes:
    def test_all_pass_is_zero(self):
        code, _, _ = run_cli("heights", "--input", "instances/single_block_f3.json")
        assert code == 0

    def test_schema_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "ring": {"p": 3, "k": 1, "cap": 9, "level": 1}, "zz": 0}')
        code, _, err = run_cli("invariants", "--input", str(bad))
        assert code == 2
        assert "zz" in err

    def test_cap_is_three(self):
        code, _, err = run_cli(
            "oracle", "--input", "instances/single_block_f3.json", "--max-size", "5"
        )
        assert code == 3
        assert "27" in err

    @pytest.mark.parametrize(
        "argv",
        [["lfun-check", "--max-r", "-2"], ["heights", "--input", "instances/single_block_f3.json", "--max-r", "0"]],
    )
    def test_max_r_below_one_is_two(self, argv, capsys):
        # a degree below 1 would skip every derived check and exit 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--max-r: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["heights", "oracle", "invariants"])
    def test_max_r_above_cap_is_three(self, cmd, tmp_path):
        # (gamma - 1)^r costs r products per degree: uncapped, each of these
        # ran past 20 s at --max-r 100000
        path = "instances/two_block_mixed_f3.json"
        if cmd == "invariants":
            # an F_3 level-2 module with one relation per generator
            rels = [[[0, 1], [0], [0]], [[0], [0, 0, 0, 0, 0, 1], [0]], [[0], [0], [1, 0]]]
            record = {"version": 1, "ring": {"p": 3, "k": 1, "cap": 30, "level": 2}, "module": {"generators": 3, "relations": rels}}
            path = tmp_path / "shape.json"
            path.write_text(json.dumps(record))
        code, out, err = run_cli(cmd, "--input", str(path), "--max-r", "100000", timeout=10)
        assert code == 3 and out == ""
        assert f"--max-r 100000 is above the cap {MAX_R}" in err

    @pytest.mark.parametrize("argv", [["lfun-check", "--ord", "1"]])
    def test_max_r_cap_holds_for_every_command(self, argv, capsys):
        # the cap holds on every subcommand that reads --max-r
        assert main(argv + ["--max-r", str(MAX_R + 1)]) == 3
        assert capsys.readouterr().out == ""
        assert main(argv + ["--max-r", str(MAX_R), "--format", "json"]) == 0

    @pytest.mark.parametrize("cmd", ["oracle", "heights"])
    def test_max_size_below_one_is_two(self, cmd, capsys):
        # a bad flag, not a resource cap (exit 3)
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--input", "instances/single_block_f3.json", "--max-size", "-5"])
        assert exc.value.code == 2
        assert "--max-size: must be at least 1" in capsys.readouterr().err

    def test_missing_input_is_two(self, capsys):
        for cmd in ("invariants", "heights", "oracle"):
            assert main([cmd]) == 2
            assert capsys.readouterr() == ("", "invalid input: --input PATH is required for this command\n")

    def test_max_r_not_an_int_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["heights", "--input", str(ROOT / "instances" / "single_block_f3.json"), "--max-r", "abc"])
        assert exc.value.code == 2
        assert "argument --max-r: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cmd, name, message",
        [
            ("oracle", "single_block_f3.json", "module has 27 elements, above the cap 5"),
            ("oracle", "swapped_pair_f3.json", "pairing module has 729 elements, above the cap 5"),
            ("heights", "swapped_pair_f3.json", "submodule has 9 elements, above the cap 5"),
            # stage 2 (3 elements) passes the cap; the kernel enumeration of stage 1 does not
            ("heights", "two_block_mixed_f3.json", "submodule has 9 elements, above the cap 5"),
        ],
        ids=["module", "pairing-module", "submodule", "kernel-stage"],
    )
    def test_enumeration_cap_message(self, cmd, name, message, capsys):
        # every refusal to enumerate names what, its size and the cap alike
        assert main([cmd, "--input", str(ROOT / "instances" / name), "--max-size", "5"]) == 3
        assert capsys.readouterr() == ("", f"resource cap: {message}\n")

    def test_unreadable_input_file_is_two(self, tmp_path, capsys):
        code = main(["heights", "--input", str(tmp_path / "missing.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unwritable_output_file_is_two(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "out.json"
        code = main(["generate", "--seed", "0", "--ord", "1", "--output", str(out)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["lfun-check", "generate"])
    @pytest.mark.parametrize("flags", [("--k", "0"), ("--k", "-1"), ("--p", "1")])
    def test_bad_ring_flags_are_two(self, cmd, flags, capsys):
        # p and k are checked before the builder's level search starts
        assert main([cmd, *flags]) == 2
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["lfun-check", "generate"])
    def test_order_beyond_local_levels_is_three(self, cmd, capsys):
        # ord 80 and up at p = 3, k = 1 need a local block above level 4,
        # the bound of the builder's level search: valid input refused by
        # a resource cap (ord 79 fits a level-4 block)
        for ordv in (80, 100):
            assert main([cmd, "--ord", str(ordv)]) == 3
            assert capsys.readouterr().err == (
                f"resource cap: order {ordv} needs a local block above level 4, the bound of the builder's level search\n"
            )

    def test_oversized_dual_module_is_three(self):
        # p = 5, ord 124 needs a level-4 local block: a dual module of
        # O-rank 1250, refused before any block is built
        t0 = time.perf_counter()
        code, _, err = run_cli("lfun-check", "--p", "5", "--ord", "124", timeout=60)
        assert code == 3
        assert "O-rank 1250" in err and "Traceback" not in err
        assert time.perf_counter() - t0 < 10

    @pytest.mark.parametrize("cmd", ["generate", "lfun-check"])
    def test_oversized_ring_cap_is_three(self, cmd):
        # k = 12, ord 323 needs a level-4 local block: O-rank 162 is inside
        # the rank cap, but the ring cap 12*81 + 81 + 323 + 8 = 1384 is
        # above MAX_CAP, refused before the level search builds a block
        t0 = time.perf_counter()
        code, _, err = run_cli(cmd, "--k", "12", "--ord", "323", timeout=60)
        assert code == 3, err
        assert "ring cap 1384" in err and "Traceback" not in err
        assert time.perf_counter() - t0 < 10

    def test_wide_ring_is_three(self):
        t0 = time.perf_counter()
        code, _, err = run_cli("lfun-check", "--p", "101", "--k", "3", timeout=60)
        assert code == 3
        assert err.startswith("resource cap:") and "Traceback" not in err
        assert time.perf_counter() - t0 < 10

    def test_p7_level2_builder_file_passes(self, tmp_path):
        # ambient O-rank 98, inside the builder's cap
        path = tmp_path / "p7.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "ring": {"p": 7, "k": 1, "cap": 107, "level": 2},
                    "lfun": {"seed": 0, "target_ord": 1, "global_levels": [2]},
                }
            )
        )
        code, out, err = run_cli("lfun-check", "--input", str(path), "--format", "json", timeout=120)
        assert code == 0, err
        assert json.loads(out)["all_ok"]

    def test_pairing_without_gram_matrix_is_three(self, tmp_path, capsys):
        # at u = 2 the level-2 basis values need more than cap 16, so the
        # generator-independence line has no Gram matrix to compare
        path = tmp_path / "level2.json"
        path.write_text(
            '{"version": 1, "ring": {"p": 3, "k": 2, "cap": 16, "level": 2},'
            ' "pairing": {"kind": "block", "blocks": [{"level": 2}]}}'
        )
        assert main(["heights", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "resource cap: cap 16 too small to re-express at generator exponent 2\n"

    def test_non_unit_block_constant_is_two(self, tmp_path):
        bad = tmp_path / "nonunit.json"
        bad.write_text(
            '{"version":1,"ring":{"p":3,"k":1,"cap":12,"level":1},'
            '"pairing":{"kind":"block","blocks":[{"level":1,"unit":3}]}}'
        )
        code, _, err = run_cli("heights", "--input", str(bad))
        assert code == 2
        assert "unit" in err and "Traceback" not in err


def edited_instance(tmp_path, name, edit):
    """A copy of a shipped instance file with `edit` applied to its JSON."""
    doc = json.loads((ROOT / "instances" / name).read_text())
    edit(doc)
    path = tmp_path / f"edited_{name}"
    path.write_text(json.dumps(doc))
    return path


def faithful_table(nrows=None, name="lfun_seed0_ord1.json"):
    """The canonical duality of an instance file as an explicit table: for
    lfun_seed0_ord1.json, 3 coordinates of rows of width 9, the dual
    module's ambient rank, with one row per monomial T^j below `nrows` (all
    cap + 1 by default)."""
    text = (ROOT / "instances" / name).read_text()
    inst = _instance_from_file(parse_instance(text), DEFAULT_ENUM_CAP)
    return monomial_table(inst, inst.spec.cap + 1 if nrows is None else nrows)


def set_table(table):
    def edit(doc):
        doc["lfun"]["duality"] = table

    return edit


def set_field(section, key, value):
    def edit(doc):
        doc[section][key] = value

    return edit


class TestBadFileInputs:
    """File inputs that must end in exit 2 or 3, never in a traceback,
    a silent pass or a hang."""

    def test_faithful_table_passes(self, tmp_path):
        # the control: the same table with the right shape is accepted
        path = edited_instance(tmp_path, "lfun_seed0_ord1.json", set_table(faithful_table()))
        code, out, err = run_cli("lfun-check", "--input", str(path), timeout=60)
        assert code == 0, err
        assert "all checks passed" in out

    @pytest.mark.parametrize(
        "reshape",
        [
            pytest.param(lambda t: [[row + [0, 0, 0] for row in coord] for coord in t], id="wide-rows"),
            pytest.param(lambda t: t[:1], id="one-coordinate"),
        ],
    )
    def test_misshapen_table_is_two(self, tmp_path, reshape):
        table = reshape(faithful_table())
        path = edited_instance(tmp_path, "lfun_seed0_ord1.json", set_table(table))
        code, out, err = run_cli("lfun-check", "--input", str(path), timeout=60)
        assert code == 2, out
        assert "duality table needs 3 coordinates of rows of width 9" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["lfun_seed0_ord1.json", "lfun_seed0_ord2.json"])
    @pytest.mark.parametrize("row", [4, 5, 6, 8])
    def test_table_tampered_past_T_cubed_is_two(self, tmp_path, capsys, name, row):
        # every row of a table is checked against T times the row before;
        # only T^0..T^3 were, and these files exited 0 with all checks passed
        table = faithful_table(name=name)
        table[0][row][0] += 1
        path = edited_instance(tmp_path, name, set_table(table))
        assert main(["lfun-check", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: duality adjunction fails at coordinate 0, T^{row - 1}\n"

    def test_empty_table_coordinate_is_three(self, tmp_path):
        # a coordinate with no rows is not indexed: the class L_z, nonzero
        # there, is refused as a resource cap
        table = faithful_table()
        table[0] = []
        path = edited_instance(tmp_path, "lfun_seed0_ord1.json", set_table(table))
        code, out, err = run_cli("lfun-check", "--input", str(path), timeout=60)
        assert code == 3, out
        assert err == "resource cap: duality table too short for this class\n"

    def test_derivative_above_precision_is_three(self, tmp_path, capsys):
        # L_z = 0 has infinite order, so --max-r 16 asks for L_z / T^16 at
        # cap 15, where T^16 truncates to 0; with a table duality that was
        # a validation error (exit 2) from the Weierstrass division
        def edit(doc):
            doc["lfun"]["l_z"] = [[0] * len(c) for c in doc["lfun"]["l_z"]]
            doc["lfun"]["duality"] = faithful_table(4)

        path = edited_instance(tmp_path, "lfun_seed0_ord1.json", edit)
        assert main(["lfun-check", "--input", str(path), "--max-r", "16"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource cap: ") and "T^16" in captured.err

    def test_negative_local_level_is_two(self, tmp_path):
        path = edited_instance(tmp_path, "lfun_seed0_ord1.json", set_field("lfun", "local_levels", [-1]))
        code, _, err = run_cli("lfun-check", "--input", str(path), timeout=60)
        assert code == 2
        assert "local_levels[0]: must be >= 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("cmd", ["lfun-check", "oracle"])
    @pytest.mark.parametrize("field, value", [("cap", 1), ("cap", 999), ("level", 0), ("level", 7)])
    def test_builder_ring_mismatch_is_two(self, tmp_path, capsys, cmd, field, value):
        # the builder chooses the cap (63) and the level (3) of this record,
        # and a file stating other values is refused with the builder's
        chosen = {"cap": 63, "level": 3}[field]
        path = edited_instance(tmp_path, "lfun_level3_ord1.json", lambda doc: doc["ring"].update({field: value}))
        assert main([cmd, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: $.ring.{field}: {value} differs from the builder's {chosen}\n"

    def test_pairing_beside_builder_record_is_two(self, tmp_path, capsys):
        # lfun-check builds the pairing from the builder record, so a pairing
        # record beside it would be ignored (it exited 0 with the report of
        # the unedited file)
        pairing = {"kind": "block", "blocks": [{"level": 0, "unit": 2, "swapped": True}]}
        path = edited_instance(tmp_path, "lfun_level3_ord1.json", lambda doc: doc.update(pairing=pairing))
        assert main(["lfun-check", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: $.pairing: a builder-form lfun record builds its own pairing\n"

    @pytest.mark.parametrize("key", ["dead", "swapped"])
    @pytest.mark.parametrize("value", ["false", 0], ids=["string", "number"])
    def test_non_boolean_block_flag_is_two(self, tmp_path, key, value):
        # only JSON true/false is a flag: the string "false" is not false
        def edit(doc):
            doc["pairing"]["blocks"][0][key] = value

        path = edited_instance(tmp_path, "single_block_f3.json", edit)
        code, out, err = run_cli("heights", "--input", str(path))
        assert code == 2, out
        assert f"blocks[0].{key}: expected true or false" in err and "Traceback" not in err

    @pytest.mark.parametrize("cmd", ["oracle", "heights", "invariants", "lfun-check"])
    @pytest.mark.parametrize("record", ["lfun", "ring"])
    @pytest.mark.parametrize("value", [-1, [], "x"], ids=["int", "list", "string"])
    def test_non_object_record_is_two(self, tmp_path, capsys, cmd, record, value):
        # every top-level record is checked to be an object before use
        # ("lfun": -1 raised a TypeError on `"l_z" in lf`)
        path = edited_instance(tmp_path, "lfun_seed0_ord1.json", lambda doc: doc.update({record: value}))
        assert main([cmd, "--input", str(path)]) == 2
        assert f"$.{record}: expected an object" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["lfun-check", "oracle", "heights", "invariants"])
    def test_duality_coordinate_not_a_list_is_two(self, tmp_path, capsys, cmd):
        # a coordinate that is an int raised a TypeError on every subcommand
        path = edited_instance(tmp_path, "lfun_seed0_ord1.json", set_table([1]))
        assert main([cmd, "--input", str(path)]) == 2
        assert "$.lfun.duality[0]: expected a list" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["heights", "oracle", "invariants"])
    def test_deeply_nested_file_is_two(self, tmp_path, capsys, cmd):
        # the JSON decoder's RecursionError escaped as a traceback (exit 1)
        path = tmp_path / "deep.json"
        text = (ROOT / "instances" / "single_block_f3.json").read_text()
        path.write_text(text.replace('"relations": []', '"relations": ' + "[" * 100_000 + "]" * 100_000))
        assert main([cmd, "--input", str(path)]) == 2
        assert "invalid input: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "coprime, reason",
        [(-1, "$.shape.coprime: expected a list"), ([-1], "$.shape.coprime[0]: expected a list")],
        ids=["number", "number-entry"],
    )
    @pytest.mark.parametrize("cmd", ["invariants", "oracle"])
    def test_non_list_coprime_is_two(self, tmp_path, capsys, cmd, coprime, reason):
        path = edited_instance(tmp_path, "shape_demo.json", set_field("shape", "coprime", coprime))
        assert main([cmd, "--input", str(path)]) == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, edit",
        [
            (["heights", "--input"], set_field("ring", "k", 10**6)),
            (["oracle", "--input"], set_field("ring", "k", 10**6)),
            # a 61-bit prime at level 0, where the rank cap does not bound p
            (["heights", "--input"], lambda doc: doc["ring"].update(p=2**61 - 1, level=0)),
            (["lfun-check", "--k", "1000000"], None),
            (["lfun-check", "--p", str(2**61 - 1)], None),
        ],
        ids=["heights-k1e6", "oracle-k1e6", "heights-p61bits", "builder-k1e6", "builder-p61bits"],
    )
    def test_oversized_modulus_is_three(self, tmp_path, argv, edit):
        # p^k is bounded before any ring is built: k = 10^6 ran past 10 s
        if edit is not None:
            argv = argv + [str(edited_instance(tmp_path, "two_block_mixed_f3.json", edit))]
        t0 = time.perf_counter()
        code, _, err = run_cli(*argv, timeout=60)
        assert code == 3, err
        assert "more than 32 bits" in err and "Traceback" not in err
        assert time.perf_counter() - t0 < 10

    @pytest.mark.parametrize(
        "name, edit, cmd",
        [
            ("lfun_level3_ord1.json", set_field("lfun", "global_levels", [2**70]), "lfun-check"),
            ("shape_demo.json", set_field("shape", "j_blocks", [[2**70, 1]]), "invariants"),
        ],
        ids=["builder-global-level", "shape-block-size"],
    )
    def test_huge_level_or_block_size_is_three(self, tmp_path, name, edit, cmd):
        # p^level and the degrees of a J-block are bounded before they are
        # multiplied out or walked
        path = edited_instance(tmp_path, name, edit)
        code, _, err = run_cli(cmd, "--input", str(path), timeout=60)
        assert code == 3, err
        assert "above the cap" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "cmd, name, edit",
        [
            ("heights", "single_block_f3.json", set_field("ring", "level", 8)),
            ("invariants", "single_block_f3.json", set_field("ring", "level", 8)),
            ("lfun-check", "lfun_seed0_ord1.json", set_field("lfun", "local_levels", [9])),
            ("lfun-check", "lfun_seed0_ord1.json", set_field("ring", "level", 7)),
        ],
        ids=["heights-level8", "invariants-level8", "lfun-local9", "lfun-level7"],
    )
    def test_oversized_file_module_is_three(self, tmp_path, cmd, name, edit):
        # every module is refused above the O-rank cap before its relation
        # rows are built, file-built ones included
        path = edited_instance(tmp_path, name, edit)
        t0 = time.perf_counter()
        code, _, err = run_cli(cmd, "--input", str(path), timeout=60)
        assert code == 3
        assert "above the cap 256" in err and "Traceback" not in err
        assert time.perf_counter() - t0 < 10

    @pytest.mark.parametrize(
        "cmd, name, edit, reason",
        [
            ("heights", "single_block_f3.json", set_field("ring", "level", 25), "above the cap 256"),
            ("invariants", "single_block_f3.json", set_field("ring", "level", 10**9), "above the cap 256"),
            ("lfun-check", "lfun_seed0_ord1.json", set_field("ring", "cap", 10**9), "above the cap 1024"),
        ],
        ids=["heights-level25", "invariants-level1e9", "lfun-cap1e9"],
    )
    def test_refused_before_allocation(self, tmp_path, cmd, name, edit, reason):
        # refused before any level-sized object, p**level or cap-sized
        # series is built: under a 1 GB address space an allocation would
        # end in a MemoryError, and computing p**level would not finish
        path = edited_instance(tmp_path, name, edit)
        t0 = time.perf_counter()
        code, _, err = run_cli(cmd, "--input", str(path), timeout=30, max_memory=10**9)
        assert code == 3, err
        assert reason in err and "Traceback" not in err
        assert time.perf_counter() - t0 < 10


def set_l_z_entry(doc):
    doc["lfun"]["l_z"][0][1] = 2


# (id, shipped file, edit, subcommand, the checks that must fail)
FAILING_EDITS = [
    # at the first stage generator the height stays 1, the special value becomes 2
    ("l_z", "lfun_seed0_ord1.json", set_l_z_entry, "lfun-check", ["(c) identity r=1"]),
    ("z0", "lfun_seed0_ord1.json", set_field("lfun", "z0", [0] * 6), "lfun-check", ["(c) identity r=1"]),
    # lambda^(0) = 0 at order 1, but z0 is not in the zero submodule
    ("strict", "lfun_seed0_ord1.json", set_field("lfun", "strict", "zero"), "lfun-check", ["(a) strict membership"]),
    ("odd-e2", "shape_demo.json", set_field("shape", "j_blocks", [[2, 1]]), "invariants", ["parity of even multiplicities"]),
]


class TestFailingVerdicts:
    """Valid files whose data break an identity: each exits 1 and fails
    exactly the named checks, so a verdict that always passes is caught."""

    @pytest.mark.parametrize("name, edit, cmd, failed", [e[1:] for e in FAILING_EDITS], ids=[e[0] for e in FAILING_EDITS])
    def test_edited_instance_fails_named_checks(self, tmp_path, capsys, name, edit, cmd, failed):
        path = edited_instance(tmp_path, name, edit)
        assert main([cmd, "--input", str(path)]) == 1
        out = capsys.readouterr().out
        assert re.findall(r"^\[FAIL\] (.+?) \|", out, re.M) == failed
        assert "FAILURES PRESENT" in out


def readme_commands():
    """Every `iwaheights ...` line of the README's sh blocks, as argv."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines() if line.startswith("iwaheights ")]


class TestReadme:
    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_readme_command_exits_zero(self, argv, tmp_path, capsys):
        # instance paths are resolved from the repository root, and a file
        # the command writes goes to tmp_path
        argv = [str(ROOT / a) if a.startswith("instances/") else a for a in argv]
        if "--output" in argv:
            i = argv.index("--output") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == 0, capsys.readouterr().err

    def test_readme_lists_commands(self):
        assert len(readme_commands()) >= 5


class TestDeterminism:
    def test_generate_deterministic(self, tmp_path):
        a = run_cli("generate", "--seed", "7", "--ord", "2")
        b = run_cli("generate", "--seed", "7", "--ord", "2")
        assert a == b
        assert a[0] == 0

    @pytest.mark.parametrize("ord_", [1, 2])
    def test_generate_reproduces_committed_instance(self, tmp_path, ord_):
        out = tmp_path / "generated.json"
        assert main(["generate", "--seed", "0", "--ord", str(ord_), "--output", str(out)]) == 0
        golden = ROOT / "instances" / f"lfun_seed0_ord{ord_}.json"
        assert out.read_bytes() == golden.read_bytes()


class TestLevelLadder:
    @pytest.mark.parametrize(
        "name, p, level",
        [("lfun_level3_ord1.json", 3, 3), ("lfun_p5_level2.json", 5, 2)],
    )
    def test_builder_instance_passes(self, name, p, level):
        # the ring cap follows the ambient level, so the duality can
        # project to the level-n global block
        code, out, err = run_cli(
            "lfun-check", "--input", f"instances/{name}", "--format", "json", timeout=120
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["all_ok"]
        params = payload["meta"]["params"]
        assert params["p"] == p and params["global_levels"] == [level]

    def test_mixed_level3_checks_a_nonzero_height(self):
        # on a level-n block h^(r) vanishes for r < p^n; the level-0 block
        # carries a nonzero h^(1), so (c) compares a nonzero height
        code, out, err = run_cli(
            "lfun-check", "--input", "instances/lfun_level3_mixed_ord1.json", "--format", "json"
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["all_ok"]
        assert payload["meta"]["params"]["global_levels"] == [0, 3]
        witnesses = [
            w
            for check in payload["checks"]
            if check["name"].startswith("(c) identity")
            for w in check["witness"]
        ]
        assert any(w["height"] != 0 for w in witnesses)
        assert all(w["height"] == w["special_value"] for w in witnesses)

    # sha256 of the stdout of `lfun-check ... --format json` on the two
    # level-4 builder rungs (dual modules of O-rank 162 and 250), recorded
    # with the general kernel solver before J-power torsion at k = 1 had a
    # closed form; on a k = 2 rung, recorded while each summand at k > 1
    # was still solved as a one-generator module; and on a k = 2 rung of
    # order 53, recorded while the order of vanishing walked r = 1, 2, ...
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--ord", "30"], "26386ee83d71403996a78d6cac3dae3a6fbfbc137ba73bbeeee3ed93ba9efc2f"),
            (["--p", "5", "--ord", "30"], "8767bb78f470092963e2a8e3e225ccc333f44c6d3b7c4fdeefcd3ca41ed921b9"),
            (["--k", "2", "--ord", "30"], "be9889f9b26a6959e21e8c1a4f074b9c0b58402e12155fe451c7b50966625ffc"),
            (["--k", "2", "--ord", "53"], "9bb2b44dd790434b405a02d16cdbb08f7ad7d7591580ce2789105008b1788584"),
        ],
        ids=["p3-ord30", "p5-ord30", "k2-ord30", "k2-ord53"],
    )
    def test_level4_rung_reports_are_pinned(self, argv, digest, capsys):
        assert main(["lfun-check", *argv, "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestOracle:
    def test_zero_mismatches_on_corpus(self):
        for path in CORPUS:
            doc = json.loads(path.read_text())
            if not ({"module", "pairing", "lfun"} & doc.keys()):
                continue
            code, out, err = run_cli("oracle", "--input", str(path))
            assert code == 0, f"{path.name}: {err}"
            assert "FAIL" not in out

    def test_in_process_entry_point(self, capsys):
        code = main(["oracle", "--input", "instances/single_block_f3.json"])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out


class TestReports:
    def test_json_format_is_valid_json(self):
        code, out, _ = run_cli(
            "heights", "--input", "instances/single_block_f3.json", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True
        assert all("anchor" in c and "witness" in c for c in payload["checks"])

    def test_witnesses_present_for_kernel_checks(self):
        code, out, _ = run_cli(
            "heights", "--input", "instances/single_block_f3.json", "--format", "json"
        )
        payload = json.loads(out)
        kc = [c for c in payload["checks"] if c["name"].startswith("kernel chain")]
        assert kc and all("height_matrix" in c["witness"] for c in kc)

    def test_lfun_check_seeded(self):
        code, out, _ = run_cli("lfun-check", "--seed", "0", "--ord", "2")
        assert code == 0
        assert "FAIL" not in out

    def test_generate_roundtrip_through_file(self, tmp_path):
        out_file = tmp_path / "gen.json"
        code, _, _ = run_cli("generate", "--seed", "3", "--ord", "1", "--output", str(out_file))
        assert code == 0
        code, out, _ = run_cli("lfun-check", "--input", str(out_file))
        assert code == 0 and "FAIL" not in out

    def test_tampered_class_data_fails_checks(self, tmp_path):
        out_file = tmp_path / "gen.json"
        run_cli("generate", "--seed", "3", "--ord", "1", "--output", str(out_file))
        doc = json.loads(out_file.read_text())
        doc["lfun"]["l_z"][0][0] = (doc["lfun"]["l_z"][0][0] + 1) % 3
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run_cli("lfun-check", "--input", str(bad))
        assert code == 1
        assert "FAIL" in out

    def test_tampered_duality_table_is_invalid(self, tmp_path):
        out_file = tmp_path / "gen.json"
        run_cli("generate", "--seed", "3", "--ord", "1", "--output", str(out_file))
        doc = json.loads(out_file.read_text())
        rank = doc["lfun"]["rank"]
        dim = len(doc["lfun"]["z0"]) + 3  # global dim + local block size
        cap = doc["ring"]["cap"]
        doc["lfun"]["duality"] = [
            [[1] * dim for _ in range(cap + 1)] for _ in range(rank)
        ]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli("lfun-check", "--input", str(bad))
        assert code == 2
        assert "invalid" in err.lower()

    def test_invariants_shape_example(self):
        code, out, _ = run_cli(
            "invariants", "--input", "instances/shape_demo.json", "--format", "json"
        )
        payload = json.loads(out)
        dims = next(
            c["witness"]["dims"]
            for c in payload["checks"]
            if c["name"] == "parity of even multiplicities"
        )
        assert dims == [4, 3, 1, 1]

    def test_invariants_empty_shape_all_zero(self, tmp_path):
        doc = {
            "version": 1,
            "ring": {"p": 3, "k": 1, "cap": 12, "level": 1},
            "shape": {"e_infinity": 0, "j_blocks": [], "coprime": []},
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli("invariants", "--input", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        dims = next(
            c["witness"]["dims"]
            for c in payload["checks"]
            if c["name"] == "parity of even multiplicities"
        )
        assert all(d == 0 for d in dims)

    def test_heights_max_r_one(self):
        code, out, _ = run_cli(
            "heights",
            "--input",
            "instances/single_block_f3.json",
            "--max-r",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        kernel_checks = [
            c for c in payload["checks"] if c["name"].startswith("kernel chain")
        ]
        assert [c["name"] for c in kernel_checks] == ["kernel chain r=1"]
