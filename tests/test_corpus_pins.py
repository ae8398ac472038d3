"""The shipped corpus reports, pinned by digest.

Every subcommand that accepts an `instances/*.json` file is run on it
in-process through `cli.main`, in text and in json format, and the sha256
of its stdout is compared with the digest recorded here at commit 8951bd7,
before pairings were evaluated as matrices.  A changed report on a shipped
file fails here even when two runs of the same code agree with each other.
"""

import hashlib
from pathlib import Path

import pytest

from iwaheights.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "instances"
INPUT_COMMANDS = ("invariants", "heights", "lfun-check", "oracle")

# (file, subcommand) -> (sha256 of the text report, sha256 of the json report)
PINS = {
    ("lfun_level3_mixed_ord1.json", "lfun-check"): (
        "e4e4cc96e6dd8ca6808c87e5757eee2feb5fd1fbcac4bbc43e43a2f2b486f872",
        "4a974589a10b90d8d4a42b5b9577d9f924a94b59bc4847de6d22e66940da7d1f",
    ),
    ("lfun_level3_mixed_ord1.json", "oracle"): (
        "2ebcecda96941b58ebf746f8e3560d157a17e2b30176cdd51634bc18d8223070",
        "cfbe21b4b676d484ffed94272ac121b05ae546b8faf8579d6cd9eb1a7d785afe",
    ),
    ("lfun_level3_ord1.json", "lfun-check"): (
        "86dea4c1ea70358b7a83dc92eb9c8dbeaa6313cc05e9b97b4d81d83365548969",
        "76e5609d95f3cd13156a7db42c9245a6f92d02d69924d573c5d0b8ca4450178d",
    ),
    ("lfun_level3_ord1.json", "oracle"): (
        "90d67e9f6b7483a282c89526a6c4da70b07c48a543fb73d62b842b0fd06af164",
        "0cade0a1986f4ee958c2ebfa2e5a0dc638be04ed38c44ae0e9ba2cb0866d0d90",
    ),
    ("lfun_p5_level2.json", "lfun-check"): (
        "a13b6efbc2337a21140463077450a2c1b4a62904a948abf411e57678fbfeb6bd",
        "e138cdb5d4b9363dc8845ac7f8c118192291ee5b1e31a0748f18293e980fdd21",
    ),
    ("lfun_p5_level2.json", "oracle"): (
        "6b54e842cf6bd46258dbc17914714e8168ce6e8a8237caffd220b6ec96845da0",
        "a59deac0ff025933311eef1cde6138494b8905d57067a4fa205169904bcc5f89",
    ),
    ("lfun_seed0_ord1.json", "heights"): (
        "7a5df0b42b72d99fe8365346aa2f6db3afb82adfa5ffd0b482c49a0a22bbfc2a",
        "b5309882741c38206a44690918cc1edc045bfd39a2fc0cbc9a8ea5bf8a056720",
    ),
    ("lfun_seed0_ord1.json", "lfun-check"): (
        "4303d51cfaba4f02ef130784ecb6ed803dfd0d8212a99f02987af253167f7ace",
        "8132bbc4206b5f699d9c7bbe9be1716b2c50258296134d13dfdafc4638d6132e",
    ),
    ("lfun_seed0_ord1.json", "oracle"): (
        "ba50fbb5cf07c5aa1aeaaa7f1c9674b02bcf0a7927e0274c1cae578525452925",
        "7c09914f8f89b381fe7792bee8425a5e72fa6eed9538c5abf0fdcb6450ea7865",
    ),
    ("lfun_seed0_ord2.json", "heights"): (
        "34d50e81ad0f2132c046b8d24dc7007f12b67456bee9032acce08d882bd5d101",
        "68b3b412744e25976d056cf9fb0ee36b2aa25af3eaca7868b2aa2b4fda3d39cc",
    ),
    ("lfun_seed0_ord2.json", "lfun-check"): (
        "41bc132f80e6bce5f8650b6339332236f01e2bac94d02e95741b941bbbadae8b",
        "26b40ef9ce28e5312a28213cfb55c173fda4a780aedb40d0b43b4b4b12c1aaf4",
    ),
    ("lfun_seed0_ord2.json", "oracle"): (
        "1ee703f9a1280b26558b0568b297a779ad9a9d61aab591bdab46c0fae02db1d0",
        "131b7d7cb49eab0d0dc53ef4d4f4142fcac620e7740d3ca8dfd259b81a3b9a7d",
    ),
    ("mixed_module_f3.json", "invariants"): (
        "5f306ef5b38299d297f5b6fe6e5e4d4a6900fd6549db87bbb526df59ce5044e5",
        "115ee19efc8a3d7cc457f18195653de1b3aaf38046a0f60e70c5a34bf4d937fa",
    ),
    ("mixed_module_f3.json", "oracle"): (
        "b46c9be3f7d57cd141570cb406ef784cc2d4ed8a5f8f1c7bd02863ce5a71cb6f",
        "78b471b8bfad748f9207b2724fc4fc328ef902beb6619e3e900ed2a05bc3d8b2",
    ),
    # re-recorded when "invariant extraction", which restated the record,
    # was folded into the witness of "parity of even multiplicities"
    ("shape_demo.json", "invariants"): (
        "f8e75e7406097a2f8e6380fababaaf80d98c8f0e1c8a4455fc17298365b0d8fa",
        "cab16deb894cba6f760040c7ae6a07bd581825c125859fbe35c11ebab23c8116",
    ),
    ("single_block_f3.json", "invariants"): (
        "5916708eb39157c6e9bafb3fdc30138975ffa46d5823827e115cadc80d5b7d25",
        "55ec5f77588d2c97459ce9d549302be676f846b58aef6b0a6cd4a489509bae37",
    ),
    ("single_block_f3.json", "heights"): (
        "0778687ac56245ce8b791b4e2169ad95cf22c2389190c34de16417382d276619",
        "8dc1d2719eb4b8bfb960f3aa2cdcb2a94213948c20b0fad6a794e7a183559baf",
    ),
    ("single_block_f3.json", "oracle"): (
        "876a7ea328f2d0befecf1edd437486aab87ba8fbf027a106050eaf76b605ddc2",
        "64e46c847ee1e1047873f742ccffb532c646a2315f082acb09b14b4881ad42eb",
    ),
    ("single_block_mod9.json", "invariants"): (
        "e7b0e2f76ae5f67ea37cf90f2a60aa23abe0ea744bf6347ff860403144e3153d",
        "266932a8e45190062a2c3d52c9255dc2e4e6287d0421e01920fd7655e21efbb5",
    ),
    ("single_block_mod9.json", "heights"): (
        "041206d5d2cb5cd2adb472cb6c1adfa0c8e23ae5705b1f5cad4a8e695974b6ea",
        "46824cf8fd9c1cd1c86d99b19a19997b54c9244e3f0cc377f55734d29fdfbc93",
    ),
    ("single_block_mod9.json", "oracle"): (
        "0c01661d85bb607830b57fc8b0468574748f27c5e7fb3eac4fe8156505971120",
        "e0b00760bb46151606db0d0bef9ec831e9333087dd137b269369f01aa5d21940",
    ),
    ("swapped_pair_f3.json", "heights"): (
        "4e7b28e30cfdd4e40c9a8da67ad9fe1d5ef271e1feb0d8a0d92e14b999db57ae",
        "d9f6c0b1892e84dd7fa78138890c5e53987971998c3ef76dd52264a92372a9bc",
    ),
    ("swapped_pair_f3.json", "oracle"): (
        "1b8ab126848ae1c3adf7abff7510a80a0a2acd89edd5d545bcf18b202ee759a6",
        "1e909c151ae0daf361dba3954eb247901cd11e8ec56056ccdfc5250a4a155943",
    ),
    ("two_block_mixed_f3.json", "heights"): (
        "1d71c05a30b9ecce703e9b0d620620f607463efd42854ca301eedb6312e43373",
        "12124fcb77812963f958fd82c62b32f7c223a9e5514a86cb12463eb0d8e14092",
    ),
    ("two_block_mixed_f3.json", "oracle"): (
        "1b8ab126848ae1c3adf7abff7510a80a0a2acd89edd5d545bcf18b202ee759a6",
        "1e909c151ae0daf361dba3954eb247901cd11e8ec56056ccdfc5250a4a155943",
    ),
}


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name, cmd", sorted(PINS), ids=[f"{n}-{c}" for n, c in sorted(PINS)])
def test_report_matches_pinned_digest(name, cmd, capsys):
    for fmt, digest in zip(("text", "json"), PINS[name, cmd]):
        code, out = _run(capsys, cmd, "--input", str(CORPUS / name), "--format", fmt)
        assert code == 0, (name, cmd, fmt)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, cmd, fmt)


def test_every_accepting_subcommand_is_pinned(capsys):
    # the corpus is covered: every other (file, subcommand) refuses the file
    files = sorted(p.name for p in CORPUS.glob("*.json"))
    assert sorted({name for name, _ in PINS}) == files
    for name in files:
        for cmd in INPUT_COMMANDS:
            if (name, cmd) not in PINS:
                code, out = _run(capsys, cmd, "--input", str(CORPUS / name))
                assert (code, out) == (2, ""), (name, cmd)
