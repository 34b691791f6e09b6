"""Golden-output regression check for every subcommand and report bundle.

Each case runs ``portview`` in-process on a fixed input and hashes its exit
code, stdout, stderr and every file it writes. The digests pin the output
byte for byte, so a refactor that is meant to change no behaviour must leave
all of them unchanged. Inputs are copied into a temporary directory and named
by relative paths, because the report bundle records the dataset path.

After an intended output change, each failing case reports its new digest.
"""

import hashlib
import random
import shutil
from pathlib import Path

import pytest

from portview.cli import main
from portview.runstore import write_canonical
from randgen import make_dataset

DATA_DIR = Path(__file__).resolve().parent / "data"
# near.csv: a 5-participant cover of 4 with times within 0.5 s, so the option cases differ
DATASETS = ("demo", "m100", "near")
SCENARIO_COMMANDS = ("borda", "mincover", "tradeoff", "shapley")
REPORT_RUNS = {
    "default": [],
    "all": ["--scenario", "all"],
    "sampled": ["--mode", "sampled", "--samples", "100"],
}
# Non-default options of single commands, one case per dataset each.
OPTION_RUNS = {
    "shapley-sum": ["shapley", "--mode", "sum"],
    "shapley-full": ["shapley", "--portfolio", "full"],
    "tradeoff-full": ["tradeoff", "--space", "full"],
    "mincover-eps": ["mincover", "--epsilon", "0.5"],
    "report-eps": ["report", "--out", "bundle", "--epsilon", "0.5"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in DATASETS:
        data = f"{name}.csv"
        cases[f"{name}-ingest"] = ["ingest", "--data", data]
        cases[f"{name}-convert"] = ["convert", "--data", data]
        for fmt in ("text", "csv"):
            cases[f"{name}-oracle-{fmt}"] = ["oracle", "--data", data, "--format", fmt]
            for cmd in SCENARIO_COMMANDS:
                for scenario in ("participants", "all"):
                    cases[f"{name}-{cmd}-{scenario}-{fmt}"] = [
                        cmd, "--data", data, "--scenario", scenario, "--format", fmt
                    ]
        for run, extra in REPORT_RUNS.items():
            cases[f"{name}-report-{run}"] = ["report", "--data", data, "--out", "bundle", *extra]
        for run, (cmd, *extra) in OPTION_RUNS.items():
            cases[f"{name}-{run}"] = [cmd, "--data", data, *extra]
    return cases


CASES = _cases()
# an exact report whose sidecar holds Shapley values over denominators of about
# 560,000 bits, far past the 4,096 bits that render.decimal_text converts directly
CASES["random11-report-all"] = [
    "report", "--data", "random11.csv", "--out", "bundle", "--scenario", "all"
]


def write_inputs(directory: Path) -> None:
    for name in ("demo", "near"):
        shutil.copyfile(DATA_DIR / f"{name}.csv", directory / f"{name}.csv")
    for name, n_solvers in (("m100", 6), ("random11", 11)):
        ds = make_dataset(random.Random(7), n_solvers, 100)
        (directory / f"{name}.csv").write_text(write_canonical(ds), encoding="utf-8")


def run_case(argv: list[str], directory: Path, capsys) -> str:
    """Digest of one run in ``directory``: exit code, stdout, stderr, written files."""
    shutil.rmtree(directory / "bundle", ignore_errors=True)
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    h = hashlib.sha256(f"{code}\0{captured.out}\0{captured.err}\0".encode("utf-8"))
    bundle = directory / "bundle"
    if bundle.exists():
        for path in sorted(bundle.iterdir()):
            h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case, inputs, monkeypatch, capsys):
    monkeypatch.chdir(inputs)
    digest = run_case(CASES[case], inputs, capsys)
    assert digest == GOLDEN.get(case), f"{case}: output changed, digest now {digest}"


GOLDEN = {
    "demo-borda-all-csv": "7256490556e0e0758a8337498ffad440bcad8bf8569e2cb3595256e92103900d",
    "demo-borda-all-text": "f80f8e2989a6cd98ace10a6b828b3ec4aadbfe45a5c3999d11985ded87033f8f",
    "demo-borda-participants-csv": "a4c947af85868de46ccac42a0b43b5e13d6f685e7ec7ae0bde16cf935be32435",
    "demo-borda-participants-text": "14b1f17b5d59a544b48bf726e7451b8be66d8a70c6f2968e6d5744282d1e8aab",
    "demo-convert": "b93cd60a4f371f4e5a165048191d6177d9323e58ff8c61bf7093fe0af053b8bd",
    "demo-ingest": "b93cd60a4f371f4e5a165048191d6177d9323e58ff8c61bf7093fe0af053b8bd",
    "demo-mincover-all-csv": "c0f174fc3b021045d90f61479ebc1532c3472e84f9927859bf8b5c4d2b90350c",
    "demo-mincover-all-text": "f2fe2a828463fb434674dd574743a194504cda834a7f508861aa24e71da2f16e",
    "demo-mincover-eps": "690827e4683fcce6fc73587411048c8eba97ffae618925d90eb8aba29d666f16",
    "demo-mincover-participants-csv": "4464e0720bb624fc9eb2c25c3c9aad1d79aa857eae7173013d562528fb5903f6",
    "demo-mincover-participants-text": "690827e4683fcce6fc73587411048c8eba97ffae618925d90eb8aba29d666f16",
    "demo-oracle-csv": "849498e48cfdfd1b3f2dedf98814e2fe94eb27f518d994bdeabfa26d2e566b7e",
    "demo-oracle-text": "f432bc4a9b7694fd1b9f614f972fe67bcec861a291b025c5e321e5c6ca2e6448",
    "demo-report-all": "085015e55edc5971055e144a1186ee552416e6dae6c992413d6b052c004fdbc5",
    "demo-report-default": "e4a3faf487b9aa6a3a6099194b6397f1fe4992014fb088c3bddd0a599097a0fe",
    "demo-report-eps": "a49a3a0640f1fb4e1c1182eb00d770be23dd8509c5c1529db3b8542b26bf80c7",
    "demo-report-sampled": "af9061a1bdbc40eb6edbde5dfdeacbbe06762001d2157e3cc1ea6e7feeea27a5",
    "demo-shapley-all-csv": "2cbf207f47b03f384ab51a21dd43ca38ecd34c4db12ec4be48e657c814798d18",
    "demo-shapley-all-text": "f1b622307e67f68cb529f515515d4b29812e25c8c3b88ef956fe8f439b85f8fd",
    "demo-shapley-full": "c0aa25ae6af753e95a80327542387bf8a27c6497fedafa29101bd56dcd12d590",
    "demo-shapley-participants-csv": "62cfe552c12427e11a7f1ac528cd67f53ea34ded235c0c42f25627693e03179c",
    "demo-shapley-participants-text": "c0aa25ae6af753e95a80327542387bf8a27c6497fedafa29101bd56dcd12d590",
    "demo-shapley-sum": "4fcebfec3745ec6afaaf73ebdff3c29e882402559ddfe7a063eced957acec70b",
    "demo-tradeoff-all-csv": "81b252571f29fa89f667a82170b9e184b099fa48441be73683ffa22403f78f98",
    "demo-tradeoff-all-text": "ef56df596423437a9bc1109768229dc459330d71c9b721821b352c32f4f978fe",
    "demo-tradeoff-full": "b9ae77aac27d44f9427aaa35efb779c49e2bb77df454c00ac48e6b9de986ee84",
    "demo-tradeoff-participants-csv": "8ca4918d52b459bb1797c1faecd8a8271f5f1f3abbb1e8eb26d5b1d05e42d421",
    "demo-tradeoff-participants-text": "b9ae77aac27d44f9427aaa35efb779c49e2bb77df454c00ac48e6b9de986ee84",
    "m100-borda-all-csv": "96ffbc6b48d186a3fe8986e35e612fd46922558448b4d1d546abd0cfe02fea51",
    "m100-borda-all-text": "cd73761c94b9db433308cfe9cc650501bfc5dbc24785a527b1867437534070a6",
    "m100-borda-participants-csv": "96ffbc6b48d186a3fe8986e35e612fd46922558448b4d1d546abd0cfe02fea51",
    "m100-borda-participants-text": "cd73761c94b9db433308cfe9cc650501bfc5dbc24785a527b1867437534070a6",
    "m100-convert": "14e4f41e03a129a0576dfa3ced4cacd1c1392d6e733a535ba08a1a565cf2b3f6",
    "m100-ingest": "14e4f41e03a129a0576dfa3ced4cacd1c1392d6e733a535ba08a1a565cf2b3f6",
    "m100-mincover-all-csv": "dfac5e4908faeb8e0450b7d2d4c5ed92255bfb237eee046e7fa86b4277890d86",
    "m100-mincover-all-text": "baa94ed6627f20c8c75e3595c15fff76f444975997c1720defdadae0fad10d43",
    "m100-mincover-eps": "baa94ed6627f20c8c75e3595c15fff76f444975997c1720defdadae0fad10d43",
    "m100-mincover-participants-csv": "dfac5e4908faeb8e0450b7d2d4c5ed92255bfb237eee046e7fa86b4277890d86",
    "m100-mincover-participants-text": "baa94ed6627f20c8c75e3595c15fff76f444975997c1720defdadae0fad10d43",
    "m100-oracle-csv": "4ed9ef3398f1f8967fa65dbd29d5967c482f8b8ad66e4b095350ce094c91bb26",
    "m100-oracle-text": "22444157eaaab011e8ca061e9d4cb6e81711571eb216f13d34b8c456e4ae646d",
    "m100-report-all": "87846728ffc7001f53051981ae38ad2f9ef43ea85fc0eb20c8e632de93070420",
    "m100-report-default": "65814b18c2f6232aacf860c9c5f6db0b9392563c6cc41339a6b65079f0161fca",
    "m100-report-eps": "8e0f45f919d0ceed9a2b840849a2e3fae0a5f43cea167243d9b160c0d9e8f874",
    "m100-report-sampled": "a05acd840744393c0883a3ca4bea3e8aa6dfa4d21997ee67a3b0363f4bb4e39c",
    "m100-shapley-all-csv": "80de857ad120be6b0d5a4719dee34b450d55339d4fffcc364484b220ac74fc1d",
    "m100-shapley-all-text": "52c8ec45a37918a9b7d66d923f4df4444e47a4b0a0b07a291e6cbae2e1071fcc",
    "m100-shapley-full": "52c8ec45a37918a9b7d66d923f4df4444e47a4b0a0b07a291e6cbae2e1071fcc",
    "m100-shapley-participants-csv": "80de857ad120be6b0d5a4719dee34b450d55339d4fffcc364484b220ac74fc1d",
    "m100-shapley-participants-text": "52c8ec45a37918a9b7d66d923f4df4444e47a4b0a0b07a291e6cbae2e1071fcc",
    "m100-shapley-sum": "e96616aeedb971a05af30c4c41baa4494f93258cbf3aa5196f3818a0eb11e7b7",
    "m100-tradeoff-all-csv": "d13367b7ff89246072414ec770c3f8d74e3dda9fff13179f0d0325cdffef7071",
    "m100-tradeoff-all-text": "d63be9d0ceb64fc6a7394fbd288698b02c234a83e0de6fadb2916d8ef71fe42c",
    "m100-tradeoff-full": "d63be9d0ceb64fc6a7394fbd288698b02c234a83e0de6fadb2916d8ef71fe42c",
    "m100-tradeoff-participants-csv": "d13367b7ff89246072414ec770c3f8d74e3dda9fff13179f0d0325cdffef7071",
    "m100-tradeoff-participants-text": "d63be9d0ceb64fc6a7394fbd288698b02c234a83e0de6fadb2916d8ef71fe42c",
    "near-borda-all-csv": "bec95e219d9fc05e88c8c28f474d4603441487cae0f26c616e2d8b96ee19d05a",
    "near-borda-all-text": "dc22e9910d3163ed33cc164261a481d98aa9ad8e86f539f83ace4b10301c025f",
    "near-borda-participants-csv": "b54286888d5717a6a6afadf5d3018fa387d192fb90031917c80b29addfb8d5fa",
    "near-borda-participants-text": "ec20ba826b61317d6a112e4a48a94b171aa580fb02c7e1a08f047af1ab58ac1f",
    "near-convert": "1f5e4078adffd496896006d44bb153b9b73d94b8bb5ca1f91be0b15a3ba06092",
    "near-ingest": "1f5e4078adffd496896006d44bb153b9b73d94b8bb5ca1f91be0b15a3ba06092",
    "near-mincover-all-csv": "09ae5b5b4aa1b069dc05e1ad617ac6ce0a41bc0b15a73b866e99141f9a59206d",
    "near-mincover-all-text": "91b9d82e4474bd917379db43b8eff61bc5de8fc3d9747543b8100f6efb7d9b21",
    "near-mincover-eps": "40c317216f92c29f4ca0ce735b8ee199b77c1a5343c552457cd9bb814391d583",
    "near-mincover-participants-csv": "288ce06c4ee71aebca1e72eb6f502e49c2f8708b1d7349f594f1f01c4a27eee8",
    "near-mincover-participants-text": "f1e1b949a9aab75473fdcfe749b35552091f09dc32ccfee3a752fd8d8c762fff",
    "near-oracle-csv": "5cd6b64f971e78ab1c64ac0402c2688b7a23470ded7155f161fea45791e5d985",
    "near-oracle-text": "add45ce87010343299a53a0e588144297ba639a536b8e4e47d2f938ad763db16",
    "near-report-all": "030c293ec27d3cd0b206057f43735eae2269173b19ee88654cdfdb2abf22df76",
    "near-report-default": "ae35be4cef0a99098fe68c90c09855d54f7eb27714cb3bb13cb66ed7066109f6",
    "near-report-eps": "292067a37a70707029b478d20dfc4ce27727c240736c0333d3f89ef8e7f90f30",
    "near-report-sampled": "8c7255f9cde69be46eec3107641f7f86624ca3d37b843b38a3b5233347b5cfb0",
    "near-shapley-all-csv": "1dfd6b745feebffba36cd5d200a160902f48fb0514aca1a98f15db3f2b99bb7a",
    "near-shapley-all-text": "1aedde0c0acdf78b545261ae26d042033a8b2fe220103d44bab39365c7bff525",
    "near-shapley-full": "b689fbffb308fd13b3afe2b5a0da7ca031a968f3e68ef2254d8007e268195b09",
    "near-shapley-participants-csv": "7241fd47a6d280250e043c12ca408dc837cdf2337674e53a03c7812f4486120c",
    "near-shapley-participants-text": "937416a1bd3a77d9bacf0e48cfcc19d479954580fb5f1dea217e7b3593bf27bf",
    "near-shapley-sum": "1be7b279552a2a3318a8ce36bada2152aa606c19e3fa041f9806b4117654894d",
    "near-tradeoff-all-csv": "289677af79cea2e497306d5ac1310c96e96b814b1762a2a10e7b965abd1b80b9",
    "near-tradeoff-all-text": "94bc0d05406de21a3fae08d4046906fb38203c8d46ce2dbf647a40658e6297da",
    "near-tradeoff-full": "7eb3f8fb40f000f0d084342582da06efd48e70b03f9d67ba8a756f54c270aecf",
    "near-tradeoff-participants-csv": "9573672f343f21cb0cefe4eaeb9c8494ea03c83ed577f37cefc743c067ab8732",
    "near-tradeoff-participants-text": "43fba8d37773ec71d1e9e092fe7309bc82a13278df1af05d784816478866c508",
    "random11-report-all": "980aae3eb783973f59b3dbf0ed15fcb45ebaf80372e52310b1b2b2792b72a2bd",
}
