"""Golden outputs: SHA-256 digests of command-line outputs and Monte Carlo
success counts, pinned from a known-good build.

A change that alters any of these has changed a result. Such a change says
so in CHANGES.md, with the cause; it does not just re-pin the digests.
"""
import contextlib
import hashlib
import io

import numpy as np

from conftest import set_from_cellsets
from opqkd import (
    SetParameters,
    build_3x3,
    build_symmetric,
    make_strategy,
    monte_carlo_estimate,
    stateset_to_text,
)
from opqkd.cli import main
from opqkd.protocol import CHUNK_ROUNDS, round_columns
from opqkd.qcore import philox_block

SKEWED = "1,0,0.9486832980505138,0.31622776601683794,1,0,1,0"
DEGENERATE = "1,0,1,0,1,0,1,0"
STRATEGIES = ("none", "intercept", "complementary", "substitute")
ATTACKS = ("intercept", "complementary", "substitute")
DIMS = (3, 4, 5, 9)
FRACTIONS = ("0.1", "0.001", "0.25")
MULTI_CHUNK = (("intercept", 3), ("intercept", 9), ("complementary", 9))


def simulate_cases():
    """(name, argv without output paths): every strategy at every dimension;
    round counts step by 37 from 2000, so most are not multiples of ten.
    The attacked sessions of MULTI_CHUNK span three chunks of rounds, so
    they pin the attackers' outcomes past the first chunk."""
    cases = []
    for i, (strategy, n) in enumerate((s, n) for s in STRATEGIES for n in DIMS):
        argv = ["simulate", "--dim", str(n), "--strategy", strategy,
                "--rounds", str(2000 + 37 * i), "--seed", str(100 + i),
                "--check-fraction", FRACTIONS[i % len(FRACTIONS)]]
        cases.append((f"simulate-{strategy}-{n}", argv))
    for i, (strategy, n) in enumerate(MULTI_CHUNK):
        argv = ["simulate", "--dim", str(n), "--strategy", strategy,
                "--rounds", str(2 * CHUNK_ROUNDS + 37), "--seed", str(200 + i),
                "--check-fraction", FRACTIONS[i % len(FRACTIONS)]]
        cases.append((f"simulate-{strategy}-{n}-chunks", argv))
    return cases


def report_cases():
    cases = [(f"exact-{a}-{n}", ["exact", "--dim", str(n), "--strategy", a])
             for a in ATTACKS for n in DIMS]
    cases.append(("exact-skewed", ["exact", "--params", SKEWED]))
    cases.append(("sweep-intercept", ["sweep", "--max-dim", "9", "--trials", "200",
                                      "--seed", "7"]))
    cases.append(("sweep-substitute", ["sweep", "--max-dim", "6", "--trials", "200",
                                       "--strategy", "substitute", "--seed", "8"]))
    cases.extend((f"validate-{n}", ["validate", "--dim", str(n)]) for n in DIMS)
    cases.append(("validate-degenerate", ["validate", "--params", DEGENERATE]))
    return cases


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute_digests(tmp_path) -> dict[str, str]:
    digests = {}
    outputs = ("report", "transcript", "eve-transcript", "key-out")
    for name, argv in simulate_cases():
        paths = {kind: tmp_path / f"{name}.{kind}" for kind in outputs}
        flags = ["--output", str(paths["report"]),
                 "--transcript", str(paths["transcript"]),
                 "--eve-transcript", str(paths["eve-transcript"]),
                 "--key-out", str(paths["key-out"])]
        assert main(argv + flags) == 0, name
        for kind, path in paths.items():
            digests[f"{name}.{kind}"] = _digest(path.read_bytes())
    for name, argv in report_cases():
        out = tmp_path / f"{name}.txt"
        main(argv + ["--output", str(out)])
        digests[name] = _digest(out.read_bytes())
    for seed in ("0", "5"):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(["demo", "--seed", seed]) == 0
        digests[f"demo-{seed}"] = _digest(text.getvalue().encode("utf-8"))
    return digests


def compute_counts() -> dict[str, int]:
    counts = {}
    for n in DIMS:
        state_set = build_symmetric(n)
        for k, attack in enumerate(ATTACKS):
            est = monte_carlo_estimate(state_set, attack, 400, seed=30 + n + k)
            counts[f"{attack}-{n}"] = est.successes
    return counts


GOLDEN_DIGESTS: dict[str, str] = {
    "simulate-none-3.report":
        "4766720f34ed3d496f1687e427308f4c57511e02bb1887628995fcbff6fd54bd",
    "simulate-none-3.transcript":
        "0a9e2841504dba39aee074b885d738ecda4a90e14465ffc33d47f25941ea295a",
    "simulate-none-3.eve-transcript":
        "d268cf256be1a731c64ef9c6c5ff6344d0b4125a2b81136d1b368a2d306b7129",
    "simulate-none-3.key-out":
        "6b11722e2f6c8ac3c6f42fbe3ca170e36b9c3eb2f5a26d6c1a6955da704644b8",
    "simulate-none-4.report":
        "286c7f23d37f5df4cf4e68d26d8977227d2989b5dbceec63a1837a1485904fea",
    "simulate-none-4.transcript":
        "5286112f3621220fead7049819ade238e92e74b5a16ffe707ba6646b5c4af5cd",
    "simulate-none-4.eve-transcript":
        "19591955648c51c28f71a9abeeed04f96570933f7b3d84e05c6ab2082ebc3b63",
    "simulate-none-4.key-out":
        "d73f6ab7bbbeabd756b481486d7f67955aa4bb1565025a5bc0270cdcf290ee2a",
    "simulate-none-5.report":
        "192015de048f5c0558a19790cf7da8f3aa61d7c757577a83451395a4f466b3fd",
    "simulate-none-5.transcript":
        "afc4e6f37436d39141a5a6367ccc8c114894f8f0ee5378af3a44869f430fa782",
    "simulate-none-5.eve-transcript":
        "d05e9ee061a524bce32c5a6cfc8a567c7be19978500b0daa1f3eab04d420d8cc",
    "simulate-none-5.key-out":
        "9f48b8ec52231940c3a178d2585413c77cff36493ad091a1e18585661c6eca44",
    "simulate-none-9.report":
        "67f23eb5e6387ed19bccf2d2e04ff5e5588adfc86efb7a1bcff580d54bbe2267",
    "simulate-none-9.transcript":
        "e51fb52f14e90b27a6937defc443e7dc6ce87803dcc30e86b1e22d2f232dfd47",
    "simulate-none-9.eve-transcript":
        "9a3ce30d81f5665d23f64efeb88ba4d64028cd2a21e92d086f12a02130556a9d",
    "simulate-none-9.key-out":
        "b23d6b3868aacabfcb20dbcbdf53bf46e82bb64b8d8af4f6cdc865e78c3978d9",
    "simulate-intercept-3.report":
        "aabbfcb572f088f7afdf41602d0c2662d14cfe5552ccb7003ad6308ba42edd4d",
    "simulate-intercept-3.transcript":
        "b40d22d108d5889fb4d5e6185b70b5125aea453592ed7a4986259ca09fb6458f",
    "simulate-intercept-3.eve-transcript":
        "816be632d48d8b63149ecda1bd66ea042b3de8b4d156d509ebc55844026214f3",
    "simulate-intercept-3.key-out":
        "2101e132da348cb4e93db860c24e0259ad2fe892ceb798ed5f04453ff9e03f64",
    "simulate-intercept-4.report":
        "5d95fc6e3d682f267f48a46031461bdb20c324c807267a7823542b8b5149c4a9",
    "simulate-intercept-4.transcript":
        "d63e155e3ff1bc191478799847537b31d77b8f8dd34e442508ec93d338dcd69b",
    "simulate-intercept-4.eve-transcript":
        "471275d02fe82650734fc8ea794cd6f54a827d7d1d6c0d453119810e9632ef71",
    "simulate-intercept-4.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-intercept-5.report":
        "5a61e105cde3a218b63cf815615b011ce6b46df3895936affa21869d128c0f7b",
    "simulate-intercept-5.transcript":
        "bb37b97fc6e4ca1258d89130a469839aafce29c78e45ff94654ea9b225f4624e",
    "simulate-intercept-5.eve-transcript":
        "419e8ca2dcc016a35812a144fde13b45816109d32efe07881c6fe4289c00b9f8",
    "simulate-intercept-5.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-intercept-9.report":
        "c3398ed329fccc81ff0ff17930abce3e416a7d9eeb6c01368f1141274c952c27",
    "simulate-intercept-9.transcript":
        "277b3d5cb297ecb399114f587b91fa3472eabde66e631c76bf5a7674b2c79548",
    "simulate-intercept-9.eve-transcript":
        "9874b6c0549ee0b01b4f00a7580b898ae990279657f6d56ac32962e1abc3317a",
    "simulate-intercept-9.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-complementary-3.report":
        "67944801379f402b3c975232866393a0ca391a5f12617429012c95e8dda8e0a8",
    "simulate-complementary-3.transcript":
        "43b364bed2323744af6110b7ca8912eb3b09b89fcdb2466a686ecda774a7d366",
    "simulate-complementary-3.eve-transcript":
        "01279752b0f2073a1ff7fdbee9509a9efb4ab82bac2dd1c180979b8020143d59",
    "simulate-complementary-3.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-complementary-4.report":
        "2386ff69b60bdb343837229c7f1a64b50fa550e2f34ded1cdb6eb8c90df7cb4b",
    "simulate-complementary-4.transcript":
        "9fa0b8e9ea32632c5e970da9f826203f166e11cbdc49ea96693b9f4933b4f28a",
    "simulate-complementary-4.eve-transcript":
        "e8e872f22dd295f43bd94d876d4d5518bd36de67276da1f45b5343c6627b81be",
    "simulate-complementary-4.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-complementary-5.report":
        "89b32d553f403340e594c8afba704c03bde633d04960f47ffdf6b6c248a42cb1",
    "simulate-complementary-5.transcript":
        "fd118ab139f2ab1528ee5a72b7d2c7c69ac996372def8ea2cd542e1e72f47c26",
    "simulate-complementary-5.eve-transcript":
        "0f1aedaa2a0b7d22b56a7dd7097512c93d480dc007e3e82bd179fa37158abee8",
    "simulate-complementary-5.key-out":
        "dbe6fd144187090710d25663709ae765dd03572ed3e05d73f0eabda03e8b94aa",
    "simulate-complementary-9.report":
        "e7995d29ef6f6a1f219aed2c2b5b06b243e324fc8e552a3681b399e2a14c9443",
    "simulate-complementary-9.transcript":
        "bbdfdf1a8bf54e692c0c243cb2cace6ded1566c49476cdaeb7a0d3a49cf4f6c7",
    "simulate-complementary-9.eve-transcript":
        "d00c22a9be662dba6c35611ea239be989a279a578cfdd6abcdefb92b99281ed7",
    "simulate-complementary-9.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-substitute-3.report":
        "2ef88ede639642942e5f983ea2bca5fbcc8b0f551c619c4fcb7905b175be6aaf",
    "simulate-substitute-3.transcript":
        "aaa553d7ccf1d5c588c1f10b8ce5d5bbe90ba7061a5573410772cc5cf15b7cae",
    "simulate-substitute-3.eve-transcript":
        "a0dce483660c59efe9ab1600d94a7d31989e20aedc0ab10601f8fc87df2408a4",
    "simulate-substitute-3.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-substitute-4.report":
        "b8c53185d165b9b24ea26e58608861289163b5278e722b0e7d41f46d7a72a482",
    "simulate-substitute-4.transcript":
        "52748f5f083a4c2c083ead8f15fa5f7a6f75079aaf8dc3b5259ae2d9f15b4d3f",
    "simulate-substitute-4.eve-transcript":
        "64f08f12b948c9759dfcacaf21a474eef9ce0cc951b5b9c0ebbf4dfe3e0bb7ae",
    "simulate-substitute-4.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-substitute-5.report":
        "9316af654e4b952c1906d0c59b7791313d4774415261731286a6371ecb00b903",
    "simulate-substitute-5.transcript":
        "f0fc5b3462821a2859659d2ebdcaf5a5a33a66b003fae6f7c6a39f94029eb5de",
    "simulate-substitute-5.eve-transcript":
        "cd99d89d59ce51a77b0fdbf74fb827e744d01f2b52ab09a89a833195deee1dd8",
    "simulate-substitute-5.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-substitute-9.report":
        "400d0dfd6205f091cbc8015e55675459e7cfdddcf0effb038706014c24918095",
    "simulate-substitute-9.transcript":
        "affb27bb739b9259fe5ce078d7dab3605030fb138e9a5dec90c8e95712170db6",
    "simulate-substitute-9.eve-transcript":
        "dd6e83e6c78dca4a16d2a246fc028ff7d3260c9ba8b47cfcdd6fd525df28b15d",
    "simulate-substitute-9.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-intercept-3-chunks.report":
        "47c0a599d445de718ce79c8944674a7bf7e93c1808e21e24c028d8d656abe5d5",
    "simulate-intercept-3-chunks.transcript":
        "79d5afa92b7735d0d183f38c7a738ef64304bb680bb46ea7d3a1999ebe22119c",
    "simulate-intercept-3-chunks.eve-transcript":
        "b8a03895098878bfbc222e774f5e2f4363454a99bab6e602beb54db512e1f04b",
    "simulate-intercept-3-chunks.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-intercept-9-chunks.report":
        "d082c0ca6331e93fa4d3bc8d851ac26c646dbc9ba453a44ddf67954d0d6ec149",
    "simulate-intercept-9-chunks.transcript":
        "52dbd9eb9ada8351e0b32da03eb6721274cc18a949e505a3cab53835141b85be",
    "simulate-intercept-9-chunks.eve-transcript":
        "50345fd4259f4d3d8d5a788866535add4978e1b3130763fd6e9e0d0e49f58d46",
    "simulate-intercept-9-chunks.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "simulate-complementary-9-chunks.report":
        "15ad91e797b655faabcb03fca6b62b384ae38c010c2dd0d831d041853a45152e",
    "simulate-complementary-9-chunks.transcript":
        "32df79d899756d94bf7461826f186e5406fcae4a2cc866fad63a42a8e0f9582f",
    "simulate-complementary-9-chunks.eve-transcript":
        "e8f9ae84b91da877b8bbc52bd1bedfad821ba61711b9504d697b6fb44ca9652d",
    "simulate-complementary-9-chunks.key-out":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "exact-intercept-3":
        "f0244ac418fadff8da8ac8842e6b7deaf50cb1962474da777f8da7731c6ec4c1",
    "exact-intercept-4":
        "93b9e2c3d5b7abea3ed9105ffe524a192334690834ee45101e513c1d5f82c265",
    "exact-intercept-5":
        "b34a320d79dd364d89f073470b2a1f102259d1fc0b744557bb8af874c7f048d4",
    "exact-intercept-9":
        "54b6eae96b7a88053899add1251248072325cc7c28d39993b21ae9a2c5184c34",
    "exact-complementary-3":
        "12222951f97d8b5fa539e9973d018ae622d71c47498351078717e6a677989db1",
    "exact-complementary-4":
        "1d59be9e86c60ff7537e97264e9d7079947a6e6c56067f0c56d34f8659ffb4f0",
    "exact-complementary-5":
        "11f2632971417dfb227fbf9f107b977837340c259fbdadb4496671bed5d3387a",
    "exact-complementary-9":
        "dccab80c84d7b419d6bf28e495af3ff547c12659398e6596a10305ea4f3c958d",
    "exact-substitute-3":
        "78dbc95c95e50480ea5cdcd563b24760ecfcae6a94e747f36be850e14af47845",
    "exact-substitute-4":
        "bcfe6c6c5de30c52c0b0d4fe339415f90c4616c4001ff165d2fd7564c527c8c3",
    "exact-substitute-5":
        "54963d9660ccd1ec1f7142a4fe85b82bf87c0134c72fd43056082a604056a478",
    "exact-substitute-9":
        "e86a55931f4826694324021fb2a125b3842fddf181d50c6150ef6fe00003a043",
    "exact-skewed":
        "515ee52491dfd685f028156aca5a957dbeeff5fad3e8ae48cdef7da796d1d7a5",
    "sweep-intercept":
        "484837649e4b873d233e85c70240df3d1e701d4eb3baeb31f1113ea3c4af2bdd",
    "sweep-substitute":
        "2b513d7740ad3bf2d1d9fe42145096a29a47f773b80f2e50c4cf54764dbd5e89",
    "validate-3":
        "a461824d8caa940eb33c432b0fce0555a4991d518f8de9f7563d4590a5a93191",
    "validate-4":
        "d540dddd284ee23d7aab8f080ed4c5b5d4200d94ea3ea7397db4ad0295ff79da",
    "validate-5":
        "4ad46c86ab718000ec6499062ba0dbfe6ebf81a345dc98b29eb81c673da5fab8",
    "validate-9":
        "b7bf4e27be68cda9b4bf5821acb30fdbdff255597228a72f52c8146b3850712e",
    "validate-degenerate":
        "ea1522667c73d02fa3d488c4c87e8cceec5bec952c9fbfbe630b9800cb1ecc2a",
    "demo-0":
        "d82e378d95000f16c60ff9f5e8dff611d75663079bc1439006b9917ec681425a",
    "demo-5":
        "b05847d01d56aff0a146498d48c895b41dbf5c84abbaa754a4f40d057eeb0f3b",
}

GOLDEN_COUNTS: dict[str, int] = {
    "intercept-3": 320,
    "complementary-3": 311,
    "substitute-3": 133,
    "intercept-4": 293,
    "complementary-4": 302,
    "substitute-4": 104,
    "intercept-5": 261,
    "complementary-5": 264,
    "substitute-5": 82,
    "intercept-9": 241,
    "complementary-9": 221,
    "substitute-9": 41,
}

# The set files `validate --export` writes: every tile's cells, labels and
# amplitudes and every state's kets, as repr floats, so these pin the bytes
# of each construction.
EXPORT_CASES = [(f"export-{n}", ["--dim", str(n)]) for n in (3, 4, 5, 8, 9, 25)]
EXPORT_CASES.append(("export-degenerate", ["--params", DEGENERATE]))
GOLDEN_EXPORTS: dict[str, str] = {
    "export-3":
        "832c55e7556836378aec0f10aa7a6e0b3c0550c71fe9b42962def8d64c4ed1b1",
    "export-4":
        "221e4dcaa580f55cc5ff0dae690bb95c77a139a5214a429a27bfb8ff696d8418",
    "export-5":
        "a99edbd64d705867f5dbc44fac426bdb83faa9cd118b8336a8deb889d7da35bd",
    "export-8":
        "cfc3ba5f992398edc31e60888d44cad7ee8e0abc2732a440c3cd87fc8d674e82",
    "export-9":
        "4b1f979781594b021492d20fcd33a15a37edefed4e05e446183c9f3f57f5e6f9",
    "export-25":
        "a6c5dfe22784e306184056bc1edfda523ddc9fb42b6a96cce8f5b01f62d8bd7f",
    "export-degenerate":
        "2978fb4ba4ac526fe801baafc8e9494f9848d0e5b8284288df417c2d57a402fc",
}


def test_cli_outputs_match_golden_digests(tmp_path):
    got = compute_digests(tmp_path)
    assert sorted(got) == sorted(GOLDEN_DIGESTS)
    changed = sorted(name for name in got if got[name] != GOLDEN_DIGESTS[name])
    assert changed == []


def test_monte_carlo_counts_match_golden():
    assert compute_counts() == GOLDEN_COUNTS


# At n = 25 Bob's rows come from the product structure and differ in their
# last bits from joint-matrix rows far more often than at n <= 9, so these
# pin whole outcome columns there: counts of 3000 trials per attack, and the
# round transcript (Bob's label on every round) of two attacked sessions.
GOLDEN_COUNTS_25 = {"intercept": 1609, "complementary": 1643, "substitute": 136}
GOLDEN_TRANSCRIPTS_25 = {
    "complementary": "1317a579816a955a62e8970144e6c4e6a3e28201463ae007750b6a5736b01de1",
    "substitute": "c2b2e851e420a6ef60432274ba1196010fb4fecc23b202e125dfd5ec72fd026d",
}


def test_monte_carlo_counts_match_golden_at_n25():
    state_set = build_symmetric(25)
    got = {attack: monte_carlo_estimate(state_set, attack, 3000, seed=55 + k).successes
           for k, attack in enumerate(ATTACKS)}
    assert got == GOLDEN_COUNTS_25


def test_transcripts_match_golden_at_n25(tmp_path):
    got = {}
    for i, strategy in enumerate(GOLDEN_TRANSCRIPTS_25):
        path = tmp_path / strategy
        assert main(["simulate", "--dim", "25", "--strategy", strategy, "--rounds", "2500",
                     "--seed", str(61 + i), "--transcript", str(path),
                     "--output", str(tmp_path / "report")]) == 0
        got[strategy] = _digest(path.read_bytes())
    assert got == GOLDEN_TRANSCRIPTS_25


# At n = 41 the substitute attack's rows are Bob's widest on the family. One
# sha256 over the int64 columns of every chunk, in order, of 2 chunks and 37
# rounds with seed 9, per strategy.
GOLDEN_CHUNKS_41 = {
    "none": "3dc0721e0a26fedaece9ac17d563dc1fdb3cb80cc501cce0ce849dc54be0f872",
    "intercept": "e50f3768dd22627a65ef0fe65a29f5560db5c8e54daa575cc8ac5ef4f296c167",
    "complementary": "5dd02a66a373f90fffbe3cf6f9d2d6e5b0961df1052e7281bd5dee292de9cb43",
    "substitute": "eee951226250f27c6f82d1cb01f912bf941b8aeac4b8056768bc496b95736aeb",
}


def test_round_columns_match_golden_at_n41():
    state_set = build_symmetric(41)
    got = {}
    for name in STRATEGIES:
        digest = hashlib.sha256()
        for columns in round_columns(state_set, make_strategy(name, state_set), 9, 2 * CHUNK_ROUNDS + 37):
            digest.update(columns.astype("<i8").tobytes())
        got[name] = digest.hexdigest()
    assert got == GOLDEN_CHUNKS_41


# The first Philox block of a whole chunk of streams: one sha256 over the
# little-endian words, per seed, for the ids 0 .. CHUNK_ROUNDS - 1 and for the
# CHUNK_ROUNDS ids that end at 2^64 - 1, where the second key word wraps in
# the later rounds.
GOLDEN_PHILOX = {
    (0, "low"): "93fad8284bd594cae485d00b01aff059d30795dbeb609071824fcde4138ac5d6",
    (0, "high"): "2b30344853e08ef2b21f8780944a876cb93f6b4f34dcc512394d12e3c096f9d5",
    (1, "low"): "85ecd5a919d2ec09c67e2526d641738a03304afb402848e522680b47f68a0030",
    (1, "high"): "f23a0ab3b9edb91ea061c6324923d3839a95a3473b839c9b954e74d48e84eaec",
    (2**64 - 1, "low"): "2ca9e3d96539e7996281ab673610018561c6c012ed15cecebc9baadad3ea997e",
    (2**64 - 1, "high"): "84e915f63d6802e1c3cf86218554796269c237923f45998733773d271664a469",
}


def test_philox_chunks_match_golden():
    ids = {"low": np.arange(CHUNK_ROUNDS, dtype=np.uint64),
           "high": np.arange(2**64 - CHUNK_ROUNDS, 2**64, dtype=np.uint64)}
    got = {(seed, name): _digest(philox_block(seed, ids[name]).astype("<u8").tobytes())
           for seed, name in GOLDEN_PHILOX}
    assert got == GOLDEN_PHILOX


def test_exported_set_files_match_golden(tmp_path):
    got = {}
    for name, argv in EXPORT_CASES:
        path = tmp_path / name
        main(["validate", *argv, "--output", str(tmp_path / "report"), "--export", str(path)])
        got[name] = _digest(path.read_bytes())
    assert got == GOLDEN_EXPORTS


def relabelled_ring_8():
    """The family's ring tiling at n = 8 with seeded row and column
    relabellings and discrete-Fourier amplitudes, like the tilings
    `set-design` writes."""
    rng = np.random.default_rng(19)
    cellsets = [t.cells for t in build_symmetric(8).layout.tiles]
    return set_from_cellsets(8, cellsets, rng.permutation(8), rng.permutation(8))


# Set files of sets outside the family, written by `stateset_to_text`: a
# relabelled ring tiling, and a 3x3 set with a negative zero and a subnormal
# amplitude, whose repr floats must keep their sign and every digit.
TEXT_CASES = {
    "text-relabelled-ring-8": relabelled_ring_8,
    "text-signed-zero-subnormal": lambda: build_3x3(SetParameters(1, 0, 1, -0.0, 1, 0, 1, 5e-324)),
}
GOLDEN_TEXTS: dict[str, str] = {
    "text-relabelled-ring-8":
        "2ba50f9c9dbf59f455313973fe9c9a78976859e856bc5620f1b5994c0156d88a",
    "text-signed-zero-subnormal":
        "3d9e99f88454c6fbcf534ae2fe9f71800813029a3d011ec6a00c500c4675f26e",
}


def test_set_texts_match_golden():
    got = {name: _digest(stateset_to_text(build()).encode("utf-8")) for name, build in TEXT_CASES.items()}
    assert got == GOLDEN_TEXTS
