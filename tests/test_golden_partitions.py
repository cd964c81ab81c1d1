"""Golden partitions: the SHA-256 of every partition on a fixed grid of
(pipeline, table, k, t) cells, stored from a reference run. A change that
moves any record to another cluster, or reorders the clusters, fails here.

Each digest covers the clusters in partition order, each as its size followed
by its ascending member indices (little-endian int64). The stored table is
printed by

    PYTHONPATH=src python tests/test_golden_partitions.py

and should only be regenerated for a change that means to alter partitions.
"""

import functools
import hashlib

import numpy as np
import pytest

from tcmicro import (
    AttributeSpec,
    Role,
    SynthConfig,
    Table,
    mdav_partition,
    minmax_params,
    run_kfirst_algorithm,
    run_merge_algorithm,
    run_tfirst_algorithm,
    synth_generate,
)

PIPELINES = {
    "merge": run_merge_algorithm,
    "kfirst": run_kfirst_algorithm,
    "tfirst": run_tfirst_algorithm,
}
GRID_K = (2, 5)
GRID_T = (0.05, 0.2)
N_EQUALS_K_T = 0.2
# tfirst cells whose working size k' is even and does not divide n, so both
# central subsets carry extra records
EVEN_SPLIT_CELLS = (
    "tfirst/ties/k8/t0.2",
    "tfirst/ties9/k8/t0.2",
    "tfirst/synth9-s1-n300/k8/t0.2",
)

SPECS = (
    AttributeSpec("a", Role.QUASI_IDENTIFIER),
    AttributeSpec("b", Role.QUASI_IDENTIFIER),
    AttributeSpec("s", Role.CONFIDENTIAL),
)


@functools.lru_cache(maxsize=None)
def tables() -> dict:
    out = {}
    for seed in (1, 2):
        for n in (37, 300):
            cfg = SynthConfig(n=n, qi_count=2, target_correlation=0.52, seed=seed)
            out[f"synth-s{seed}-n{n}"] = synth_generate(cfg)
    rng = np.random.default_rng(5)
    # 16 distinct QI points and 5 confidential values over 60 records
    ties = np.column_stack([rng.integers(0, 4, (60, 2)), rng.integers(0, 5, 60)])
    out["ties"] = Table(SPECS, ties.astype(float))
    const = rng.uniform(0, 10, (50, 3))
    const[:, 1] = 3.0
    out["const-qi"] = Table(SPECS, const)
    out["dup-rows"] = Table(SPECS, np.tile(rng.uniform(-5, 5, (15, 3)), (4, 1)))
    # 9 QIs, so a squared distance sums 9 terms: every row is a column
    # permutation of one of 4 integer rows, which ties many distances exactly
    # in real arithmetic but not always in floating point
    rng = np.random.default_rng(9)
    base = rng.integers(0, 4, (4, 9))
    qi = np.array([base[rng.integers(4)][rng.permutation(9)] for _ in range(70)])
    specs9 = tuple(AttributeSpec(f"q{j}", Role.QUASI_IDENTIFIER) for j in range(9))
    out["ties9"] = Table(
        specs9 + (AttributeSpec("s", Role.CONFIDENTIAL),),
        np.column_stack([qi, rng.integers(0, 5, 70)]).astype(float),
    )
    cfg = SynthConfig(n=300, qi_count=9, target_correlation=0.52, seed=1)
    out["synth9-s1-n300"] = synth_generate(cfg)
    return out


def cells() -> list[str]:
    out = []
    for name, table in tables().items():
        for k in GRID_K + (table.n,):
            out.append(f"mdav/{name}/k{k}")
            for t in GRID_T if k < table.n else (N_EQUALS_K_T,):
                out.extend(f"{p}/{name}/k{k}/t{t}" for p in PIPELINES)
    return out + list(EVEN_SPLIT_CELLS)


def digest(partition) -> str:
    h = hashlib.sha256()
    for cluster in partition.clusters:
        h.update(np.int64(len(cluster)).tobytes())
        h.update(cluster.members.astype("<i8").tobytes())
    return h.hexdigest()


def partition_of(cell: str):
    pipeline, name, k, *t = cell.split("/")
    table, k = tables()[name], int(k[1:])
    if pipeline == "mdav":
        return mdav_partition(table, minmax_params(table), k)
    return PIPELINES[pipeline](table, k, float(t[0][1:]))[1]


GOLDEN = {
    "mdav/synth-s1-n37/k2": "57c7a4d04b306dafc158711c100f24dd90087c0c96247d821ebd65518b9a4643",
    "merge/synth-s1-n37/k2/t0.05": "195dbccba93fd272f6170e628e1be3ba70fcc32291f92571b03e129f07051063",
    "kfirst/synth-s1-n37/k2/t0.05": "1736a6214ef24e9146792a13a0d0e60be2af0b1efafb6b94783f90706e5d09fd",
    "tfirst/synth-s1-n37/k2/t0.05": "a56f67dabfa37440421d69fa5691edf53fdce769986741894768a4eba501b2cc",
    "merge/synth-s1-n37/k2/t0.2": "399845870a2046253c3bc2019efd5cc9a7f7cb4043081a6c603a3f4189e2db40",
    "kfirst/synth-s1-n37/k2/t0.2": "040527e6ad891d6ff7cf99811bd94f5ea2821cf5ec5eeabe35d60a32f25dde52",
    "tfirst/synth-s1-n37/k2/t0.2": "c154fe50b60327dc3f477b933b157a328dc472320049334b452725f9a688a16f",
    "mdav/synth-s1-n37/k5": "40553fe8998447d81b1d6ba3abc98dda5d95feb83a4843f6ac0b974e48da2580",
    "merge/synth-s1-n37/k5/t0.05": "195dbccba93fd272f6170e628e1be3ba70fcc32291f92571b03e129f07051063",
    "kfirst/synth-s1-n37/k5/t0.05": "d198505423691ecce380f499d87cbedd697252d95398c30abfe64e65597d1555",
    "tfirst/synth-s1-n37/k5/t0.05": "a56f67dabfa37440421d69fa5691edf53fdce769986741894768a4eba501b2cc",
    "merge/synth-s1-n37/k5/t0.2": "40553fe8998447d81b1d6ba3abc98dda5d95feb83a4843f6ac0b974e48da2580",
    "kfirst/synth-s1-n37/k5/t0.2": "40553fe8998447d81b1d6ba3abc98dda5d95feb83a4843f6ac0b974e48da2580",
    "tfirst/synth-s1-n37/k5/t0.2": "dbf0044e6766de5360966a5a27498fd752046c024c5260ec0bf602775e639b9a",
    "mdav/synth-s1-n37/k37": "195dbccba93fd272f6170e628e1be3ba70fcc32291f92571b03e129f07051063",
    "merge/synth-s1-n37/k37/t0.2": "195dbccba93fd272f6170e628e1be3ba70fcc32291f92571b03e129f07051063",
    "kfirst/synth-s1-n37/k37/t0.2": "195dbccba93fd272f6170e628e1be3ba70fcc32291f92571b03e129f07051063",
    "tfirst/synth-s1-n37/k37/t0.2": "195dbccba93fd272f6170e628e1be3ba70fcc32291f92571b03e129f07051063",
    "mdav/synth-s1-n300/k2": "6f04d8d0e1946ea7213f36105a03e7a4b5216ed2c10bf3e5cb029ffcf7d618e5",
    "merge/synth-s1-n300/k2/t0.05": "5886ceb059b19ef90a6ac8a0c5da4fd2677d0ba32888d55742e4e7e33479bce4",
    "kfirst/synth-s1-n300/k2/t0.05": "9afb3ef31159aa195b3669a0ff77377d34bc3b6698fb2bd9e3e0bc82b88c8bcc",
    "tfirst/synth-s1-n300/k2/t0.05": "5d6f113e5549d2264554078f5b97dfd50ac923678967cab72d60f25abba201e1",
    "merge/synth-s1-n300/k2/t0.2": "980138e4eccc6652e125c5b3a3a229d60f3e579e3f3474f9b37dec0c0b9e09f5",
    "kfirst/synth-s1-n300/k2/t0.2": "49d6ccfbdadbbb1b9b9d831725eaf8f966a8257913370878156081f5fffcc49f",
    "tfirst/synth-s1-n300/k2/t0.2": "ace8ba9aadb68f26b27a730b0d6423ba1ffc42beb58c124f0496e56d9b27a076",
    "mdav/synth-s1-n300/k5": "851f5bfb767dfd98c4e12920a3c98e1aa758bebbe96f1791e83330984aea35f0",
    "merge/synth-s1-n300/k5/t0.05": "b790c5cb0de1b9f8773d993c99fe4fe5e8b93f7d7ea6c63067f838c03a746ec3",
    "kfirst/synth-s1-n300/k5/t0.05": "b7a6e5c565d5449c42457a076fb98bc9252c2e884f06dddc19f3c5f289bc9f26",
    "tfirst/synth-s1-n300/k5/t0.05": "5d6f113e5549d2264554078f5b97dfd50ac923678967cab72d60f25abba201e1",
    "merge/synth-s1-n300/k5/t0.2": "d375b3cb7ac259a925bd43bab658418df8d319718c9639cf1e9d51d9694eb2ce",
    "kfirst/synth-s1-n300/k5/t0.2": "54dd8a6c000b3966f931873fc89f4704e9d1045f9de6972befc42081bc35fa4d",
    "tfirst/synth-s1-n300/k5/t0.2": "8429ba3c8e5877140d5942a76940da94c6a8a28ccde37a776dfb6cea53a2c4f1",
    "mdav/synth-s1-n300/k300": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "merge/synth-s1-n300/k300/t0.2": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "kfirst/synth-s1-n300/k300/t0.2": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "tfirst/synth-s1-n300/k300/t0.2": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "mdav/synth-s2-n37/k2": "dd60c1df5b647e43444ea62f90b3df6648afc580f00534ab7a5addb5dc37a22c",
    "merge/synth-s2-n37/k2/t0.05": "e96c4f8fc0292e8d19b24afcc0e35b91c60c3fdfa4b3529935d3af89362ec247",
    "kfirst/synth-s2-n37/k2/t0.05": "0c0cf9c3dd933cb2cc768bfe1ba6d4d761a36b551185cb746172782df560d9b7",
    "tfirst/synth-s2-n37/k2/t0.05": "dfcd6019240556c081825cff8ef71189ecabd69ea5a53f6613ae6f6b35cdca59",
    "merge/synth-s2-n37/k2/t0.2": "5c54d9adfc2debf9276b2545e16e900042731f1166aac6a46be1a6eb73ead667",
    "kfirst/synth-s2-n37/k2/t0.2": "89f53affd78afd5d080dc4c37d3396853b17ee10055f6fc9d024362f3465956d",
    "tfirst/synth-s2-n37/k2/t0.2": "240fd881831bf1aaf31ad3760169c6cc6e2a5b58d014a1af4f4d29f0cdb0c6a5",
    "mdav/synth-s2-n37/k5": "889515dc3c3087fe8102cb26bac39283dcd2d316ecc7fdc37b61578b976591ce",
    "merge/synth-s2-n37/k5/t0.05": "195dbccba93fd272f6170e628e1be3ba70fcc32291f92571b03e129f07051063",
    "kfirst/synth-s2-n37/k5/t0.05": "9f9807c1f0c6d8e034af5d7fb611eaa8264994d2f63920c095f49139572953bf",
    "tfirst/synth-s2-n37/k5/t0.05": "dfcd6019240556c081825cff8ef71189ecabd69ea5a53f6613ae6f6b35cdca59",
    "merge/synth-s2-n37/k5/t0.2": "657778099f5e6119a9f08fd51a5ec3c6a7c2cf3d3cf6fa2de2b019bcb7dc124a",
    "kfirst/synth-s2-n37/k5/t0.2": "d91eff2674eaf361ff70d4a69cc255214616be71b0b2b1029069d5c8cd1c2c59",
    "tfirst/synth-s2-n37/k5/t0.2": "2cfffefcb4ae8eba402d27fe0240819eb3d35c85488b7c2faed60fd7f2a05166",
    "mdav/synth-s2-n37/k37": "195dbccba93fd272f6170e628e1be3ba70fcc32291f92571b03e129f07051063",
    "merge/synth-s2-n37/k37/t0.2": "195dbccba93fd272f6170e628e1be3ba70fcc32291f92571b03e129f07051063",
    "kfirst/synth-s2-n37/k37/t0.2": "195dbccba93fd272f6170e628e1be3ba70fcc32291f92571b03e129f07051063",
    "tfirst/synth-s2-n37/k37/t0.2": "195dbccba93fd272f6170e628e1be3ba70fcc32291f92571b03e129f07051063",
    "mdav/synth-s2-n300/k2": "18034bb18413b66fb2db29f319d83f79ceacb233656461fab26d3335d4520d3c",
    "merge/synth-s2-n300/k2/t0.05": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "kfirst/synth-s2-n300/k2/t0.05": "e739798bfaab15461347e592c07cdfd2a103b4c127f50d9f0f63e2af486c274f",
    "tfirst/synth-s2-n300/k2/t0.05": "f01f2cbd1344b494c67646a03d8eec4993a7f3673a8f16d354f438a3bf530751",
    "merge/synth-s2-n300/k2/t0.2": "f6147376d84242e5469e6839691ed93b312d5cb2bedc29be3c5fdc28d352efc7",
    "kfirst/synth-s2-n300/k2/t0.2": "0df0eb1a79004434f56841ae8c02c50db701160c3aa9428743ff6daae6c47c8c",
    "tfirst/synth-s2-n300/k2/t0.2": "ea1b22af82bb7dd333583d47b6fb4159f3cdfbd2d1d946c6bf1a05528c7b8ab8",
    "mdav/synth-s2-n300/k5": "809dbaa46f24ac12571facf61434b4f5687cb00350f05e56ed8d51469ace10eb",
    "merge/synth-s2-n300/k5/t0.05": "94e38dd24dc0075ba0505d1077c6faa370f9295f0c1ae46db4d18597399911e1",
    "kfirst/synth-s2-n300/k5/t0.05": "fd3a433d165543d803085d1835f6aad4feec8dd4016b13085a0088ff6b5218ad",
    "tfirst/synth-s2-n300/k5/t0.05": "f01f2cbd1344b494c67646a03d8eec4993a7f3673a8f16d354f438a3bf530751",
    "merge/synth-s2-n300/k5/t0.2": "4df11316135f1de4b8b65104ae871ffc3bd50ceb582eeac42398ff43267bd361",
    "kfirst/synth-s2-n300/k5/t0.2": "03e7c1fc9604b9cf235bda7bcb9222da7631c8077c874af313da954dc26ece99",
    "tfirst/synth-s2-n300/k5/t0.2": "9fc6d657e3d7d265184bbd28a357c71ce4b7ad9048983617a962a971b053be4f",
    "mdav/synth-s2-n300/k300": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "merge/synth-s2-n300/k300/t0.2": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "kfirst/synth-s2-n300/k300/t0.2": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "tfirst/synth-s2-n300/k300/t0.2": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "mdav/ties/k2": "7be72b976cbf12fe468a980a1f51bc7047916412d7ededcae50e129a81da3966",
    "merge/ties/k2/t0.05": "9762e36200a085d7a63a8a396c7611fdb71e045278d96107e9926f47ff311498",
    "kfirst/ties/k2/t0.05": "5d402689b5409ea0e0f45306b54fbb46f808de349894e7104ca3d9e0df48c98c",
    "tfirst/ties/k2/t0.05": "d94a26fed4146dac4fa6e028ce0eca0fde8d32c781be0540e9cf8ef4903974fe",
    "merge/ties/k2/t0.2": "18aa5713a97c56a02fd634885a8d8b70f270de21e8b4a2cfb440b1fe28681cec",
    "kfirst/ties/k2/t0.2": "32c2deaef54ec6a2fef62b67fa5926fb6d74cf0c6b3f3748fe62ebc8b77b8d71",
    "tfirst/ties/k2/t0.2": "8174a40eba2cb40e9b677fbd057d04b109bc498a9c2f278086b91180f4fa92a4",
    "mdav/ties/k5": "62e4014028569e7afaa9d4c276e323a718ce93433815284269658b677d40d630",
    "merge/ties/k5/t0.05": "d5dd8d55301a1ff9ea9be127846befe1c6377af8e88f3719596b6f03d232b28a",
    "kfirst/ties/k5/t0.05": "4beeb9b199d00ae9f658ba3e187f105c118106e2e75a7677798e4d338b07e9d8",
    "tfirst/ties/k5/t0.05": "d94a26fed4146dac4fa6e028ce0eca0fde8d32c781be0540e9cf8ef4903974fe",
    "merge/ties/k5/t0.2": "a21659068806ef54d0495f71638076799d23d857ff099fac14e05ffc6e8a1a2c",
    "kfirst/ties/k5/t0.2": "b1bc86c96f551dff387738923da101718af90a746931bae5c3eac4dc7ee3eeda",
    "tfirst/ties/k5/t0.2": "fd6a90bb6157808780968b0779ba5b31ae16909618ab7a75055553a1458e944f",
    "mdav/ties/k60": "56c001136166518294cf28d87bdc1f3089e2cf3dc6d1ae64aada6b25d619c686",
    "merge/ties/k60/t0.2": "56c001136166518294cf28d87bdc1f3089e2cf3dc6d1ae64aada6b25d619c686",
    "kfirst/ties/k60/t0.2": "56c001136166518294cf28d87bdc1f3089e2cf3dc6d1ae64aada6b25d619c686",
    "tfirst/ties/k60/t0.2": "56c001136166518294cf28d87bdc1f3089e2cf3dc6d1ae64aada6b25d619c686",
    "mdav/const-qi/k2": "4d99400cdf2231e26fe94e3f8b426d0de90d42c2baeb9100c9aaf99d1db3c3d1",
    "merge/const-qi/k2/t0.05": "8653118acc059c327624129fc5fb3dba256769130658382280b6748080b8d2e4",
    "kfirst/const-qi/k2/t0.05": "8653118acc059c327624129fc5fb3dba256769130658382280b6748080b8d2e4",
    "tfirst/const-qi/k2/t0.05": "c7d145c626cb4a7d50d877e9085c3a5f472c8600afea290f665c7cc750d52d16",
    "merge/const-qi/k2/t0.2": "cf44d9171f377030298261d110e05f924b0e21f94fe8568290cbd0e63bc00dc3",
    "kfirst/const-qi/k2/t0.2": "0c1f7d916a352d8d3ed634f64f0b117fe0109f31caaef71d82253763966a09e1",
    "tfirst/const-qi/k2/t0.2": "a8ee612381afacbbe7fdf90999f57429da37221c3cf6e6d77591611b0c53885d",
    "mdav/const-qi/k5": "4174e09d46ff5ccd3ebfd4bb5c52894e2aa1ed0527d88624d2186c0ac38a0043",
    "merge/const-qi/k5/t0.05": "3a9483ff13a4227d40538189b9dfb35f71b2ad630cb458d56cfdc6bf11d69640",
    "kfirst/const-qi/k5/t0.05": "ae002ad7ff87195f554e3e51da18b86a389742becc59493280f2028b4974b457",
    "tfirst/const-qi/k5/t0.05": "c7d145c626cb4a7d50d877e9085c3a5f472c8600afea290f665c7cc750d52d16",
    "merge/const-qi/k5/t0.2": "53ed34924511554f30a32bbcacae39a67421cfec521505d72d10071d84f63e48",
    "kfirst/const-qi/k5/t0.2": "481e223ca45bd26511495da6628768105e3bd3c15513d3de920a5c22ac66b1f5",
    "tfirst/const-qi/k5/t0.2": "14fce5b782585f418d2db697318e9fb4e8ecab66aeff0d646a98a70f69a0baaf",
    "mdav/const-qi/k50": "8653118acc059c327624129fc5fb3dba256769130658382280b6748080b8d2e4",
    "merge/const-qi/k50/t0.2": "8653118acc059c327624129fc5fb3dba256769130658382280b6748080b8d2e4",
    "kfirst/const-qi/k50/t0.2": "8653118acc059c327624129fc5fb3dba256769130658382280b6748080b8d2e4",
    "tfirst/const-qi/k50/t0.2": "8653118acc059c327624129fc5fb3dba256769130658382280b6748080b8d2e4",
    "mdav/dup-rows/k2": "7b3081ec22eabb4a7a2d3b4641b3a59e42b79d9810fd101ba0489050a7de8e02",
    "merge/dup-rows/k2/t0.05": "56c001136166518294cf28d87bdc1f3089e2cf3dc6d1ae64aada6b25d619c686",
    "kfirst/dup-rows/k2/t0.05": "56c001136166518294cf28d87bdc1f3089e2cf3dc6d1ae64aada6b25d619c686",
    "tfirst/dup-rows/k2/t0.05": "a84c0dcfd08ad057ceb4cba121dbf837dd6e1d759a3c1118074cb2b9c5c41b24",
    "merge/dup-rows/k2/t0.2": "ce801e41b24220c5d8f94c1709d3e04dd7e5ed4a6b4be8934139534bcb95eab4",
    "kfirst/dup-rows/k2/t0.2": "43ab30ca4ecea94a8d3fefd30b915fe9623283273d1342b7d0626a580be920ad",
    "tfirst/dup-rows/k2/t0.2": "39c606d60d6c1a37ccd9c19cefe8b80231d96d4a54f413130840d0483df0a68c",
    "mdav/dup-rows/k5": "acb949ddb6113736db8ab60d32f66e6040f3d4fa6b0a6380ef1d32e14581d31b",
    "merge/dup-rows/k5/t0.05": "56c001136166518294cf28d87bdc1f3089e2cf3dc6d1ae64aada6b25d619c686",
    "kfirst/dup-rows/k5/t0.05": "be78868927aa56155a65d0f86ab8b820b7bc83b611910684bbe850dca14498de",
    "tfirst/dup-rows/k5/t0.05": "a84c0dcfd08ad057ceb4cba121dbf837dd6e1d759a3c1118074cb2b9c5c41b24",
    "merge/dup-rows/k5/t0.2": "9a9468a1a1f301b05b35f09ae7fc1c45ed7069410223670c1cebf221365e665b",
    "kfirst/dup-rows/k5/t0.2": "e4c35f914ed80654144622685db8a3a40f8435ee0c0ef5265f21c8abc2292c5a",
    "tfirst/dup-rows/k5/t0.2": "77d62cece242915e6d6b9379e73620ee650630a1fc13fa4727b98fa3693c2c4b",
    "mdav/dup-rows/k60": "56c001136166518294cf28d87bdc1f3089e2cf3dc6d1ae64aada6b25d619c686",
    "merge/dup-rows/k60/t0.2": "56c001136166518294cf28d87bdc1f3089e2cf3dc6d1ae64aada6b25d619c686",
    "kfirst/dup-rows/k60/t0.2": "56c001136166518294cf28d87bdc1f3089e2cf3dc6d1ae64aada6b25d619c686",
    "tfirst/dup-rows/k60/t0.2": "56c001136166518294cf28d87bdc1f3089e2cf3dc6d1ae64aada6b25d619c686",
    "mdav/ties9/k2": "254c9972e38ac7402591e5b5954d6500415979cc80fff4b463a9d5768e3d22d6",
    "merge/ties9/k2/t0.05": "bf986b02c18d600a96e473860180a09f71d072923461cead6d3ae1caf0dcf6d1",
    "kfirst/ties9/k2/t0.05": "6cd343abca829cebe93ef78f855d579ac3ecbe08a47b77c1e021ae542ad0ad83",
    "tfirst/ties9/k2/t0.05": "f85600f2e942189033d244b6170b65f169a21858ccc7e084b5fe38269309014a",
    "merge/ties9/k2/t0.2": "595a80b2d1c7f01743e7808361f80db4f1b098627585e07a56ca5212aaaef71e",
    "kfirst/ties9/k2/t0.2": "7320f831c01f9a1831741f5135a5e3929b7de97f53fed94d33122abe465a1219",
    "tfirst/ties9/k2/t0.2": "27b321458d3d2e37438259b72a3fc6df5727be93e9e677e6bc85c2d0fb1ed2d6",
    "mdav/ties9/k5": "53b585bf5d03ca030c023b30d257e74c7615db9c1517a43b1f7431ee5c5c107c",
    "merge/ties9/k5/t0.05": "2b21df54c7b3db395d890294aac0507091aed47e1922345f20a3a653dc39093c",
    "kfirst/ties9/k5/t0.05": "c62c0fbce16633734aa084c0871ee8dfb0f4521fd5e214739de8dde5708309f4",
    "tfirst/ties9/k5/t0.05": "f85600f2e942189033d244b6170b65f169a21858ccc7e084b5fe38269309014a",
    "merge/ties9/k5/t0.2": "2d8740f0b40de57a4f2dd1f81fe98809bcb7c840f4ee78e0084b281be64f7e91",
    "kfirst/ties9/k5/t0.2": "1527fcff58799fff50a67848fded9949fc4c71f168b6c04cdf6b671a16a9aef3",
    "tfirst/ties9/k5/t0.2": "04da578238071a3adda61cc081bc5b58479e47b10e2e19e671e43795d5b4bd9d",
    "mdav/ties9/k70": "a97e6d07fc49f5821cc97ad5558fe2a037fa6261369b171d8586744fb7844305",
    "merge/ties9/k70/t0.2": "a97e6d07fc49f5821cc97ad5558fe2a037fa6261369b171d8586744fb7844305",
    "kfirst/ties9/k70/t0.2": "a97e6d07fc49f5821cc97ad5558fe2a037fa6261369b171d8586744fb7844305",
    "tfirst/ties9/k70/t0.2": "a97e6d07fc49f5821cc97ad5558fe2a037fa6261369b171d8586744fb7844305",
    "mdav/synth9-s1-n300/k2": "1e43dd5003da09fc127b912236f8136a6c6b54ebf477fdd62e462404dff2dcdd",
    "merge/synth9-s1-n300/k2/t0.05": "f32620bf450a88b1e7054970b3b41c60b81302618d180b888615743e5ca76c42",
    "kfirst/synth9-s1-n300/k2/t0.05": "2bda77d1564350a67c1b559617584fc817d1fcd5fdd094f628fa8dfc67eff002",
    "tfirst/synth9-s1-n300/k2/t0.05": "a32445c441a324c94f9b2a865ff21c231257b7182e8013def95e057faf3e629b",
    "merge/synth9-s1-n300/k2/t0.2": "4a4a7634b974b04d7198fc128a3a7894ffd941f14f6ebe343457a3fc0217e479",
    "kfirst/synth9-s1-n300/k2/t0.2": "dada5d7d8d3b36b0956d5725bfc5d36158a0c5a3554bd862e7c0ad152044bcdc",
    "tfirst/synth9-s1-n300/k2/t0.2": "1121b8fef75979ca2fcf809df66acc70764fbae911b444753b18a9a6222b0e78",
    "mdav/synth9-s1-n300/k5": "ec9bdcc730b67b58ac0aa5009a539241e6f4091891bed4de8527c0c7aa23bdd0",
    "merge/synth9-s1-n300/k5/t0.05": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "kfirst/synth9-s1-n300/k5/t0.05": "103ae5181a7e914d4ac712f0114ab64c5cfc305619ac2d40202788f6b492aa04",
    "tfirst/synth9-s1-n300/k5/t0.05": "a32445c441a324c94f9b2a865ff21c231257b7182e8013def95e057faf3e629b",
    "merge/synth9-s1-n300/k5/t0.2": "3e5d0eab739e6e15852b031a40b82e012bba7f92229c3b99cee6e29dae73d2c8",
    "kfirst/synth9-s1-n300/k5/t0.2": "0abb25b709174f5bd6446356179ea8e10b1d624dcefa1d69f3cddedc9e3b2907",
    "tfirst/synth9-s1-n300/k5/t0.2": "38486b6156f641785483bfeb69027e1b08901a225df1bd5799840d02b5b36f53",
    "mdav/synth9-s1-n300/k300": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "merge/synth9-s1-n300/k300/t0.2": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "kfirst/synth9-s1-n300/k300/t0.2": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "tfirst/synth9-s1-n300/k300/t0.2": "938cbf36425c24b462c9cd12237de757f3cb7df18bc42f3fbab62235867a7934",
    "tfirst/ties/k8/t0.2": "3807bc3813e9fa102ba21677dbf24d26f78da6de02c0fef1447df3c836bdd572",
    "tfirst/ties9/k8/t0.2": "97d4c903c8198dd46c6f859e351db9f4504d37b26018589632830475aa82609e",
    "tfirst/synth9-s1-n300/k8/t0.2": "f368b52f7b641ba9995c23f632dd6efb0d134582c61cdc3fc543f28bd4ce3c69",
}


def test_grid_is_complete():
    assert sorted(GOLDEN) == sorted(cells())


@pytest.mark.parametrize("cell", cells())
def test_partition_matches_golden(cell):
    assert digest(partition_of(cell)) == GOLDEN[cell]


if __name__ == "__main__":
    print("GOLDEN = {")
    for cell in cells():
        print(f'    "{cell}": "{digest(partition_of(cell))}",')
    print("}")
