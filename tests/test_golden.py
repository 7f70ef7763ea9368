"""Byte-level regression pins for the builders, the schemes and the
routing baseline.

The sha256 digests below were recorded from the v1 network and code
files.  Any change to labels, edge order, in-edge order or matrix
entries changes a digest; a refactor must leave every one of them as is.
"""

import hashlib
import itertools
import json

import pytest

from sumnets.analysis import routing_code
from sumnets.coding import code_to_json, scheme_merged, scheme_n1, scheme_n2, unroll_merged
from sumnets.constructions import (
    IN_SET,
    RateTarget,
    build_bottleneck2,
    build_for_rate,
    build_n1,
    build_n2,
    k_copy_merge,
)
from sumnets.network import SOURCE, TERMINAL, serialize

NETWORKS = {
    ("n1", 1, 2): "5b1e1631a51e1852de6cd80f9c432da9556af6a969b816c715e6cbd8acf19048",
    ("n1", 1, 3): "f75f0f2cb38d16811d4ccb21f5b67b6befe5de58c78860b067f07b615400a1c5",
    ("n1", 1, 6): "522b618d767e150250f64a26bab526cded0b3edfdba169dea667f1e9807f0d59",
    ("n1", 2, 2): "0ea9ad3d56751a3327575e8df728dfcf0c5478118d488be09dc49c9a2bff2b20",
    ("n1", 2, 3): "fdff62aab790e2916fef6a6c8df6406acd1ce9ddf376cb3303d4a58e188c4812",
    ("n1", 2, 6): "dc5b40c29b180d3ccd6933ea43e1c2a362f1a50a09bf652c116fe966056131ba",
    ("n1", 3, 2): "5dc567eb06b15a062ae01c42d470dce8251f6f7c34f4260671677a1b1524e7f4",
    ("n1", 3, 3): "9cde12010ee6e5876cf1489187ed8e52b9a6281fc07e7ba42abd651087d46b1b",
    ("n1", 3, 6): "02da83d3e60aa094edc10573369cb56468ed1c1b484c6b44f54fac975a9bedb7",
    ("n2", 1, 2): "bb1be65c708f2e57d1992379f524d8c4a1656ec50ac14694390f2445f2a3e63c",
    ("n2", 1, 3): "56dea99283b244c9bb2b46aff52fc5dc38880d8514ecda0a9506c5c33a990846",
    ("n2", 1, 6): "12276658cc0c974ba3f4e4619b8840e4ca09e920c5f8e345e5ccd328082bf148",
    ("n2", 2, 2): "54b2397d3ccf5df9a64bda04b704fd8f986497a5e78726c30e35166e478ca3d6",
    ("n2", 2, 3): "95712287ad3a7101727707cae2bd41d4fcf1566b3ee20728f270bde8fe870fe9",
    ("n2", 2, 6): "0dfbedfc02283575fd61eef09d10081953f1597639aff934c8cf38bdc2627adc",
    ("n2", 3, 2): "9e51373d1e103e20d4feb26dcf60de9e31708cfb2a4c4105820a7c1cd7eff255",
    ("n2", 3, 3): "2f440e9c623ef9e7fcd6c67d915133b2f0925b3fa22d3f6c1247fd3d3610c916",
    ("n2", 3, 6): "9398ab677a4c0b50d6187712c1dbcbaf2322081902e00246415e80c2797292a7",
}
CODES = {
    ("n1", 1, 2, 2): "b3f4dc7204486e3b4cc6855107077f21c47b7f551b01e1ddeae956056e246221",
    ("n1", 1, 3, 3): "455982aa2333a05bb55df1a7e9236c555b63a966fc087b53e2f096f4d4dfe3e0",
    ("n1", 1, 6, 2): "398e0c3f133a00bebfb11dbc26d54ba0ffee3bbf8c0d7a4c3b58f16fea802427",
    ("n1", 1, 6, 3): "2e5c1ac4a23ed8d4843d46e0dce79f17fd0747301e05b768d69ae4078147f1b0",
    ("n1", 2, 2, 2): "95c6571acc21c449ac843fe5364a7ad05e8a4d84771687c8fd79bd77a4a6a3a2",
    ("n1", 2, 3, 3): "bd3386051aeca8e45d04478770af7ef9f0523692cecae743b5c1eeea78a09308",
    ("n1", 2, 6, 2): "471c62fb04a55109fdc9586424f4b349d9fa5bb8506a1ef5848531eda50c4b52",
    ("n1", 2, 6, 3): "e72f10964fc8db984effa069c80a3e65d7dc6c8d1a9c8d74d3e7297d3b98b9f3",
    ("n1", 3, 2, 2): "8d8eb5c3089478080f518ec58e6a30ab687a6e120dd4629d71530a29ea92e56b",
    ("n1", 3, 3, 3): "c248067a7b27a9f1ce10c57ce35646a7356fea9a053048fbf932b763f8c38e10",
    ("n1", 3, 6, 2): "4265faae60be2f535e1cef3d2d624d1df165191f09ea3cd440fcf0271f22f6cc",
    ("n1", 3, 6, 3): "ecbfb8be6677ad69541dfb4943bd6db1b3f052b07d7740507779c72fab5a7be6",
    ("n2", 1, 2, 3): "e66ccb75df70fbf9a4d59307d4ed5dd83e4475a2df15c096e72fb8e395404481",
    ("n2", 1, 2, 5): "fc52d5da89f2ab5fa13bf7a8362b33e945c1d941e5e0ef4a61877bc3523875da",
    ("n2", 1, 3, 2): "c8d5a3a96c5478105863c1a910ac5f8465d3bd86240d76f96682d3b806bb898f",
    ("n2", 1, 3, 5): "f12fc932292353236747988caa9233de3b5803fd73bc8dc418b9144eb8d5f187",
    ("n2", 1, 6, 5): "03b5ffdb6731c728769b9a9096e94103879955e5d507190863ef7a75f1908a75",
    ("n2", 2, 2, 3): "bb0ec396f6b0eaf915a6d9ab611face78e365e9680632722239eac75a18eb2f4",
    ("n2", 2, 2, 5): "18d69f931b2610ada86de7215fc6f7a1190c1205b71b30d21cfbbf31a1735eba",
    ("n2", 2, 3, 2): "5504a03ba7bc2a462d4e97b3b4be5e8db3349d2876db8a4d48c26fceedea3986",
    ("n2", 2, 3, 5): "e1f21b01d26d4b48eeffdc6ef8cb311d36114f1264b27e3f578b5eed42f573e9",
    ("n2", 2, 6, 5): "91b6e15f6434a0de3a5b0e85b593d0a45a187e5ae8656e20f7fa38170ed45a49",
    ("n2", 3, 2, 3): "aba492f6409ee6ff14a0f3508ebb7bdd0a211e0084a4ac761982f4d81299e317",
    ("n2", 3, 2, 5): "951854153e1bdd634161defd979dfee87b8f02571bde5daf30fe3a2b7a022907",
    ("n2", 3, 3, 2): "b4b7c7da5073ed03434fa9996680a004aa7cbf25c20eb781a5f368f6c8a8c135",
    ("n2", 3, 3, 5): "9a6e46ebfac1d2b6c428a9e12aa0fdaec07a471bb755b758c07e498b7b8bd990",
    ("n2", 3, 6, 5): "89b1f62d19c6d0c4303ddc6ef3fca7356fbc22fc56face45aacaa4f26a71ce89",
}
MERGED_N1_2_2_2_2 = "b80256699745c7a2038211a88adcd361fd15a31d91d49c13580c12e5a94fc668"
# The (6,10) code on the rate-3/5 merge, the pipeline benchmark's code file.
MERGED_N1_9_2_2_3 = "bd1d4a7d14bc1f63c49e3b527e522dce630af079ec5c957412acfc0b3268a5de"
# Codes unrolled from merged schemes, (family, m, q, p, k), recorded
# before the network moved to int arrays.
UNROLLED = {
    ("n2", 2, 3, 2, 2): "6ecce6ffc5696c60d21aeefa1f23b7315628961d5fec3e4637c429a6c064de45",
    ("n1", 2, 2, 2, 3): "b16f969c0c2b1262050598f4aa5b8eae869d47da6d731626fd5d4f5057456f0b",
}
# Network files of merges and of the search oracle network, recorded
# before the network moved to int arrays.
MERGED_NETWORKS = {
    "rate 3/5 in {2}": "4d5bbca8fa71258291d5ae22123305fd9022d995ca0a2b4436f1cb4adc755304",
    "n1(2,2) x 2": "9c28e3efcfa9542c2c4e0fbdf6dd20232c570e0e555d1568b812661db684f73b",
    "n2(2,3) x 3": "492b9353ff77e612a28e6b102e00a6f293b30c156f5736c4bc907d7a075d95c8",
    "bottleneck2": "2739ba0aad590df0558a3b80a74b39ae7ca1873145404f63feb3bb8a427aca91",
}
ROUTING_CODES = {
    ("n1", 1, 2, 2): "e283db6e0aa6be82f3961e7d47c4ee3ea0efdea88e893dc09f401ed5195376ef",
    ("n1", 1, 2, 3): "1cae9eac7d930ce83c13a73975afaa63288404484470a9b1959a4fa2c625848c",
    ("n1", 1, 2, 5): "c0a47c21454cdd4ee6e1e538083ac248b912279def093fce51656f161d7b523a",
    ("n1", 1, 3, 2): "8e5146c133fcae7789bbe91a4a647f59a049f4f0740bb10737d6bef9a752f1fd",
    ("n1", 1, 3, 3): "89ebd71a7112f14b181006844fd0363485c234b1a2e4b8c3fcea99263c66439f",
    ("n1", 1, 3, 5): "77d4c658cdfff75c3eddd8250d50bf65796e73f257640146b93864982e530668",
    ("n1", 1, 6, 2): "9a6ee15569d95f3689047f4f1ecfb69c6f0401cd208ee66f9806b1cfc3b58300",
    ("n1", 1, 6, 3): "4fe7f0a29f8902a530d6321ef4e5573dec36d4a990dd172c6db0261b58712f86",
    ("n1", 1, 6, 5): "53a0ead17b0db9b9e458d80d56fc89a551cc4e157d3e12b4eeed3cdc053ec9de",
    ("n1", 2, 2, 2): "40cfbdfb5999089b6a04880dd0dbfd8034f8b705a0d9fee70afaf10e07b7e912",
    ("n1", 2, 2, 3): "345d30e3b0b18bb576b12bf4751bb489b7a88dada1455cf080cc25e684b23dc4",
    ("n1", 2, 2, 5): "71ee21fa45c92c9685eff1b0aa1ae529083b0d41492e46caeced042749b4524a",
    ("n1", 2, 3, 2): "946907fbf9860dbc0e809fa608ba0db19ea8f683a00817c360baf27ff51c77c4",
    ("n1", 2, 3, 3): "c905dd9ce55b054bd01ff0c36f0dabd325542f090fb6b1fdb2dbba5af99d802a",
    ("n1", 2, 3, 5): "95f49563dddcf8c04146977f25aa21b52e225a4a94b896140788b641f485aff8",
    ("n1", 2, 6, 2): "4c2dd8dcb5775a8c30f7a381b8c353a180f52c07fbe8a23a36376d50b1f04f5f",
    ("n1", 2, 6, 3): "f410aea32761785f895ab499a85723467bf87c727b9cdcaa5ecbe2a03c2aa2bc",
    ("n1", 2, 6, 5): "acaa1b3ddfc3da44167f700e2457b3cb3843391776a27240a84dd389fa34882f",
    ("n1", 3, 2, 2): "435fe4377a282a548efa9419e6785d14be217e876ccf690d6ab4db73e3fa836f",
    ("n1", 3, 2, 3): "b22ca56bc6a08992de3afc6370c42e655c6baa10d891e5d66c20c74da54de1ce",
    ("n1", 3, 2, 5): "a5954b9e47047b941a49872348dfa28c1d08bd0252171d6796e84be931e95312",
    ("n1", 3, 3, 2): "c6dbb0a9db4be3eedce21148a26068d7070d481110c18c15d79676beedb99b8c",
    ("n1", 3, 3, 3): "1b4b22646ddeb02fa553ceaa3f3114da03237b06eb74e50e26834702165d7b43",
    ("n1", 3, 3, 5): "f93246148785ddf3b8676ea9049a67620163ffded569b0cd77695f58689c52d5",
    ("n1", 3, 6, 2): "ea3940bac0c2c9e82fd1974e8c7439284daa5109c846058740f0840d4d311e34",
    ("n1", 3, 6, 3): "12922a8d2d74451132c3f24c5bca15dc2b4fe748d190473691b143a358d55731",
    ("n1", 3, 6, 5): "7cd3cad117b06e8bf198dbaf11dfc2fcb3d9843faa68d42f067221b9b3852c61",
    ("n2", 1, 2, 2): "0887d1acf90e5b2226d6216dcac48ae017d54577820564b4314b396755c5dda6",
    ("n2", 1, 2, 3): "bd7b7d73813a59883c14b163a2fa8594749a8cdd13632d834bd06b183f5e05b1",
    ("n2", 1, 2, 5): "78f97b8f11506332cb5e31f3c9e95757d94aeb29a3f4c57c100ccfd371d59a2f",
    ("n2", 1, 3, 2): "e62b58afab073764c093c5432f225ad0f2c1f09db17076974e97fdb935eb7a0d",
    ("n2", 1, 3, 3): "e13599169386f07bde7cce9174ef34606ef7a6fea06c73a34137eedd68b33bf1",
    ("n2", 1, 3, 5): "6c481be5e4925f65bb84a2d3e9d5952529799c0a7d089838f6d76a2df2494b43",
    ("n2", 1, 6, 2): "63dc15863b7c6beac487f5d11fc7b50a119c15e9edb8fb4acbb864c8174610a1",
    ("n2", 1, 6, 3): "c6717286b5301802753c0d377ed601cbf070360bfcc810160df800011d7984db",
    ("n2", 1, 6, 5): "b8bafdad04fe9368ab65bf6d5dd28d5cdf0ad6d82abb59ec13a387b29074174c",
    ("n2", 2, 2, 2): "082812e96cd2da1da42eea79215ae27795ae386779710e9af4e2cd39ef295eb4",
    ("n2", 2, 2, 3): "ba09f6a7da094a4bc305a0c0e4b8ebf34a31aab33bff2a01f83d73f098ab15aa",
    ("n2", 2, 2, 5): "8afdbf0f8e90af082ba5a91807414204ac9e61dc0f491c29ffd81b00f822b701",
    ("n2", 2, 3, 2): "744f15db7a5222f064199079f520dec07a78bac70cac6008c8549a227001d087",
    ("n2", 2, 3, 3): "a02db33c4c62dddbf55e752d2d5362e7cd3ed1482f7903cbf826585e9ac17349",
    ("n2", 2, 3, 5): "ca2e4543a49bbb0d310286b42357ffc121bbf98ba60524b7f0f6722e8b99f2e2",
    ("n2", 2, 6, 2): "0064f1c4c35e2f9a789b88047bdebcccadf1099fb1dd199aadf9b73baa193f78",
    ("n2", 2, 6, 3): "38717e240f173b9e003576ea7263f7bb8cea3fdaf04ea32a8589ee83e3364843",
    ("n2", 2, 6, 5): "c5c8a3b007464ab6eb7e1fd9a48c188afc46ccf94bb3c05f87363af651d0f62e",
    ("n2", 3, 2, 2): "63d69f0ea1273dca8a46e9a88f0dddc1b60966bc531b4802dc21703af2edf85d",
    ("n2", 3, 2, 3): "cf996cc6d2d0ef932deb1e3d65739723c4a9ab48711c26b89926c287828eead6",
    ("n2", 3, 2, 5): "9c4a5e8d03984f78b68f189a7406f019c3fde258c0076a3197aca244db24b12c",
    ("n2", 3, 3, 2): "89e835ae63fed58b07d04407adb4f4c5c066b2c9c03c9f7c40d0a7985813c45d",
    ("n2", 3, 3, 3): "db63e7482bc7a24ad8b3a41b00e180b6d428b25fb55a394058fe644790b6595d",
    ("n2", 3, 3, 5): "a5d8d513e0a71de7fdf7563f2af59dcd75a78c0d4f86ce48e3514acda202fb4d",
    ("n2", 3, 6, 2): "4e2b43e817eba7459f3cb23bae460171b0a798e3c214e5dc0c668bf8545de28f",
    ("n2", 3, 6, 3): "4aa09b673ccfa94efe544ff23b214a8ca847062133fb7e2510a8ad2d483566f5",
    ("n2", 3, 6, 5): "8ee743a695bd320e83d15f727d26cb47a01b1bcc79a515bfc9f30d274e4c9de6",
    ("bottleneck2", 2): "5c8fd90232897d9ca9f9f45fcdddebd9d5b545b1fe627ac624ecfa88e0acdf39",
    ("bottleneck2", 3): "dfa9b776b0634d20068d4cefbb09b77a8d31aae52f0fdc7de798497e3fe6cd33",
    ("bottleneck2", 5): "9060af3c30d80345ef64025c902512abd948f1de97b5a5dd6355f95a123ea9ed",
}
# Routing codes on k-copy merges, (family, m, q, k, p), pinned with the pad
# [1, 0, ..., 0] on every parallel direct edge.  The code now puts the pad
# on the first one (par 0) only and zero on the later ones, which no
# decoder reads, so the test puts the pad back before comparing.
MERGED_ROUTING = {
    ("n1", 2, 2, 2, 5): "0c47c8ead376be31e672ade33d83965fe71a33cc259b1298499bdf7f83aa853d",
    ("n2", 2, 3, 3, 2): "27bca8d0207c925b50e78d177aa1a9f1a88b7d948335e4ec68c2620267d236b9",
}

BUILDERS = {"n1": build_n1, "n2": build_n2}
SCHEMES = {"n1": scheme_n1, "n2": scheme_n2}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_code_pins_cover_every_cell_with_a_scheme():
    want = {
        (fam, m, q, p)
        for fam in ("n1", "n2")
        for m, q, p in itertools.product([1, 2, 3], [2, 3, 6], [2, 3, 5])
        if (q % p == 0) == (fam == "n1")
    }
    assert set(CODES) == want


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_network_bytes_pinned(key):
    family, m, q = key
    assert _sha(serialize(BUILDERS[family](m, q))) == NETWORKS[key]


@pytest.mark.parametrize("key", sorted(CODES))
def test_scheme_bytes_pinned(key):
    family, m, q, p = key
    assert _sha(code_to_json(SCHEMES[family](m, q, p))) == CODES[key]


MERGED_BUILDS = {
    "rate 3/5 in {2}": lambda: build_for_rate(RateTarget(3, 5, (2,), IN_SET))[0],
    "n1(2,2) x 2": lambda: k_copy_merge(build_n1(2, 2), 2),
    "n2(2,3) x 3": lambda: k_copy_merge(build_n2(2, 3), 3),
    "bottleneck2": build_bottleneck2,
}


@pytest.mark.parametrize("name", sorted(MERGED_NETWORKS))
def test_merged_network_bytes_pinned(name):
    assert _sha(serialize(MERGED_BUILDS[name]())) == MERGED_NETWORKS[name]


def test_merged_scheme_bytes_pinned():
    assert _sha(code_to_json(scheme_merged("n1", 2, 2, 2, 2))) == MERGED_N1_2_2_2_2
    assert _sha(code_to_json(scheme_merged("n1", 9, 2, 2, 3))) == MERGED_N1_9_2_2_3


@pytest.mark.parametrize("key", sorted(UNROLLED))
def test_unrolled_code_bytes_pinned(key):
    family, m, q, p, k = key
    unrolled = unroll_merged(scheme_merged(family, m, q, p, k), k, BUILDERS[family](m, q))
    assert _sha(code_to_json(unrolled)) == UNROLLED[key]


def test_routing_pins_cover_every_base_cell():
    want = {
        (fam, m, q, p)
        for fam in ("n1", "n2")
        for m, q, p in itertools.product([1, 2, 3], [2, 3, 6], [2, 3, 5])
    }
    want |= {("bottleneck2", p) for p in (2, 3, 5)}
    assert set(ROUTING_CODES) == want


@pytest.mark.parametrize("key", sorted(ROUTING_CODES))
def test_routing_bytes_pinned(key):
    if key[0] == "bottleneck2":
        net = build_bottleneck2()
    else:
        net = BUILDERS[key[0]](key[1], key[2])
    assert _sha(code_to_json(routing_code(net, key[-1]))) == ROUTING_CODES[key]


@pytest.mark.parametrize("key", sorted(MERGED_ROUTING))
def test_merged_routing_differs_only_on_later_parallel_direct_edges(key):
    family, m, q, k, p = key
    net = k_copy_merge(BUILDERS[family](m, q), k)
    doc = json.loads(code_to_json(routing_code(net, p)))
    pad = [1] + [0] * (doc["l"] - 1)
    later = [e for e in net.edges if e.par >= 1]
    assert later
    for e in later:
        assert net.role(e.tail) == SOURCE and net.role(e.head) == TERMINAL
        assert doc["edge_matrices"][e.label] == [0] * doc["l"]
        doc["edge_matrices"][e.label] = pad
    data = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    assert _sha(data) == MERGED_ROUTING[key]
