"""Byte-level regression pins for the builders and the schemes.

The sha256 digests below were recorded from the v1 network and code
files.  Any change to labels, edge order, in-edge order or matrix
entries changes a digest; a refactor must leave every one of them as is.
"""

import hashlib
import itertools

import pytest

from sumnets.coding import code_to_json, scheme_merged, scheme_n1, scheme_n2
from sumnets.constructions import build_n1, build_n2
from sumnets.network import serialize

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


def test_merged_scheme_bytes_pinned():
    assert _sha(code_to_json(scheme_merged("n1", 2, 2, 2, 2))) == MERGED_N1_2_2_2_2
