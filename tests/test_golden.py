"""Byte-identity gate: the two n=64 reference files and their seed-1 projections.

The digests were taken from the original implementation; any change to the
boxes, the edge order, the line canonical form or the projection sampling
shows up here as a changed digest.
"""

import hashlib

import pytest

from girthforge.cli import run

GOLDEN = {
    ("lu", 3): (
        "639f11702ade7ecbb4cd32114b2f40cd57fe839b819cb8dda37733f3c0515657",
        "6ab1717bd156926e156287f036738bdd7309bb2f68d6918803816d7a16142ea2",
    ),
    ("wenger", 2): (
        "d241d9013f02ef2a7583a295d19700aea1631029c7eba0611b29510956ddaf31",
        "d809bd2e00e8d40139a4aac90511580c92790e830c156b1c535a27fefec1155e",
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("family,k", GOLDEN)
def test_reference_outputs_are_byte_identical(tmp_path, family, k):
    arr, planar = tmp_path / "ref.arr", tmp_path / "ref.planar"
    assert run(["construct", "--family", family, "--k", str(k), "--n", "64", "--out", str(arr)]) == 0
    assert run(["project", "--in", str(arr), "--out", str(planar), "--seed", "1"]) == 0
    assert (sha256(arr), sha256(planar)) == GOLDEN[(family, k)]
