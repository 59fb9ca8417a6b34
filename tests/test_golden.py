"""Byte-identity gate: the two n=64 reference files, their seed-1 projections
and the SVG figures exported from those projections, plus the seed-1 planar
files and SVG figures of lu3 n=400 and wenger2 n=200, where most lines are
clipped.

The digests were taken from the original implementation; any change to the
boxes, the edge order, the line canonical form, the projection sampling or
the SVG clipping and number formatting shows up here as a changed digest.
"""

import hashlib

import pytest

from girthforge.cli import run

GOLDEN = {
    ("lu", 3): (
        "639f11702ade7ecbb4cd32114b2f40cd57fe839b819cb8dda37733f3c0515657",
        "6ab1717bd156926e156287f036738bdd7309bb2f68d6918803816d7a16142ea2",
        "11e331567514a913c2800ff0d78c24496125e7c2a4bb6b3252d522f30a215c08",
    ),
    ("wenger", 2): (
        "d241d9013f02ef2a7583a295d19700aea1631029c7eba0611b29510956ddaf31",
        "d809bd2e00e8d40139a4aac90511580c92790e830c156b1c535a27fefec1155e",
        "93281564cf943c909e602d0199dfb7ca356232c214ed989e05c08bfd9053175c",
    ),
}

# (planar file, SVG figure); the SVG rounds coordinates to 3 decimals, so the
# planar file pins the exact projection.
LARGER_GOLDEN = {
    ("lu", 3, 400): (
        "543179e7d594b9bc8ca4b1b07b8520b595fd14b2ccb31d720722e03e03052bf9",
        "3dd3dd30c025089ccfa655119beee10701fa9f3d43b6b3b48073d528672f76a5",
    ),
    ("wenger", 2, 200): (
        "3d3d29b105616abc98ef08cf6c11358dbadfe4953068afbd4a87f814eee7eb1e",
        "3b1d3868da7e6811e5baae06c14945f603a176bbbc5baae1e50fca382d758440",
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("family,k", GOLDEN)
def test_reference_outputs_are_byte_identical(tmp_path, family, k):
    arr, planar, svg = tmp_path / "ref.arr", tmp_path / "ref.planar", tmp_path / "ref.svg"
    assert run(["construct", "--family", family, "--k", str(k), "--n", "64", "--out", str(arr)]) == 0
    assert run(["project", "--in", str(arr), "--out", str(planar), "--seed", "1"]) == 0
    assert run(["export", "--in", str(planar), "--out", str(svg), "--format", "svg"]) == 0
    assert (sha256(arr), sha256(planar), sha256(svg)) == GOLDEN[(family, k)]


@pytest.mark.parametrize("family,k,n", LARGER_GOLDEN)
def test_larger_svg_figures_are_byte_identical(tmp_path, family, k, n):
    arr, planar, svg = tmp_path / "ref.arr", tmp_path / "ref.planar", tmp_path / "ref.svg"
    assert run(["construct", "--family", family, "--k", str(k), "--n", str(n), "--out", str(arr)]) == 0
    assert run(["project", "--in", str(arr), "--out", str(planar), "--seed", "1"]) == 0
    assert run(["export", "--in", str(planar), "--out", str(svg), "--format", "svg"]) == 0
    assert (sha256(planar), sha256(svg)) == LARGER_GOLDEN[(family, k, n)]
