import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from strandalg.acceptance import random_complex
from strandalg.corpus import filling_typeD, solid_torus_typeA, torus_algebra, torus_decoration
from strandalg.homalg import (
    ChainComplex,
    ChainMap,
    NotAChainMap,
    gf2_rank_dense,
    gf2_rank_sparse,
    homology_rank,
    identity_map,
    mapping_cone,
    zero_complex,
)
from strandalg.modules import box_tensor
from strandalg.strands import Algebra


def _algebra_complex(k):
    """The torus algebra as a chain complex under its own differential."""
    alg = Algebra.from_surface(torus_decoration(), k)
    diff = []
    for i in range(alg.dim):
        mask = 0
        for j in alg.diff_basis(i):
            mask ^= 1 << j
        diff.append(mask)
    return ChainComplex(tuple(f"b{i}" for i in range(alg.dim)), tuple(diff))


def _brute_force_rank(c):
    """dim ker - dim im by enumerating the whole GF(2) vector space."""
    n = c.rank
    vectors = range(1 << n)
    images = {c.apply(v) for v in vectors}
    kernel = sum(1 for v in vectors if c.apply(v) == 0)
    return (kernel.bit_length() - 1) - (len(images).bit_length() - 1)


def test_zero_differential():
    assert zero_complex(["a", "b", "c"]).homology_rank() == 3


def test_two_generator_acyclic():
    c = ChainComplex(("x", "y"), (0b10, 0))
    assert c.homology_rank() == 0


def test_d_squared_validated():
    with pytest.raises(ValueError):
        ChainComplex(("x", "y", "z"), (0b010, 0b100, 0))


def test_algebra_complex_against_brute_force():
    for k in (1, 2):
        c = _algebra_complex(k)
        assert c.homology_rank() == _brute_force_rank(c)
    assert _algebra_complex(1).homology_rank() == 8  # zero differential
    assert _algebra_complex(2).homology_rank() == 1


def test_rank_nullity():
    rng = random.Random(7)
    for _ in range(30):
        c = random_complex(rng, rng.randint(1, 5), rng.randint(0, 5))
        assert c.homology_rank() == c.rank - 2 * c.differential_rank()


def test_cone_of_identity_is_acyclic():
    c = _algebra_complex(2)
    assert mapping_cone(identity_map(c)).homology_rank() == 0


def test_cone_of_zero_map():
    a = zero_complex(["a", "b"])
    b = zero_complex(["c", "d", "e"])
    cone = mapping_cone(ChainMap(a, b, (0, 0)))
    assert cone.homology_rank() == 5


def test_cone_of_rank_one_map():
    a = zero_complex(["a", "b"])
    b = zero_complex(["c", "d"])
    cone = mapping_cone(ChainMap(a, b, (0b01, 0)))
    assert cone.homology_rank() == 2


def test_chain_map_must_commute():
    a = ChainComplex(("x", "y"), (0b10, 0))
    b = zero_complex(["u"])
    with pytest.raises(NotAChainMap):
        ChainMap(a, b, (0, 0b1))  # sends the boundary y somewhere d cannot


@pytest.mark.parametrize(
    "row", [1 << 3, 1 << 6, 1 << 6 | 1, -1, -(1 << 2)], ids=["bit-n", "bit-2n", "bit-2n-and-0", "minus-1", "minus-4"]
)
def test_rows_out_of_range_are_rejected(row):
    # n = 3 generators: a row may set bits 0..2 only
    labels = ("x", "y", "z")
    with pytest.raises(ValueError, match=re.escape("differential of generator 1 out of range")):
        ChainComplex(labels, (0, row, 0))
    with pytest.raises(NotAChainMap, match=re.escape("matrix row 1 out of range")):
        ChainMap(zero_complex(labels), zero_complex(labels), (0, row, 0))


def test_cone_keeps_its_own_checks():
    a = ChainComplex(("x", "y"), (0b10, 0))
    b = zero_complex(["u"])
    with pytest.raises(NotAChainMap, match="fails to commute on generator 0"):
        mapping_cone(ChainMap(a, b, (0, 0b1)))
    # a matrix that skips the chain-map check still meets the cone's d^2 check
    unchecked = object.__new__(ChainMap)
    for name, value in (("source", a), ("target", b), ("matrix", (0, 0b1))):
        object.__setattr__(unchecked, name, value)
    with pytest.raises(ValueError, match="differential does not square to zero"):
        mapping_cone(unchecked)


def _induced_rank(f):
    """Rank of H(f) by brute force over kernel classes."""
    src, tgt, m = f.source, f.target, f.matrix

    def span(vectors):
        return gf2_rank_dense(list(vectors))

    kernel = [v for v in range(1 << src.rank) if src.apply(v) == 0]
    im_d = [tgt.apply(1 << i) for i in range(tgt.rank)]

    def push(v):
        out = 0
        i = 0
        while v:
            if v & 1:
                out ^= m[i]
            v >>= 1
            i += 1
        return out

    base = span(im_d)
    return span(im_d + [push(v) for v in kernel]) - base


def test_long_exact_sequence_identity_and_bound():
    rng = random.Random(11)
    trials = 0
    while trials < 40:
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        src = ChainComplex(
            tuple(f"s{i}" for i in range(2 * na)),
            tuple(rng.getrandbits(na) << na for _ in range(na)) + (0,) * na,
        )
        tgt = ChainComplex(
            tuple(f"t{i}" for i in range(2 * nb)),
            tuple(rng.getrandbits(nb) << nb for _ in range(nb)) + (0,) * nb,
        )
        matrix = []
        for i in range(src.rank):
            while True:
                row = rng.getrandbits(tgt.rank)
                try:
                    ChainMap(src, tgt, tuple(matrix + [row] + [0] * (src.rank - i - 1)))
                except NotAChainMap:
                    continue
                matrix.append(row)
                break
        f = ChainMap(src, tgt, tuple(matrix))
        cone = mapping_cone(f)
        hf = _induced_rank(f)
        rs, rt, rc = src.homology_rank(), tgt.homology_rank(), cone.homology_rank()
        assert rc == rs + rt - 2 * hf  # exactness of the long sequence
        assert abs(rc - rs - rt) % 2 == 0 and abs(rc - rs - rt) <= 2 * hf
        trials += 1


def test_sparse_and_dense_elimination_agree():
    rng = random.Random(3)
    for _ in range(50):
        rows = [rng.getrandbits(40) for _ in range(rng.randint(1, 30))]
        assert gf2_rank_dense(rows) == gf2_rank_sparse(rows)


def test_elimination_past_eight_thousand_generators():
    """The box complex of the q = 2731 filling has 3q + 2 = 8195 generators;
    its rank is q by the pairing theorem."""
    alg = torus_algebra()
    c = box_tensor(solid_torus_typeA(alg), filling_typeD(2731, alg))
    assert c.rank == 8195
    assert c.homology_rank() == 2731
    assert gf2_rank_dense(c.differential) == gf2_rank_sparse(c.differential)


def test_to_json_output():
    """to_json writes the labels and the sorted (generator, boundary term)
    pairs; nothing parses it back."""
    c = ChainComplex(("a", "b", "c"), (0b110, 0, 0))
    assert c.to_json() == '{"differential": [[0, 1], [0, 2]], "generators": ["a", "b", "c"]}'


def test_homology_rank_function():
    c = _algebra_complex(2)
    assert homology_rank(c) == c.homology_rank()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=5), st.randoms())
def test_cone_identity_acyclic_property(na, nb, rng):
    c = random_complex(rng, na, nb)
    assert mapping_cone(identity_map(c)).homology_rank() == 0
