"""The frozen dataclasses that hold NumPy arrays compare and hash by
identity: a generated == would compare the arrays, whose truth value is
ambiguous (ValueError), and a generated hash would hash them (TypeError)."""

import numpy as np
import pytest

from cayleyheat.continuum import HyperboloidPoint, SpherePoint
from cayleyheat.groups import FiniteAbelianGroup, GroupFunction
from cayleyheat.heat import CayleyWeights, GeneralGraph
from cayleyheat.lattices import Lattice, LatticeHom, pushforward

Z4 = FiniteAbelianGroup((4,))


def _hom():
    return LatticeHom(Lattice(np.eye(1)), Z4, (Z4.residues_of(1),))


MAKERS = {
    "Lattice": lambda: Lattice(np.eye(2)),
    "LatticeHom": _hom,
    "PushforwardResult": lambda: pushforward(_hom()),
    "GroupFunction": lambda: GroupFunction(Z4, np.arange(4.0)),
    "CayleyWeights": lambda: CayleyWeights(Z4, GroupFunction(Z4, np.array([0, 1.0, 0, 1.0]))),
    "GeneralGraph": lambda: GeneralGraph(np.ones((3, 3)) - np.eye(3)),
    "SpherePoint": lambda: SpherePoint(np.array([0, 0, 1.0])),
    "HyperboloidPoint": lambda: HyperboloidPoint(np.array([1.0, 0, 0, 0])),
}


@pytest.mark.parametrize("name", MAKERS)
def test_equality_and_hash_are_identity(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a)
    assert {a, b, a} == {a, b} and len({a, b}) == 2
