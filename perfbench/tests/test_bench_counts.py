"""Count metrics come from the objects the calls return, not from the inputs."""

from types import SimpleNamespace

import numpy as np
import pytest

from traced import Pipeline


class Canned:
    """Probe that returns a fixed object per call name instead of calling."""

    def __init__(self, results):
        self.results = results
        self.calls = []

    def __call__(self, name, fn, args, kwargs, parent):
        self.calls.append(name)
        return self.results.get(name), len(self.calls)


def test_gflops_follow_the_solved_matrix_shape():
    # the cloud claims 3 scatterers; the system actually solved is 7 x 7
    system = SimpleNamespace(matrix=np.zeros((7, 7)),
                             cloud=SimpleNamespace(M=3, regime=object()))
    p = Pipeline(Canned({"foldy.solve": "solution"}))
    assert p.solve(system) == "solution"
    assert p.counts["foldy.solve.gflops_computed"] == pytest.approx(8 * 7**3 / 3e9)
    assert p.probe.calls == ["foldy.solve", "foldy.invertibility_report"]


def test_coupling_blocks_follow_the_assembled_bie_system():
    # 5 spheres in the input cloud, but the returned system holds 3 spheres
    # of (L+1)^2 = 4 coefficients each: 3 * 2 coupling blocks
    L = 1
    bie_system = SimpleNamespace(matrix=np.zeros((12, 12)), L=L)
    quad = SimpleNamespace(points=np.zeros((2, 3)))
    cloud = SimpleNamespace(M=5, radii=np.full(5, 0.01))
    wave = SimpleNamespace(kappa=1.0, theta=np.array([0.0, 0.0, 1.0]))
    settings = SimpleNamespace(kind="bie", L=L, quad_order=4)
    p = Pipeline(Canned({"analysis.oracle_farfield": ("grid", 0.0, None),
                         "oracle.assemble_bie": bie_system,
                         "spherical.sphere_quadrature": quad}))
    p.oracle_farfield(cloud, wave, np.zeros((1, 3)), settings, None)
    assert p.counts["oracle.coupling_blocks"] == 6

