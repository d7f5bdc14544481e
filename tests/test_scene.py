"""Scene construction, validation, pairwise geometry and YAML round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memscat import (
    Cylinder,
    PlaneWave,
    PointSource,
    Scene,
    SceneValidationError,
    assemble_system,
    boundary_residual,
    dumps_scene,
    loads_scene,
    pairwise_geometry,
    preset_scene,
    require_valid,
    solve,
    validate_scene,
)
from memscat.cli import main
from memscat.scene import load_scene, save_scene


def two_cylinder_scene(d, r1=1.0, r2=1.0, k=0.6, incident=None):
    return Scene(
        cylinders=(Cylinder((0.0, 0.0), r1), Cylinder((d, 0.0), r2)),
        wavenumber=k,
        incident=incident or PlaneWave(angle=0.0),
    )


class TestValidation:
    def test_far_preset_is_clean(self, far_scene):
        rep = validate_scene(far_scene)
        assert rep.ok
        assert rep.violations == []

    def test_overlap_is_a_violation(self):
        rep = validate_scene(two_cylinder_scene(1.5))
        assert not rep.ok
        assert any("overlap" in v for v in rep.violations)

    def test_tangency_counts_as_overlap(self):
        rep = validate_scene(two_cylinder_scene(2.0))
        assert not rep.ok

    def test_disjointness_is_strict(self):
        # Distance exceeding the radius sum by less than the slack still fails.
        rep = validate_scene(two_cylinder_scene(2.0 + 1e-15))
        assert not rep.ok
        assert validate_scene(two_cylinder_scene(2.0 + 1e-9)).ok

    def test_nonpositive_radius(self):
        rep = validate_scene(two_cylinder_scene(4.0, r1=-1.0))
        assert not rep.ok
        assert any("radius" in v for v in rep.violations)

    def test_nonpositive_wavenumber(self):
        rep = validate_scene(two_cylinder_scene(4.0, k=0.0))
        assert not rep.ok

    def test_source_inside_cylinder(self):
        sc = two_cylinder_scene(4.0, incident=PointSource((0.5, 0.0)))
        rep = validate_scene(sc)
        assert not rep.ok
        assert any("source" in v for v in rep.violations)

    def test_source_outside_is_fine(self):
        sc = two_cylinder_scene(4.0, incident=PointSource((-3.0, 4.0)))
        assert validate_scene(sc).ok

    def test_empty_scene(self):
        rep = validate_scene(Scene((), 1.0, PlaneWave(0.0)))
        assert not rep.ok

    def test_interior_eigenvalue_is_well_conditioned(self, capsys, recwarn):
        # k a_1 = j_{0,1} (first zero of J_0) on the moderate preset.  The
        # preconditioned system divides only by H_m(k a_p), so nothing
        # degrades there: validation is silent, cond(I + A) stays near its
        # off-eigenvalue value (4.42 at k = 1.1) and the solve is as accurate.
        k = 2.404825557695773 / 2.0
        sc = preset_scene("moderate", wavenumber=k)
        assert validate_scene(sc).ok
        assert main(["validate", "moderate", "-k", repr(k)]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == [f"scene ok: 3 cylinder(s), k = {k:g}"]
        assert err == "" and len(recwarn) == 0
        op, rhs = assemble_system(sc, 20)
        assert np.linalg.cond(op.matrix) < 6.0
        res = solve(op, rhs, backend="dense")
        assert boundary_residual(sc, res.solution) < 1e-6

    def test_require_valid_raises(self):
        with pytest.raises(SceneValidationError):
            require_valid(two_cylinder_scene(1.0))
        require_valid(two_cylinder_scene(4.0))


class TestPairwiseGeometry:
    def test_documented_example(self):
        sc = two_cylinder_scene(4.0)
        geom = pairwise_geometry(sc)
        assert geom.distances[0, 1] == pytest.approx(4.0)
        assert geom.angles[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert geom.angles[1, 0] == pytest.approx(math.pi)

    def test_vertical_pair(self):
        sc = Scene((Cylinder((0.0, 0.0), 1.0), Cylinder((0.0, 3.0), 1.0)),
                   0.6, PlaneWave(0.0))
        geom = pairwise_geometry(sc)
        assert geom.angles[0, 1] == pytest.approx(math.pi / 2)

    def test_source_distance_345(self):
        sc = Scene((Cylinder((0.0, 0.0), 1.0),), 0.6,
                   PointSource((6.0, 8.0)))
        geom = pairwise_geometry(sc)
        assert geom.source_distances[0] == pytest.approx(10.0)
        assert geom.source_angles[0] == pytest.approx(math.atan2(8.0, 6.0))

    def test_plane_wave_has_no_source_entries(self):
        geom = pairwise_geometry(two_cylinder_scene(4.0))
        assert geom.source_distances is None
        assert geom.source_angles is None

    def test_angle_antisymmetry(self, moderate_scene):
        geom = pairwise_geometry(moderate_scene)
        n = moderate_scene.n_cylinders
        for p in range(n):
            for q in range(n):
                if p == q:
                    continue
                diff = geom.angles[q, p] - geom.angles[p, q]
                assert math.cos(diff) == pytest.approx(-1.0, abs=1e-12)

    def test_translation_invariance(self, moderate_scene):
        t = np.array([3.7, -1.9])
        moved = Scene(
            tuple(Cylinder((c.center[0] + t[0], c.center[1] + t[1]), c.radius)
                  for c in moderate_scene.cylinders),
            moderate_scene.wavenumber,
            PointSource((moderate_scene.incident.location[0] + t[0],
                         moderate_scene.incident.location[1] + t[1])),
        )
        g0 = pairwise_geometry(moderate_scene)
        g1 = pairwise_geometry(moved)
        assert np.allclose(g1.distances, g0.distances, atol=1e-12)
        assert np.allclose(g1.source_distances, g0.source_distances,
                           atol=1e-12)
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(g1.angles[off], g0.angles[off], atol=1e-12)

    def test_rotation_shifts_angles(self, moderate_scene):
        alpha = 0.83
        rot = np.array([[math.cos(alpha), -math.sin(alpha)],
                        [math.sin(alpha), math.cos(alpha)]])
        x0 = rot @ np.asarray(moderate_scene.incident.location)
        turned = Scene(
            tuple(Cylinder(tuple(rot @ np.asarray(c.center)), c.radius)
                  for c in moderate_scene.cylinders),
            moderate_scene.wavenumber,
            PointSource(tuple(x0)),
        )
        g0 = pairwise_geometry(moderate_scene)
        g1 = pairwise_geometry(turned)
        assert np.allclose(g1.distances, g0.distances, atol=1e-12)
        for p in range(3):
            for q in range(3):
                if p == q:
                    continue
                diff = g1.angles[p, q] - g0.angles[p, q] - alpha
                assert math.cos(diff) == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_round_trip_point_source(self, moderate_scene):
        again = loads_scene(dumps_scene(moderate_scene))
        assert again == moderate_scene

    def test_round_trip_plane_wave(self):
        sc = two_cylinder_scene(5.5, r2=0.25, k=3.0,
                                incident=PlaneWave(angle=2.1))
        assert loads_scene(dumps_scene(sc)) == sc

    def test_file_round_trip(self, tmp_path, close_scene):
        path = tmp_path / "scene.yaml"
        save_scene(close_scene, path)
        assert load_scene(path) == close_scene

    def test_rejects_unknown_incident_type(self):
        text = dumps_scene(two_cylinder_scene(4.0)).replace("plane", "spherical")
        with pytest.raises((ValueError, KeyError)):
            loads_scene(text)


coords = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
radii = st.floats(min_value=0.05, max_value=3.0,
                  allow_nan=False, allow_infinity=False)


@st.composite
def arbitrary_scenes(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    cyls = tuple(Cylinder((draw(coords), draw(coords)), draw(radii))
                 for _ in range(n))
    k = draw(st.floats(min_value=0.1, max_value=12.0,
                       allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        inc = PlaneWave(draw(st.floats(min_value=-7.0, max_value=7.0,
                                       allow_nan=False, allow_infinity=False)))
    else:
        inc = PointSource((draw(coords), draw(coords)))
    return Scene(cyls, k, inc)


class TestProperties:
    @given(arbitrary_scenes())
    @settings(max_examples=60, deadline=None)
    def test_yaml_round_trip_is_identity(self, sc):
        assert loads_scene(dumps_scene(sc)) == sc

    @given(arbitrary_scenes())
    @settings(max_examples=60, deadline=None)
    def test_geometry_is_symmetric_and_positive(self, sc):
        geom = pairwise_geometry(sc)
        assert np.allclose(geom.distances, geom.distances.T)
        assert np.all(np.diag(geom.distances) == 0.0)
        off = ~np.eye(sc.n_cylinders, dtype=bool)
        assert np.all(geom.distances[off] >= 0.0)

    @given(arbitrary_scenes(), st.floats(min_value=-20.0, max_value=20.0,
                                         allow_nan=False),
           st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_translation_leaves_distances_alone(self, sc, tx, ty):
        moved_cyls = tuple(
            Cylinder((c.center[0] + tx, c.center[1] + ty), c.radius)
            for c in sc.cylinders)
        if isinstance(sc.incident, PointSource):
            inc = PointSource((sc.incident.location[0] + tx,
                               sc.incident.location[1] + ty))
        else:
            inc = sc.incident
        moved = Scene(moved_cyls, sc.wavenumber, inc)
        g0, g1 = pairwise_geometry(sc), pairwise_geometry(moved)
        assert np.allclose(g1.distances, g0.distances, atol=1e-9)
