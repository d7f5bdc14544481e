"""Scene description: circular obstacles, a wavenumber, and an incident field.

A scene is a set of disjoint sound-soft (Dirichlet) circular cylinders hit by
either a plane wave exp(i k beta.x) with propagation angle beta_hat or a point
source (i/4) H_0^(1)(k |x - x0|).  Scenes are immutable.  Geometry derived
from them (center distances, pair angles, source distances) is not stored:
each consumer calls `pairwise_geometry` again, so a sweep computes it once for
its geometry check and then three times per wavenumber, in `assemble_system`,
`gamma1` and `gamma2`, plus once in `breakdown_check` with `--first-order`.

Scene files are YAML:

    cylinders:
      - center: [0.0, 0.0]
        radius: 2.0
    wavenumber: 0.6
    incident:
      type: point            # or "plane"
      location: [-20.0, -25.0]   # point only
      # angle: 0.0               # plane only (radians)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import yaml

from .errors import SceneValidationError

# tangency guard: centers must be farther apart than the radius sum by this
OVERLAP_SLACK = 1e-12


@dataclass(frozen=True)
class Cylinder:
    center: tuple[float, float]
    radius: float


@dataclass(frozen=True)
class PlaneWave:
    """Plane wave exp(i k beta.x); angle is the propagation direction (rad)."""
    angle: float


@dataclass(frozen=True)
class PointSource:
    """Point source (i/4) H_0^(1)(k |x - location|)."""
    location: tuple[float, float]


Incident = Union[PlaneWave, PointSource]


@dataclass(frozen=True)
class Scene:
    cylinders: tuple[Cylinder, ...]
    wavenumber: float
    incident: Incident

    @property
    def n_cylinders(self) -> int:
        return len(self.cylinders)

    def centers(self) -> np.ndarray:
        return np.array([c.center for c in self.cylinders], dtype=np.float64)

    def radii(self) -> np.ndarray:
        return np.array([c.radius for c in self.cylinders], dtype=np.float64)


@dataclass(frozen=True)
class PairGeometry:
    """Derived geometry: distances d[p,q], angles theta[p,q] of O_q - O_p,
    and (for point sources) distances d_source[p] and angles theta_source[p]
    of x0 - O_p."""
    distances: np.ndarray
    angles: np.ndarray
    source_distances: np.ndarray | None
    source_angles: np.ndarray | None


def validate_scene(scene: Scene) -> list[str]:
    """Check hard preconditions; return the violations (empty if none).

    Violations (overlap/tangency, nonpositive radius or wavenumber, a source
    inside an obstacle, empty scene) make the scene unusable.  Interior
    Dirichlet eigenvalues (J_m(k a_p) = 0) are not a concern: the
    preconditioned system divides only by H_m(k a_p), which has no real zeros.
    The wavenumber violation comes first, then those of geometry_violations.
    """
    return wavenumber_violations(scene.wavenumber) + geometry_violations(scene)


def wavenumber_violations(wavenumber: float) -> list[str]:
    """The wavenumber's violation, if it is not finite and > 0."""
    if not np.isfinite(wavenumber) or wavenumber <= 0.0:
        return [f"wavenumber must be > 0, got {wavenumber}"]
    return []


def geometry_violations(scene: Scene) -> list[str]:
    """The violations of everything validate_scene checks but the
    wavenumber: cylinders, their overlaps and the incident field.  A sweep
    checks these once, and each of its wavenumbers apart."""
    if scene.n_cylinders == 0:
        return ["scene has no cylinders"]
    violations = []
    for p, c in enumerate(scene.cylinders):
        if not np.isfinite(c.radius) or c.radius <= 0.0:
            violations.append(f"cylinder {p + 1}: radius must be > 0, got {c.radius}")
        if not all(np.isfinite(v) for v in c.center):
            violations.append(f"cylinder {p + 1}: center is not finite")
    if violations:
        return violations

    geom = pairwise_geometry(scene)
    radii = scene.radii()
    d = geom.distances
    touch = np.triu(d <= radii[:, None] + radii[None, :] + OVERLAP_SLACK, 1)
    for p, q in zip(*np.nonzero(touch)):
        violations.append(
            f"cylinders {p + 1} and {q + 1} overlap or touch "
            f"(distance {d[p, q]:.6g} <= radius sum {radii[p] + radii[q]:.6g})")

    if isinstance(scene.incident, PointSource):
        if not np.all(np.isfinite(scene.incident.location)):
            violations.append("point source location is not finite")
        else:
            ds = geom.source_distances
            for p in np.flatnonzero(ds <= radii + OVERLAP_SLACK):
                violations.append(
                    f"point source lies inside cylinder {p + 1} "
                    f"(distance {ds[p]:.6g} <= radius {radii[p]:.6g})")
    elif isinstance(scene.incident, PlaneWave):
        if not np.isfinite(scene.incident.angle):
            violations.append("plane wave angle is not finite")
    else:
        violations.append(f"unknown incident field {type(scene.incident).__name__}")

    return violations


def require_valid(scene: Scene) -> None:
    """Raise SceneValidationError if the scene breaks a hard precondition."""
    violations = validate_scene(scene)
    if violations:
        raise SceneValidationError("; ".join(violations))


def pairwise_geometry(scene: Scene) -> PairGeometry:
    """Distances and angles between centers, and to the source if present.

    angles[p, q] is the polar angle of O_q - O_p, so
    angles[q, p] = angles[p, q] + pi (mod 2 pi).  Diagonal entries are zero
    and never read.
    """
    centers = scene.centers()
    dx = centers[:, 0][None, :] - centers[:, 0][:, None]
    dy = centers[:, 1][None, :] - centers[:, 1][:, None]
    distances = np.hypot(dx, dy)
    angles = np.arctan2(dy, dx)
    np.fill_diagonal(angles, 0.0)
    src_d = src_a = None
    if isinstance(scene.incident, PointSource):
        x0 = np.asarray(scene.incident.location, dtype=np.float64)
        vx = x0[0] - centers[:, 0]
        vy = x0[1] - centers[:, 1]
        src_d = np.hypot(vx, vy)
        src_a = np.arctan2(vy, vx)
    return PairGeometry(distances, angles, src_d, src_a)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def scene_to_dict(scene: Scene) -> dict:
    d = {
        "cylinders": [
            {"center": [float(c.center[0]), float(c.center[1])],
             "radius": float(c.radius)}
            for c in scene.cylinders
        ],
        "wavenumber": float(scene.wavenumber),
    }
    if isinstance(scene.incident, PlaneWave):
        d["incident"] = {"type": "plane", "angle": float(scene.incident.angle)}
    else:
        d["incident"] = {"type": "point",
                         "location": [float(scene.incident.location[0]),
                                      float(scene.incident.location[1])]}
    return d


def scene_from_dict(d: dict) -> Scene:
    try:
        cyls = tuple(
            Cylinder(center=(float(c["center"][0]), float(c["center"][1])),
                     radius=float(c["radius"]))
            for c in d["cylinders"]
        )
        k = float(d["wavenumber"])
        inc = d["incident"]
        kind = inc["type"]
        if kind == "plane":
            incident: Incident = PlaneWave(angle=float(inc["angle"]))
        elif kind == "point":
            incident = PointSource(location=(float(inc["location"][0]),
                                             float(inc["location"][1])))
        else:
            raise SceneValidationError(f"unknown incident type {kind!r}")
    except SceneValidationError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise SceneValidationError(f"malformed scene description: {exc}") from exc
    return Scene(cylinders=cyls, wavenumber=k, incident=incident)


def dumps_scene(scene: Scene) -> str:
    return yaml.safe_dump(scene_to_dict(scene), sort_keys=False)


def loads_scene(text: str) -> Scene:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SceneValidationError(f"malformed scene file: {exc}") from exc
    if not isinstance(data, dict):
        raise SceneValidationError("scene file does not contain a mapping")
    return scene_from_dict(data)


def load_scene(path) -> Scene:
    """The scene in a YAML file; a malformed file, or one that is not UTF-8
    text, raises SceneValidationError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SceneValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return loads_scene(text)
    except SceneValidationError as exc:
        raise SceneValidationError(f"{path}: {exc}") from exc
