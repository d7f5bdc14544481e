"""Named benchmark scenes.

Three-cylinder presets share the radii (2, 1, 0.5) and a default point
source at (-20, -25); they differ only in how tightly the cylinders are
packed, which is what moves the worst-case and first-order decay envelopes
apart:

    far       centers (0,0), (12,0), (0,14); every surface gap is large and
              the worst-case envelope is already descriptive;
    moderate  centers (0,0), (6,0), (0,7); envelopes separate mildly;
    close     centers (0,0), (4,0), (0,4.5); the surface gap between the two
              largest cylinders is 1.0, under the first-order validity
              threshold, and the refined envelope is clearly the better fit;
    touching  two unit cylinders with a 1e-3 surface gap; the parallel
              reflections iteration exhibits sustained update growth here
              and is flagged divergent, while dense and GMRES still agree.
"""

from __future__ import annotations

from .scene import Cylinder, Incident, PointSource, Scene

PRESET_RADII = (2.0, 1.0, 0.5)
DEFAULT_SOURCE = (-20.0, -25.0)
# reference sweeps at or above this wavenumber sit near round-off
HIGH_WAVENUMBER = 15.0

_CENTERS = {
    "far": ((0.0, 0.0), (12.0, 0.0), (0.0, 14.0)),
    "moderate": ((0.0, 0.0), (6.0, 0.0), (0.0, 7.0)),
    "close": ((0.0, 0.0), (4.0, 0.0), (0.0, 4.5)),
}

PRESET_NAMES = ("far", "moderate", "close", "touching")


def preset_scene(name: str, wavenumber: float = 0.6,
                 incident: Incident | None = None) -> Scene:
    """Build a named preset; wavenumber and incident field are overridable."""
    if incident is None:
        incident = PointSource(location=DEFAULT_SOURCE)
    if name in _CENTERS:
        cyls = tuple(Cylinder(center, radius) for center, radius
                     in zip(_CENTERS[name], PRESET_RADII))
    elif name == "touching":
        cyls = (Cylinder((0.0, 0.0), 1.0), Cylinder((2.001, 0.0), 1.0))
    else:
        raise KeyError(f"unknown preset {name!r}; choices: "
                       + ", ".join(PRESET_NAMES))
    return Scene(cylinders=cyls, wavenumber=float(wavenumber),
                 incident=incident)
