"""Full-grid reference render of one scene view, used as a test oracle.

render_full_grid solves every primitive at every pixel, then takes the
nearest hit and the first primitive that reaches it. depthpocs.scene's
_render_view solves a rippled plane only where a bound says it may be the
nearest surface; the two must agree bit for bit, in depth, in primitive id
and in the error they raise.
"""

from __future__ import annotations

import numpy as np

from depthpocs import scene
from depthpocs.errors import InvalidSceneError
from depthpocs.geometry import CameraParams


def render_full_grid(
    spec: scene.SceneSpec, cam: CameraParams, ripple: scene._Ripple | None
) -> tuple[np.ndarray, np.ndarray]:
    k, tx = cam.k, cam.t[0]
    cols = (np.arange(spec.width, dtype=np.float64) - k[0, 2]) / k[0, 0]
    rows = (np.arange(spec.height, dtype=np.float64) - k[1, 2]) / k[1, 1]
    u, v = np.broadcast_arrays(cols[np.newaxis, :], rows[:, np.newaxis])
    layers = []
    for prim in spec.primitives:
        if isinstance(prim, scene.Plane):
            layers.append(scene._plane_hits(prim, u, v, tx, ripple))
        elif isinstance(prim, scene.Box):
            layers.append(scene._box_hits(prim, u, v, tx))
        else:
            raise InvalidSceneError(f"unknown primitive type {type(prim).__name__}")
    if not layers:
        raise InvalidSceneError("scene has no primitives")
    stack = np.stack(layers)
    prim_id = np.argmin(stack, axis=0)
    depth = np.min(stack, axis=0)
    if not np.all(np.isfinite(depth)):
        n = int(np.count_nonzero(~np.isfinite(depth)))
        raise InvalidSceneError(f"{n} pixels not covered by any primitive")
    if np.any(depth <= 0) or np.any(depth > 255):
        raise InvalidSceneError("scene depths must stay inside (0, 255]")
    return depth, prim_id
