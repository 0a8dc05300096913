"""Deciding whether a motion is planar with a PCA plane fit.

The fitting error sigma3/(sigma1+sigma2+sigma3) of the point covariance is 0
for perfectly flat clouds and 1/3 for isotropic ones.  Motions below the
5e-2 threshold are treated as planar and handled in 2-D after projection.
"""

import numpy as np

from trajkf import fit_plane, project_to_plane, TimedTrajectory
from trajkf.merit import DEFAULT_F_ERROR


def classify(name, points):
    result = fit_plane(points, DEFAULT_F_ERROR)
    verdict = "planar" if result.is_planar else "non-planar"
    print(f"  {name:<28} fitting error {result.fitting_error:8.5f}  -> {verdict}")
    return result


def main():
    rng = np.random.default_rng(0)
    t = np.linspace(0, 2 * np.pi, 400, endpoint=False)

    print(f"threshold f_error = {DEFAULT_F_ERROR}")
    classify("flat circle (z = 0)",
             np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)]))

    # a tilted plane is still a plane
    tilted = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    rot = np.array([[1, 0, 0],
                    [0, np.cos(0.9), -np.sin(0.9)],
                    [0, np.sin(0.9), np.cos(0.9)]])
    classify("tilted circle", tilted @ rot.T)

    classify("shallow helix (pitch 0.1)",
             np.column_stack([np.cos(t), np.sin(t), 0.1 * t]))

    t3 = np.linspace(0, 6 * np.pi, 1200)
    pitch = np.sqrt(6) / (6 * np.pi)
    classify("balanced helix (3 turns)",
             np.column_stack([np.cos(t3), np.sin(t3), pitch * t3]))

    classify("isotropic cloud", rng.normal(size=(4000, 3)))

    print()
    print("Projecting the tilted circle onto its fitted plane recovers the")
    print("original 2-D geometry:")
    traj = TimedTrajectory(tilted @ rot.T, 60.0)
    flat = project_to_plane(traj, fit_plane(traj.points))
    radii = np.linalg.norm(flat.points - flat.points.mean(axis=0), axis=1)
    print(f"  projected radii: {radii.min():.9f} .. {radii.max():.9f} (true 1.0)")


if __name__ == "__main__":
    main()
