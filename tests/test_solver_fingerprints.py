import importlib.util
import os

import numpy as np

from momext.sdp import Solution

PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "solver_fingerprints.py")
spec = importlib.util.spec_from_file_location("solver_fingerprints", PATH)
solver_fingerprints = importlib.util.module_from_spec(spec)
spec.loader.exec_module(solver_fingerprints)


def solution(**changes):
    fields = dict(variables=np.array([0.5, -2.0]), primal_objective=1.0,
                  dual_objective=0.9, status="optimal", iterations=2,
                  history=[(1.5, 0.5, 0.1, 1e-3, 1e-4), (1.0, 0.9, 1e-9, 1e-9, 1e-10)],
                  steps=[(0.98, 0.97, 0.2, 0.0)])
    fields.update(changes)
    return Solution(**fields)


class TestFingerprint:
    def test_every_returned_float_counts_to_the_last_bit(self):
        base = solver_fingerprints.fingerprint(solution())
        assert base.startswith("optimal 2 ")
        assert solver_fingerprints.fingerprint(solution()) == base
        nudged = np.nextafter(0.97, 1.0)
        for changes in ({"variables": np.array([np.nextafter(0.5, 1.0), -2.0])},
                        {"history": [(1.5, 0.5, 0.1, 1e-3, 1e-4),
                                     (1.0, 0.9, 1e-9, 1e-9, np.nextafter(1e-10, 1.0))]},
                        {"steps": [(0.98, nudged, 0.2, 0.0)]}):
            assert solver_fingerprints.fingerprint(solution(**changes)) != base

    def test_covers_every_demo_and_thirty_pop_ball_solves(self):
        labels = [label for label, *_ in solver_fingerprints.solves()]
        assert len(labels) == len(set(labels)) == 4 * 2 * 2 + 30
        assert "triangle d4 enforced" in labels
        assert labels[-1] == "pop_ball seed 1 9.2 n3d2"
