import importlib.util
import os

import numpy as np

from momext.extraction import CONJUGATE, AtomicMeasure
from momext.interp import ExpSumModel, ExpTerm

PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "extraction_fingerprints.py")
spec = importlib.util.spec_from_file_location("extraction_fingerprints", PATH)
extraction_fingerprints = importlib.util.module_from_spec(spec)
spec.loader.exec_module(extraction_fingerprints)

WORKLOADS = {w.name: w for w in (extraction_fingerprints.workloads.MeasureRoundTrip(),
                                 extraction_fingerprints.workloads.ExpSumRoundTrip())}


def up(x):
    return np.nextafter(x, np.inf)


class TestDigest:
    def test_every_atom_and_weight_counts_to_the_last_bit(self):
        workload = WORKLOADS["measure_roundtrip"]

        def digest(atoms, weights):
            measure = AtomicMeasure(atoms, weights, CONJUGATE)
            return extraction_fingerprints.digest(workload, measure)

        atoms, weights = [(0.5 + 0.25j, -1.0j), (0.125 + 0j, 2.0 + 0j)], [0.75, 0.25]
        base = digest(atoms, weights)
        assert digest(list(atoms), list(weights)) == base
        for nudged in ([(complex(up(0.5), 0.25), -1.0j), atoms[1]], weights), \
                      ([atoms[0], (0.125 + 0j, complex(2.0, up(0.0)))], weights), \
                      (atoms, [0.75, up(0.25)]):
            assert digest(*nudged) != base

    def test_every_term_weight_and_frequency_counts_to_the_last_bit(self):
        workload = WORKLOADS["expsum_roundtrip"]

        def digest(weight, freq):
            model = ExpSumModel(1, [ExpTerm(weight, (freq,)), ExpTerm(1.0 + 0j, (0.5j,))])
            return extraction_fingerprints.digest(workload, model)

        base = digest(0.5 - 0.5j, -0.1 + 2.0j)
        assert digest(complex(up(0.5), -0.5), -0.1 + 2.0j) != base
        assert digest(0.5 - 0.5j, complex(-0.1, up(2.0))) != base


class TestInstances:
    def test_labels_are_distinct_and_cover_both_draws_at_both_seeds(self):
        labels = [label for label, *_ in extraction_fingerprints.instances()]
        assert len(labels) == len(set(labels)) == 2 * 200 * (2 + 4)
        assert labels[0] == "measure_roundtrip seed 1 0.0 n2d3r6"
        assert labels[-1] == "expsum_roundtrip seed 7 199.3 n2r5"
