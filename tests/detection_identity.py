"""Print a fingerprint of symmetry detection on 87 shapes, to compare two
checkouts: a change that should keep every detection prints the same lines.

The shapes are the 30 suite shapes at the benchmark's jitter (0.002) for
run seeds 1 and 2, each detected with its spec seed, and 27 jitter-free
tables, 3/5/6 legs x box/prism/cylinder legs x round/square/pinwheel tops,
detected with seed 7. Per shape it prints the transform count, a SHA-256 of
the (transform id, source, target) list and one of the sorted unordered face
pairs; at the end, the totals and the KD query points of detection.

    python3 tests/detection_identity.py > identity.txt

Pytest does not collect it (no ``test_`` prefix). One run takes about
25 s on one x86-64 core.
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import benchenv  # noqa: E402,F401  (before numpy: BLAS threads, import path)
from shapes import jittered  # noqa: E402

from matseg import symmetry  # noqa: E402
from matseg.symmetry import detect_symmetries, symmetry_pairs  # noqa: E402
from matseg.synth import SynthSpec, benchmark_suite, generate  # noqa: E402


def identity_shapes():
    """(name, spec, detection seed) of every shape of the set."""
    for run_seed in (1, 2):
        for index, spec in enumerate(benchmark_suite()):
            spec = jittered(spec, run_seed, index)
            yield f"suite{run_seed}-{index}", spec, spec.seed
    for legs in (3, 5, 6):
        for leg_shape in ("box", "prism", "cylinder"):
            for top_shape in ("round", "square", "pinwheel"):
                spec = SynthSpec(category="table", legs=legs, leg_shape=leg_shape, top_shape=top_shape,
                                 materials={"top": ["wood"], "leg": ["metal"]}, seed=7)
                yield f"table-{legs}-{leg_shape}-{top_shape}", spec, 7


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def main():
    queried = []

    class CountingTree(symmetry.cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(x.size // 3)  # points of a (n, 3) or (S, n, 3) query
            return super().query(x, *args, **kwargs)

    symmetry.cKDTree = CountingTree
    shapes = transforms = face_pairs = kd = 0
    for name, spec, seed in identity_shapes():
        mesh = generate(spec)
        queried.clear()
        syms = detect_symmetries(mesh, seed=seed)
        kd += sum(queried)  # detection's queries only, not symmetry_pairs'
        entries = [(s.transform_id, s.source_component, s.target_component) for s in syms]
        pairs = sorted((min(p.face_a, p.face_b), max(p.face_a, p.face_b)) for p in symmetry_pairs(mesh, syms))
        n = len({s.transform_id for s in syms})
        shapes += 1
        transforms += n
        face_pairs += len(pairs)
        print(f"{name} transforms={n} entries={digest(entries)} pairs={len(pairs)}:{digest(pairs)}", flush=True)
    print(f"shapes={shapes} transforms={transforms} face_pairs={face_pairs} kd_query_points={kd}")


if __name__ == "__main__":
    main()
