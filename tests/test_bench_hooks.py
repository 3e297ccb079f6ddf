"""The benchmark's tracer (bench/tracing.py) patches odlc names from outside
the package. A refactor that deletes or moves one of them fails here, in
the tier-1 suite, and not only when the benchmark runs.
"""

import sys
from pathlib import Path

from odlc import codec, evaluation, trainer

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def test_tracer_installs_and_restores_its_hooks():
    def hooks():
        return (codec.compress, evaluation.compress, evaluation.decompress, evaluation.roundtrip,
                codec.progressive_from_normalized, trainer.progressive_from_normalized,
                codec.CodecParams.__init__)
    before = hooks()
    with tracing.Tracer().installed():
        assert all(a is not b for a, b in zip(hooks(), before))
    assert hooks() == before
