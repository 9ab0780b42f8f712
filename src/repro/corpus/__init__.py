"""Persistent corpus + coverage-guided fuzz scheduling.

The corpus subsystem turns the stateless generation engines into a
long-running service: :class:`CorpusStore` persists every seed, every
difference-inducing test, and the merged per-model coverage on disk
(content-addressed, atomically, resumably); :class:`SeedScheduler`
decides what to fuzz next by novel-coverage yield; :class:`FuzzSession`
loops campaign waves over the two, checkpointing after every wave so a
killed run resumes bit-identically.

User surface: ``python -m repro fuzz``, ``python -m repro generate
--corpus/--resume``, ``python -m repro corpus {info,merge,distill}``.
See docs/CORPUS.md.
"""

from repro.corpus.scheduler import (ENERGY_EPSILON, INITIAL_ENERGY,
                                    NOVELTY_WEIGHT, VISIT_DECAY,
                                    SeedScheduler)
from repro.corpus.session import FuzzReport, FuzzSession
from repro.corpus.store import CorpusStore, corpus_fingerprint, input_hash

__all__ = ["CorpusStore", "corpus_fingerprint", "input_hash",
           "SeedScheduler", "INITIAL_ENERGY", "VISIT_DECAY",
           "NOVELTY_WEIGHT", "ENERGY_EPSILON",
           "FuzzSession", "FuzzReport"]
