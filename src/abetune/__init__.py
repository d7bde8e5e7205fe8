"""Analogy-based effort estimation tuned by a multi-objective particle swarm.

Submodules:
    data     CSV loading into the scaled table of complete rows
    abe      similarity, analogy retrieval, adaptation and aggregation
    metrics  error measures, random-guess baseline, standardized accuracy
    mopso    the multi-objective particle swarm engine
    tuning   solution encoding, local/global tuning drivers
    stats    rank-sum test, win/tie/loss tallies, rank summaries
    datasets bundled benchmark tables and their column roles
    harness  experiment orchestration, reporting, CLI backend
"""

__version__ = "0.4.0"
