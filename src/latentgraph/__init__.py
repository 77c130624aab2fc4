"""End-to-end differentiable population-graph learning.

Learns a weighted patient-similarity graph jointly with a graph
convolutional node classifier on top of a small reverse-mode autodiff
engine, and ships the synthetic graph-recovery study used to validate
the graph-learning stage.
"""

from . import autodiff, data_io, gcn, graph_learning, synthetic, training

__version__ = "0.1.0"
