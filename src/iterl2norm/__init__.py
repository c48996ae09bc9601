"""Iterative, division-free L2/layer normalization with bit-exact floating
point format emulation, baselines, and a macro latency model."""

__version__ = "0.1.0"
