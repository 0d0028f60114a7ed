"""Desk-scale laboratory for false data injection attack (FDIA) detection.

Simulates a sinusoidal voltage measurement process, injects sinusoidal or
fractional-scale attacks, detects them with an adaptive Kalman filter
(passive path) and a GRU-CNN classifier (active path), and fuses both
verdicts.
"""

__version__ = "0.1.0"
