"""Desk-scale simulator for 1T ferroelectric-FET memory arrays.

Two array flavors are modeled — the conventional AND array and a
complementary variant with per-column bulk lines that splits the write
path (gate-bulk) from the read path (drain-source) — together with the
hysteresis of the storage layer, bias-scheme disturb auditing, a resistive
array read solver, and power/area analytics.
"""

__version__ = "0.1.0"
