"""Tests of the benchmark's own machinery (collected by the tier-1 run)."""
