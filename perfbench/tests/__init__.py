"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest perfbench/tests"""
