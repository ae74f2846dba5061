"""Differential oracles: transparent second implementations the suite
compares ``repro`` against.  Nothing under ``src/`` imports from here."""
