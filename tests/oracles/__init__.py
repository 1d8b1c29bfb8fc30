"""Frozen scalar reference implementations used only by parity tests."""
