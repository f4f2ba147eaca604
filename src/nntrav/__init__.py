"""Greedy nearest-neighbor traversal: worst-case families, failure simulation, games, trees."""
