"""Exact workbench for total Roman domination and edge-criticality; import from its modules."""
