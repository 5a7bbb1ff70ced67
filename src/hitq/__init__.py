"""GF(2) workbench for the hit problem, group invariants, and the transfer.

No submodule is imported here: ``from hitq import hit`` loads what hit needs.
"""

__version__ = "0.1.0"
