"""Symbolic expressions lowered to dataflow graphs.

:class:`Expression` trees built from :class:`Symbol` and
:class:`Constant` leaves are the symbolic front end of the pipeline:
:func:`~repro.dfg.builder.expression_to_dfg` lowers them into the DFGs
every analysis method and word-length search runs on.
"""

from repro.symbols.expression import Constant, Expression, Symbol

__all__ = [
    "Expression",
    "Symbol",
    "Constant",
]
