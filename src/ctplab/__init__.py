"""Exact laboratory for Canadian Traveler constructions.

The package builds road networks with unreliable edges in three
flavors (independent statuses, statuses coupled through a dependency
net, and statuses that can be sensed remotely), prices reference
policies on them in exact rational arithmetic, and verifies optimality
by exhaustive search. The headline constructions turn quantified
formulas and vertex cover questions into such networks and come with
closed-form cost certificates.

Names are imported from the submodules: `ctplab.model`, `ctplab.gadgets`,
`ctplab.policy`, `ctplab.solve`, `ctplab.reductions` and `ctplab.cli`.
"""

__version__ = "0.1.0"
