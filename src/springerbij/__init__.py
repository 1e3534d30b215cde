"""Four families counted by the Springer numbers, the explicit bijections
linking them, and independent counting oracles that cross-check everything
by exhaustion at desk scale.

The modules are the API; import them, not names from this package root:
`permcore` < `paths` < `families` < `bijections` < `verify` < `cli`, each
layer importing only those before it (and `errors`). So importing a layer
loads that layer and the ones below it, nothing more.
"""

__version__ = "0.1.0"
