"""gridtopo: rebuild a directed transmission-network model from open data.

The pipeline ingests a CSV family describing substations, lines,
generators, planning areas, city borders, population points, and area
loads; assigns a direction to every line; disaggregates area load to a
per-bus demand index; attributes generation to reachable buses; and
solves a flow-conservation LP for line loadings. Renderings and
scenario diffs sit on top.

Each name has one import path, its submodule, for example
``from gridtopo.ingest import load_dataset``.
"""

__version__ = "0.1.0"
