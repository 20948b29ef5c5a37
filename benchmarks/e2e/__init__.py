"""End-to-end TRE benchmark: publish → encrypt → fetch+verify → decrypt.

See ``README.md`` in this directory for the workloads, metrics and the
layer map; ``python3 benchmarks/e2e --help`` for the command line.
"""
