"""The repo benchmark: four workloads timed from outside ``src/repro``.

``perf/run.py`` is the entry point; ``perf/README.md`` is the glossary.
Nothing here is imported by the library, and nothing here edits it: every
number is taken by calling a layer's public function and reading the clock
around the call.
"""
