"""Streaming distributionally robust decisions with anytime certificates.

Maintain, as samples arrive one by one, a decision whose worst-case
expected cost over a transport-budget ball around the running empirical
measure is certified at every moment: certificates are produced to a gap
tolerance, decisions follow inexact subgradients of the certified value,
and an optional incremental ball cover compresses the sample support.

The interface is the modules, imported by name (``drostream.runner``,
``drostream.certificates``, ``drostream.audit``, ...), and the
``drostream`` command line (``drostream.cli``); the package itself
re-exports nothing.
"""
