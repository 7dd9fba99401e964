"""A single-process application around arbitrary dialect C source.

The ``csource`` app kind of sweeps and the design ``repro synth``
synthesizes: the process's first stream parameter is fed and the second
drained (a lone stream parameter is drained).
"""

from __future__ import annotations

from repro.runtime.taskgraph import Application


def build_csource_app(params: dict) -> Application:
    """Build from plain params: ``source`` plus optional ``name``,
    ``filename`` and ``feed`` (input words)."""
    app = Application(params.get("name", "csource"))
    pd = app.add_c_process(params["source"],
                           filename=params.get("filename", "sweep.c"))
    streams = pd.stream_params
    if len(streams) >= 2:
        app.feed("in", f"{pd.name}.{streams[0]}",
                 data=list(params.get("feed", ())))
        app.sink("out", f"{pd.name}.{streams[1]}")
    elif streams:
        app.sink("out", f"{pd.name}.{streams[0]}")
    return app
