"""Start trace_raises' hook in every interpreter whose PYTHONPATH holds this
directory, while LOOPFORMS_TRACE_DIR is set; see trace_raises.py."""

import os

if os.environ.get("LOOPFORMS_TRACE_DIR"):
    import trace_raises

    trace_raises.install()
