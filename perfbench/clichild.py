"""One traced ``biquat`` command-line process.

    clichild.py VERB [ARGS...]

Runs ``biquat.cli.main`` like ``python -m biquat.cli`` does.  The import of
``biquat.cli`` is recorded as the span ``cli.import``; ``main`` and the
layers below it are traced by :class:`spans.Tracer`.  Standard output is the
command's own; the spans go to standard error as one JSON list when the
command returns.
"""

import json
import sys

from spans import Tracer

tracer = Tracer()
with tracer.span("cli.import"):
    import biquat.cli
tracer.install()
code = biquat.cli.main(sys.argv[1:])
tracer.uninstall()
sys.stdout.flush()
sys.stderr.write(json.dumps(tracer.spans))
sys.exit(code)
