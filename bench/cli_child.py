"""Traced CLI query: install the tracer, run ``incalg.cli.main`` on the
remaining arguments, write the tracer state to the file named first.

    python3 bench/cli_child.py TRACE_OUT.json classify --poset ...
"""

import json
import sys

import shared


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    shared.use_source_tree()
    import incalg.cli
    import tracer
    tr = tracer.Tracer().install()
    try:
        code = incalg.cli.main(argv)
    finally:
        tr.uninstall()
        with open(trace_out, "w") as fh:
            json.dump(tr.state, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
