"""The command-group modules behind :mod:`repro.cli`'s command table.

Each module holds one group's argparse definitions (``add_parser``), its
``_cmd_*`` handlers and the imports they need, and is imported only when
one of its commands is dispatched (or the complete parser is built).
"""
