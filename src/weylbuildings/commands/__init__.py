"""The CLI's subcommands, one module each, named as the subcommand.

``cli.main`` imports only the module of the subcommand a request names
and calls its ``run(args)``, which returns a ``cli.Result``, so a cold
request compiles no other subcommand's code.  Each ``run`` imports the
library names it uses when it runs, so a library function replaced after
the module was first imported is the one it calls.
"""
