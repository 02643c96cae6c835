"""One module per CLI command, each with its handler ``handle(args, inputs)``.

``cli.main`` imports the invoked command's module only, so a call compiles
only its own handler.
"""
