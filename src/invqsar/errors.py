"""Errors shared by the modules that read the pipeline's files."""


class InputError(ValueError):
    """A file or artifact that does not hold what it should, such as a
    `space.json` with a missing key or a feature CSV with a short row."""
