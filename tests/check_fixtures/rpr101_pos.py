"""RPR101 positive: a module-level boolean that picks an implementation."""

DEFAULT_TURBO = True


def turbo():
    return 1
